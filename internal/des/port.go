package des

import (
	"slices"

	"repro/internal/macroiter"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/vec"
)

// port is one simulated worker's end of the virtual network: the
// runtime.Transport its Worker.Run coroutine is written against. Publish
// is where virtual time passes: it charges the phase's Cost, schedules the
// phase's flexible partials and its completion, and yields to the
// scheduler; the worker resumes at the completion (asynchronous schedule)
// or at the next round (barrier schedule). A delivery writes into the view
// and its version labels at its arrival time, so only at a barrier does
// Drain have anything to absorb.
//
// The loop runs with Tol 0 and an unbounded budget: it never publishes a
// reliable final, never accounts a state and never waits.
type port struct {
	s     *sim
	id    int
	comps []int     // owned components; shared with Records and messages, never mutated
	view  []float64 // the Worker's View
	// version[c] labels view[c] with its producing update (asynchronous
	// schedule only), and part is the buffer of a flexible partial.
	version []int
	part    []float64

	k        int     // phases begun
	start    float64 // virtual time the current phase began
	minLabel int     // min over version when it began

	// The worker's coroutine: next resumes it until its port yields, stop
	// ends it, and err is its loop's error once it has returned.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	err   error
}

func (p *port) Block() (lo, hi int) { return p.comps[0], p.comps[0] + len(p.comps) }

// Drain ends the loop once the scheduler has stopped; at a barrier it
// hands the worker the previous round's iterate.
func (p *port) Drain() (runtime.Input, error) {
	if p.s.stopped {
		return runtime.Stop, nil
	}
	if p.s.barrier {
		copy(p.view, p.s.x)
		return runtime.Fresh, nil
	}
	return 0, nil
}

func (p *port) Wait() (runtime.Input, error) { return runtime.Stop, nil }
func (p *port) Account(runtime.State)        {}
func (p *port) Passive() bool                { return false }

// Publish is one phase's passage of virtual time, vals the block the loop
// has just evaluated and installed in the view. It yields until the phase
// completes; when the scheduler stops the run instead, the phase is
// dropped and the next Drain ends the loop.
//
//repro:hotpath
func (p *port) Publish(vals []float64, reliable bool) error {
	s := p.s
	p.k++
	d := s.cfg.Cost(p.id, p.k)
	if d <= 0 {
		d = 1e-9
	}
	if s.barrier {
		s.costs[p.id] = d
		copy(s.round[p.comps[0]:], vals)
		p.yield(struct{}{})
		return nil
	}
	p.start = s.now
	p.minLabel = slices.Min(p.version)
	// Flexible: publish partials mid-phase.
	for _, f := range s.cfg.Flexible.Fracs {
		if f < 1 { // the completed value is broadcast at phase end anyway
			s.push(s.now+f*d, evPartial, p.id).frac = f
		}
	}
	s.push(s.now+d, evComplete, p.id)
	if p.yield(struct{}{}) {
		s.commit(p, vals)
	}
	return nil
}

// commit completes p's phase at the current virtual time: the block
// becomes the owner's authoritative value under the next global label, is
// recorded, traced and broadcast, and the stop rules are applied.
func (s *sim) commit(p *port, vals []float64) {
	res := s.res
	s.seq++
	j := s.seq
	for bi, c := range p.comps {
		p.version[c] = j
		s.x[c] = vals[bi]
	}
	res.Updates++
	res.UpdatesPerWorker[p.id]++
	if s.cfg.Progress != nil {
		s.cfg.Progress.Add(1)
	}
	// p.comps is immutable, so Records can share it instead of copying it
	// once per update.
	res.Records = append(res.Records, macroiter.Record{
		J: j, S: p.comps, MinLabel: p.minLabel, Worker: p.id,
	})
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			Kind: trace.UpdatePhase, Worker: p.id,
			Start: p.start, End: s.now, Iter: j, Comp: p.id,
		})
	}
	s.send(p, j, vals, trace.Send, 1, j)
	res.Time = s.now
	if s.cfg.XStar != nil {
		err := vec.DistInf(s.x, s.cfg.XStar)
		res.ErrorTrace = append(res.ErrorTrace, TimedError{Time: s.now, Error: err})
		if s.cfg.Tol > 0 && err <= s.cfg.Tol {
			res.Converged = true
			s.stopped = true
			return
		}
	}
	if res.Updates >= s.cfg.MaxUpdates {
		s.stopped = true
	}
}
