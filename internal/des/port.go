package des

import (
	"slices"
	"time"

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
// or at the next round (barrier schedule). Wait yields too: until a
// delivery lands on the worker (asynchronous) or until the next round, in
// which the parked worker costs nothing (barrier). A delivery writes into
// the view and its version labels at its arrival time, so only at a
// barrier does Drain have anything to absorb.
//
// Account and Passive are the run's runtime.Tracker, which decides the
// stop. Sends, drops and deliveries feed its counters, and the reliable
// final before passivation ships the committed block under its label: it
// is never dropped, charges no cost and does not yield.
type port struct {
	runtime.Slot
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
	cost     float64 // its cost, until Now charges it
	minLabel int     // min over version when it began
	waiting  bool    // suspended in Wait, no delivery since (read on the asynchronous schedule)

	// The worker's coroutine: next resumes it until its port yields, stop
	// ends it, and err is its loop's error once it has returned.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	err   error
}

func (p *port) Block() (lo, hi int) { return p.comps[0], p.comps[0] + len(p.comps) }

// Now is the virtual clock as a meter reads it, one unit a second. Virtual
// time passes inside Publish, so the first reading after a phase's Publish
// resumes is set back by min(cost, time since the phase began): the meter
// books the cost as Compute and only the rest, the wait for the barrier,
// as Publish.
func (p *port) Now() time.Time {
	t := virtual(p.s.now)
	if c := p.cost; c > 0 {
		p.cost = 0
		if p.s.now <= p.start+c {
			t = virtual(p.start)
		} else {
			t = max(virtual(p.start), t-virtual(c))
		}
	}
	return time.Time{}.Add(t)
}

func virtual(t float64) time.Duration { return time.Duration(t * float64(time.Second)) }

// Drain ends the loop once the run has stopped; at a barrier it hands the
// worker the previous round's iterate.
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

// Wait parks the worker: it yields until a delivery wakes it or, at a
// barrier, until the next round, and absorbs like Drain.
func (p *port) Wait() (runtime.Input, error) {
	p.waiting = true
	p.yield(struct{}{})
	in, err := p.Drain()
	return in | runtime.Fresh, err
}

// Publish is one phase's passage of virtual time, vals the block the loop
// has just evaluated and installed in the view. It yields until the phase
// completes; when the run stops instead, the phase is dropped and the next
// Drain ends the loop.
//
//repro:hotpath
func (p *port) Publish(vals []float64, reliable bool) error {
	s := p.s
	if reliable {
		if !s.barrier && !s.stopped {
			lo, _ := p.Block()
			s.send(p, p.version[lo], vals, trace.Send, 1, p.version[lo], true)
		}
		return nil
	}
	p.k++
	d := s.cfg.Cost(p.id, p.k)
	if d <= 0 {
		d = 1e-9
	}
	p.start = s.now
	if s.barrier {
		s.maxCost = max(s.maxCost, d)
		copy(s.round[p.comps[0]:], vals)
		p.yield(struct{}{})
		p.cost = d
		return nil
	}
	if s.onPublish != nil {
		s.onPublish(p.id, vals, p.version)
	}
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
	p.cost = d
	return nil
}

// commit completes p's phase at the current virtual time: the block
// becomes the owner's authoritative value under the next global label, is
// recorded, traced and broadcast, and its error to XStar is traced.
func (s *sim) commit(p *port, vals []float64) {
	res := s.res
	s.seq++
	j := s.seq
	for bi, c := range p.comps {
		p.version[c] = j
		s.x[c] = vals[bi]
	}
	res.UpdatesPerWorker[p.id]++
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
	s.send(p, j, vals, trace.Send, 1, j, false)
	if s.cfg.XStar != nil {
		res.ErrorTrace = append(res.ErrorTrace, TimedError{Time: s.now, Error: vec.DistInf(s.x, s.cfg.XStar)})
	}
}
