// Package des is a deterministic discrete-event simulator of parallel or
// distributed asynchronous iterations on heterogeneous hardware. It is the
// substitution for the paper's supercomputer and grid testbeds (Cray T3E,
// IBM SP4, Tnode, GRID5000, Planetlab): workers with configurable per-update
// compute costs relax their blocks of the iterate vector and exchange
// values over links with configurable latency, loss, and reordering —
// reproducing exactly the orderings (unbounded delays, out-of-order
// messages, load imbalance) that the paper's claims are about, under a
// virtual clock, with reproducible seeds.
//
// The simulator has no worker of its own: every block is relaxed by the
// production worker loop (internal/runtime, Worker.Run), run as an
// iter.Pull coroutine over a virtual-time port (port.go) that implements
// runtime.Transport. Only one coroutine runs at a time, so a run is
// deterministic. The loop runs with Tol 0 and an unbounded budget, so no
// worker parks; stopping is the scheduler's decision (error to XStar,
// MaxUpdates, MaxTime, Done). A NaN ends the run with the loop's
// DivergedError at the phase that evaluated it. This package holds the
// event queue, the link model, Config/Result and the two schedules over
// that one loop: the free-running asynchronous one in this file
// (computations covered by communication, no barriers — Fig. 1), with
// optional flexible communication (partial updates published mid-phase —
// Fig. 2), and the barrier-synchronous baseline in sync.go.
package des

import (
	"container/heap"
	"errors"
	"fmt"
	"iter"
	"math"
	"sync/atomic"

	"repro/internal/flexible"
	"repro/internal/macroiter"
	"repro/internal/operators"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/vec"
)

// CostFunc returns the duration of the k-th updating phase (k = 1, 2, ...)
// on worker w. Baudet's example uses cost(0,k)=1, cost(1,k)=k.
type CostFunc func(w, k int) float64

// LatencyFunc returns the transit time of a message from worker `from` to
// worker `to`; rng allows stochastic latencies (which produce genuine
// out-of-order deliveries when messages overtake each other).
type LatencyFunc func(from, to int, rng *vec.RNG) float64

// UniformCost returns a CostFunc with a fixed per-phase duration per worker.
func UniformCost(d float64) CostFunc { return func(w, k int) float64 { return d } }

// HeterogeneousCost gives worker w the fixed per-phase duration costs[w].
func HeterogeneousCost(costs []float64) CostFunc {
	return func(w, k int) float64 { return costs[w] }
}

// FixedLatency returns a constant-latency link model.
func FixedLatency(d float64) LatencyFunc {
	return func(from, to int, rng *vec.RNG) float64 { return d }
}

// JitterLatency returns base + uniform[0, jitter) latency; jitter > base
// causes frequent message overtaking (out-of-order delivery).
func JitterLatency(base, jitter float64) LatencyFunc {
	return func(from, to int, rng *vec.RNG) float64 { return base + jitter*rng.Float64() }
}

// ChainNeighbors returns the 1-D sub-domain topology for p workers: worker
// w exchanges with w-1 and w+1 only. With contiguous block partitions of a
// stencil operator (strips of a grid), this is exactly the boundary
// exchange of the sub-domain methods in [26].
func ChainNeighbors(p int) [][]int {
	nb := make([][]int, p)
	for w := 0; w < p; w++ {
		if w > 0 {
			nb[w] = append(nb[w], w-1)
		}
		if w < p-1 {
			nb[w] = append(nb[w], w+1)
		}
	}
	return nb
}

// Config describes a simulated run.
type Config struct {
	// Op is the fixed-point operator; components are partitioned among
	// workers.
	Op operators.Operator
	// Workers is the number of simulated processors (>= 1).
	Workers int
	// X0 is the initial iterate (defaults to zero).
	X0 []float64
	// XStar enables error tracking and error-based stopping.
	XStar []float64
	// Tol stops the run when ||x - x*||_inf <= Tol (XStar required).
	Tol float64
	// MaxUpdates bounds the total number of updating phases.
	MaxUpdates int
	// MaxTime bounds the virtual clock.
	MaxTime float64
	// Cost is the per-phase compute model (default UniformCost(1)).
	Cost CostFunc
	// Latency is the link model (default FixedLatency(0.1)).
	Latency LatencyFunc
	// DropProb is the iid probability that a message is lost in transit
	// (transient faults; later messages cover for them).
	DropProb float64
	// Flexible publishes partial updates at the given phase fractions
	// (hatched arrows of Fig. 2). Empty schedule = plain async.
	Flexible flexible.Schedule
	// ApplyStale controls whether a message carrying an older label than
	// the receiver's current view still overwrites it (true models
	// unordered transports where late messages regress the view; false
	// models version-checked receivers).
	ApplyStale bool
	// Neighbors restricts each worker's broadcasts to the listed peers —
	// the sub-domain exchange pattern of [26] (a worker only ships its
	// block to workers whose stencils read it). nil means all-to-all.
	// Neighbors[w] lists the recipients of worker w's updates; it is the
	// caller's responsibility that the operator's coupling respects the
	// topology (a worker never learns non-neighbour components).
	Neighbors [][]int
	// Seed drives all randomness.
	Seed uint64
	// Trace, when non-nil, records update phases and messages.
	Trace *trace.Log
	// Scratches, when non-nil, supplies one reusable operator scratch per
	// worker (index = worker id) so repeated runs of the same shape share
	// hot-path buffers. Missing or short slices fall back to fresh
	// per-worker scratches.
	Scratches []*operators.Scratch
	// Tuning is installed on every worker scratch (supplied or fresh), so
	// pooled scratches reused across runs always carry this run's knobs.
	Tuning operators.Tuning
	// Done, when non-nil, cancels the run: the event loop stops at the
	// next event and the result reports Cancelled and not Converged.
	// Cancellation does not perturb the trajectory up to the stopping
	// point — a run that is not cancelled is bit-identical to one executed
	// without Done.
	Done <-chan struct{}
	// Progress, when non-nil, is incremented once per completed updating
	// phase so external observers can watch the run live.
	Progress *atomic.Int64
}

// Result reports a simulated run.
type Result struct {
	// Time is the virtual time at which the run stopped.
	Time float64
	// Updates is the number of completed updating phases.
	Updates int
	// Converged reports whether Tol was reached.
	Converged bool
	// FinalError is ||x - x*||_inf at stop (when XStar given).
	FinalError float64
	// X is the final iterate (owners' authoritative values).
	X []float64
	// Records feeds macro-iteration/epoch analysis.
	Records []macroiter.Record
	// Boundaries, StrictBoundaries, Epochs are the derived sequences.
	Boundaries, StrictBoundaries, Epochs []int
	// MessagesSent / MessagesDropped / MessagesStale count transport
	// events (stale = delivered carrying an older label than the view).
	MessagesSent, MessagesDropped, MessagesStale int
	// UpdatesPerWorker counts completed phases per worker.
	UpdatesPerWorker []int
	// ErrorTrace samples (time, error) after each completion (XStar given).
	ErrorTrace []TimedError
	// Cancelled reports that Config.Done fired before the run converged or
	// exhausted its budgets.
	Cancelled bool
}

// TimedError is an (virtual time, max-norm error) sample.
type TimedError struct {
	Time  float64 `json:"time"`
	Error float64 `json:"error"`
}

type eventKind int

const (
	evComplete eventKind = iota
	evDeliver
	evPartial
)

// event is one scheduled occurrence: worker w's phase completing
// (evComplete) or publishing the fraction frac of its block (evPartial),
// or a message from w, its block's values under label as update iter
// produced them, landing at worker to (evDeliver).
type event struct {
	time        float64
	tick        int // FIFO tie-break for determinism
	kind        eventKind
	w, to       int
	frac        float64
	comps       []int // the sender's, shared: never mutated
	vals        []float64
	label, iter int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].tick < h[j].tick
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// validate checks cfg against the operator's dimension n, which it
// returns, clamps Workers to it and fills the defaults.
func (cfg *Config) validate() (n int, err error) {
	if cfg.Op == nil {
		return 0, errors.New("des: Config.Op is required")
	}
	n = cfg.Op.Dim()
	if cfg.Workers < 1 {
		return 0, errors.New("des: need at least one worker")
	}
	if cfg.Workers > n {
		cfg.Workers = n
	}
	if cfg.X0 == nil {
		cfg.X0 = make([]float64, n)
	}
	if len(cfg.X0) != n {
		return 0, fmt.Errorf("des: X0 length %d, want %d", len(cfg.X0), n)
	}
	if cfg.Cost == nil {
		cfg.Cost = UniformCost(1)
	}
	if cfg.Latency == nil {
		cfg.Latency = FixedLatency(0.1)
	}
	if cfg.MaxUpdates <= 0 {
		cfg.MaxUpdates = 100000
	}
	if cfg.Tol > 0 && cfg.XStar == nil {
		return 0, errors.New("des: Tol requires XStar")
	}
	return n, nil
}

// sim is one simulated run: the virtual clock and its event queue, the
// link model's rng, and one Worker.Run coroutine per block over its port.
// Every coroutine is resumed from the goroutine that called Run or RunSync
// and runs until its port yields, so exactly one of them runs at a time.
type sim struct {
	cfg     Config
	barrier bool
	rng     *vec.RNG
	h       eventHeap
	tick    int
	free    []*event // recycled events: one per phase, partial and message
	now     float64
	stopped bool
	ports   []port

	// x is the iterate a run reports: the owners' committed blocks
	// (asynchronous schedule) or the previous round's (barrier schedule).
	x []float64
	// Asynchronous schedule: the update counter and the result it fills.
	seq int
	res *Result
	// Barrier schedule: the round's iterate as the workers publish it, and
	// each worker's phase cost in the round.
	round []float64
	costs []float64
}

// newSim validates cfg and starts nothing: it builds one port and one
// Worker per block and pulls a coroutine over each, suspended before the
// worker's first phase.
func newSim(cfg Config, barrier bool) (*sim, error) {
	n, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	blocks := vec.Blocks(n, cfg.Workers)
	p := len(blocks)
	s := &sim{cfg: cfg, barrier: barrier, rng: vec.NewRNG(cfg.Seed), x: vec.Clone(cfg.X0), ports: make([]port, p)}
	if barrier {
		s.round, s.costs = make([]float64, n), make([]float64, p)
	} else {
		s.res = &Result{UpdatesPerWorker: make([]int, p)}
	}
	workers := make([]runtime.Worker, p)
	for w, b := range blocks {
		comps := make([]int, 0, b[1]-b[0])
		for c := b[0]; c < b[1]; c++ {
			comps = append(comps, c)
		}
		pt := &s.ports[w]
		*pt = port{s: s, id: w, comps: comps, view: vec.Clone(cfg.X0)}
		if !barrier {
			pt.version, pt.part = make([]int, n), make([]float64, len(comps))
		}
		wk := &workers[w]
		*wk = runtime.Worker{ID: w, Op: cfg.Op, Scratch: operators.WorkerScratch(cfg.Scratches, w, cfg.Tuning),
			Budget: math.MaxInt, View: pt.view}
		pt.next, pt.stop = iter.Pull(func(yield func(struct{}) bool) {
			pt.yield = yield
			pt.err = wk.Run(pt)
		})
	}
	return s, nil
}

// resume runs worker w until its port yields again; the worker's error
// when its loop ended instead.
func (s *sim) resume(w int) error {
	if _, ok := s.ports[w].next(); !ok {
		return s.ports[w].err
	}
	return nil
}

// close ends the run: every coroutine still suspended in Publish resumes
// into a stopped port, and its loop returns.
func (s *sim) close() {
	s.stopped = true
	for w := range s.ports {
		s.ports[w].stop()
	}
}

// cancelled reports whether Config.Done has fired.
func (s *sim) cancelled() bool {
	select {
	case <-s.cfg.Done:
		return true
	default:
		return false
	}
}

// push schedules an event of worker w at time t. The simulator schedules
// a steady stream of them, so they come from a free list: a run allocates
// as many as it ever holds at once.
func (s *sim) push(t float64, kind eventKind, w int) *event {
	var e *event
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		e = &event{} //repro:alloc-ok free-list miss; TestSteadyStateAllocationFree pins the steady state
	}
	*e = event{time: t, tick: s.tick, kind: kind, w: w, vals: e.vals[:0]}
	s.tick++
	heap.Push(&s.h, e)
	return e
}

// Run executes the asynchronous discrete-event simulation.
func Run(cfg Config) (*Result, error) {
	s, err := newSim(cfg, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	for w := range s.ports {
		if err := s.resume(w); err != nil {
			return nil, err
		}
	}
	res := s.res
	for s.h.Len() > 0 && !s.stopped {
		if s.cancelled() {
			res.Cancelled = true
			break
		}
		e := heap.Pop(&s.h).(*event)
		if s.cfg.MaxTime > 0 && e.time > s.cfg.MaxTime {
			res.Time = s.cfg.MaxTime
			break
		}
		s.now = e.time
		switch e.kind {
		case evComplete:
			if err := s.resume(e.w); err != nil {
				return nil, err
			}
		case evDeliver:
			s.deliver(e)
		case evPartial:
			s.partial(&s.ports[e.w], e.frac)
		}
		s.free = append(s.free, e)
	}

	res.X = s.x
	if s.cfg.XStar != nil {
		res.FinalError = vec.DistInf(s.x, s.cfg.XStar)
	}
	res.Boundaries = macroiter.Boundaries(len(s.x), res.Records)
	res.StrictBoundaries = macroiter.StrictBoundaries(len(s.x), res.Records)
	res.Epochs = macroiter.EpochBoundaries(len(s.ports), res.Records)
	return res, nil
}

// deliver writes a message into its receiver's view at its arrival time.
func (s *sim) deliver(m *event) {
	dst := &s.ports[m.to]
	stale := false
	for k, c := range m.comps {
		older := m.label < dst.version[c]
		stale = stale || older
		if !older || s.cfg.ApplyStale {
			dst.view[c], dst.version[c] = m.vals[k], m.label
		}
	}
	if stale {
		s.res.MessagesStale++
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			Kind: trace.Deliver, Worker: m.to, Peer: m.w,
			Start: s.now, End: s.now, Iter: m.iter, Comp: m.comps[0],
		})
	}
}

// partial publishes frac of the phase p is in: its block interpolated
// from the last committed values (x) toward the phase's result, which the
// loop has already installed in p's view.
func (s *sim) partial(p *port, frac float64) {
	lo, hi := p.Block()
	vec.LerpInto(p.part, s.x[lo:hi], p.view[lo:hi], frac)
	// Partial updates carry the label of the last *completed* update of
	// this block (conservative for macro-iterations).
	s.send(p, p.version[lo], p.part, trace.PartialSend, frac, s.seq+1)
}

// send ships vals (p's block) to p's recipients, each message subject to
// loss and its own latency; kind is the trace's name for it.
func (s *sim) send(p *port, label int, vals []float64, kind trace.Kind, frac float64, iter int) {
	// Iterate recipients without materializing a slice (a broadcast happens
	// once per update phase; building a recipients slice here would be a
	// per-update allocation under restricted topologies).
	cfg := &s.cfg
	nRecip := len(s.ports)
	topo := cfg.Neighbors != nil && p.id < len(cfg.Neighbors)
	if topo {
		nRecip = len(cfg.Neighbors[p.id])
	}
	for r := 0; r < nRecip; r++ {
		q := r
		if topo {
			q = cfg.Neighbors[p.id][r]
			if q < 0 || q >= len(s.ports) {
				continue
			}
		}
		if q == p.id {
			continue
		}
		s.res.MessagesSent++
		if cfg.DropProb > 0 && s.rng.Float64() < cfg.DropProb {
			s.res.MessagesDropped++
			if cfg.Trace != nil {
				cfg.Trace.Add(trace.Event{
					Kind: trace.Drop, Worker: p.id, Peer: q,
					Start: s.now, End: s.now, Iter: iter, Comp: p.comps[0],
				})
			}
			continue
		}
		lat := cfg.Latency(p.id, q, s.rng)
		if lat < 0 {
			lat = 0
		}
		m := s.push(s.now+lat, evDeliver, p.id)
		m.to, m.comps, m.vals, m.label, m.iter = q, p.comps, append(m.vals, vals...), label, iter
		if cfg.Trace != nil {
			cfg.Trace.Add(trace.Event{
				Kind: kind, Worker: p.id, Peer: q,
				Start: s.now, End: s.now, Iter: iter, Comp: p.comps[0], Frac: frac,
			})
		}
	}
}
