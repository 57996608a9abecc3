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
// deterministic. The loop runs with the configuration's Tol and budget and
// stops as it does on every transport: its workers go passive under the
// runtime.Tracker of the termination protocol, and the run ends when the
// Tracker is quiescent (every worker parked, nothing in flight), converged
// when every worker was passive. MaxTime and Done end it early; a NaN ends
// it with the loop's DivergedError at the phase that evaluated it. XStar
// only traces the error. This package holds the event queue, the link
// model, Config/Result and the two schedules over that one loop: the
// free-running asynchronous one in this file (computations covered by
// communication, no barriers — Fig. 1), with optional flexible
// communication (partial updates published mid-phase — Fig. 2), and the
// barrier-synchronous baseline in sync.go.
package des

import (
	"container/heap"
	"iter"

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

// Config describes a simulated run: the worker loop's configuration and the
// simulated machine it runs on. Done stops a run at its next event, or
// round, without perturbing what came before.
type Config struct {
	runtime.Config
	// XStar, when given, traces the error to it: Result.ErrorTrace and
	// FinalError. It has no part in stopping.
	XStar []float64
	// MaxTime bounds the virtual clock.
	MaxTime float64
	// Cost is the per-phase compute model (default UniformCost(1)).
	Cost CostFunc
	// Latency is the link model (default FixedLatency(0.1)).
	Latency LatencyFunc
	// DropProb is the iid probability that a message is lost in transit
	// (transient faults; later messages cover for them). The reliable
	// final a worker publishes before it goes passive is never lost.
	DropProb float64
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
}

// Result reports an asynchronous simulated run: the worker loop's
// runtime.Result, whose UpdatesPerWorker counts committed phases (Elapsed
// stays zero: the clock is Time), and what only the simulator has.
type Result struct {
	runtime.Result
	// Time is the virtual time at which the run stopped.
	Time float64
	// FinalError is ||x - x*||_inf at stop (when XStar given).
	FinalError float64
	// Records feeds macro-iteration/epoch analysis.
	Records []macroiter.Record
	// Boundaries, StrictBoundaries, Epochs are the derived sequences.
	Boundaries, StrictBoundaries, Epochs []int
	// MessagesStale counts messages delivered carrying an older label than
	// the view.
	MessagesStale int64
	// ErrorTrace samples (time, error) after each completion (XStar given).
	ErrorTrace []TimedError
}

// TimedError is an (virtual time, max-norm error) sample.
type TimedError struct {
	Time  float64 `json:"time"`
	Error float64 `json:"error"`
}

type eventKind int

const (
	evComplete eventKind = iota
	evWake
	evDeliver
	evPartial
)

// event is one scheduled occurrence: worker w's phase completing
// (evComplete), its Wait ending on a delivery (evWake), or its phase
// publishing the fraction frac of its block (evPartial), or a message from
// w, its block's values under label as update iter produced them, landing
// at worker to (evDeliver).
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

// sim is one simulated run: the virtual clock and its event queue, the
// link model's rng, the termination Tracker, and one Worker.Run coroutine
// per block over its port. Every coroutine is resumed from the goroutine
// that called Run or RunSync and runs until its port yields, so exactly one
// of them runs at a time.
type sim struct {
	cfg     Config
	barrier bool
	rng     *vec.RNG
	q       *runtime.Tracker
	h       eventHeap
	tick    int
	free    []*event // recycled events: one per phase, partial, message and wake
	now     float64
	stopped bool
	ports   []port
	workers []runtime.Worker // the loop each port's coroutine runs

	// x is the iterate a run reports: the owners' committed blocks
	// (asynchronous schedule) or the previous round's (barrier schedule).
	x []float64
	// comps is 0..n-1; a port's are its block's slice of it.
	comps []int
	// Asynchronous schedule: the update counter and the result it fills.
	seq int
	res *Result
	// Barrier schedule: the round's iterate as the workers publish it, and
	// its longest phase.
	round   []float64
	maxCost float64

	// Set only by tests: onEvent runs before every event of the
	// asynchronous schedule and once after the last, onPublish at the start
	// of every phase with the block it installed and the labels of the
	// view it read.
	onEvent   func()
	onPublish func(w int, vals []float64, version []int)
}

// newSim validates cfg as runtime.Config.Validate does, fills the
// machine's defaults and starts nothing: it builds one port and one Worker
// per block and pulls a coroutine over each, suspended before the worker's
// first phase.
func newSim(cfg Config, barrier bool) (*sim, error) {
	n, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if cfg.Cost == nil {
		cfg.Cost = UniformCost(1)
	}
	if cfg.Latency == nil {
		cfg.Latency = FixedLatency(0.1)
	}
	blocks := vec.Blocks(n, cfg.Workers)
	p := len(blocks)
	s := &sim{cfg: cfg, barrier: barrier, rng: vec.NewRNG(cfg.Seed), q: runtime.NewTracker(p),
		x: make([]float64, n), comps: make([]int, n), ports: make([]port, p), workers: make([]runtime.Worker, p)}
	copy(s.x, cfg.X0)
	for c := range s.comps {
		s.comps[c] = c
	}
	if barrier {
		s.round = make([]float64, n)
	} else {
		s.res = &Result{Result: runtime.Result{UpdatesPerWorker: make([]int, p)}}
	}
	for w, b := range blocks {
		comps := s.comps[b[0]:b[1]]
		scr := operators.WorkerScratch(cfg.Scratches, w, cfg.Tuning)
		pt := &s.ports[w]
		*pt = port{Slot: s.q.Slot(w), s: s, id: w, comps: comps, view: runtime.KeptView(scr, cfg.X0, n)}
		if !barrier {
			pt.version, pt.part = make([]int, n), make([]float64, len(comps))
		}
		wk := &s.workers[w]
		*wk = runtime.Worker{ID: w, Op: cfg.Op, Scratch: scr, Tol: cfg.Tol, Budget: cfg.MaxUpdatesPerWorker,
			Progress: cfg.Progress, View: pt.view}
		if cfg.PerWorker {
			wk.Stats = new(runtime.Stats)
		}
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

// close ends the run: every coroutine still suspended in Publish or Wait
// resumes into a stopped port, and its loop returns.
func (s *sim) close() {
	s.stopped = true
	for w := range s.ports {
		s.ports[w].stop()
	}
}

// finish fills what both schedules report alike, then ends the run: a
// worker's time split is whole only once its loop has returned. Converged
// means the Tracker certifies the end with every worker passive, none spent
// on data it could not iterate away.
func (s *sim) finish(r *runtime.Result) {
	r.X, r.Converged = s.x, s.q.Quiescent() && !s.q.Observe().Exhausted
	r.MessagesSent, r.MessagesDropped = s.q.Sent(), s.q.Dropped()
	s.close()
	for w := range s.workers {
		if st := s.workers[w].Stats; st != nil {
			r.PerWorker = append(r.PerWorker, *st)
		}
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
	return s.run()
}

// run starts every worker at time 0 and processes events until the
// Tracker is quiescent, the clock passes MaxTime or Done fires.
func (s *sim) run() (*Result, error) {
	for w := range s.ports {
		if err := s.resume(w); err != nil {
			return nil, err
		}
	}
	res := s.res
	for {
		if s.onEvent != nil {
			s.onEvent()
		}
		if s.q.Quiescent() || s.h.Len() == 0 {
			break
		}
		if s.cancelled() {
			res.Cancelled = true
			break
		}
		e := heap.Pop(&s.h).(*event)
		if s.cfg.MaxTime > 0 && e.time > s.cfg.MaxTime {
			s.now = s.cfg.MaxTime
			break
		}
		s.now = e.time
		switch e.kind {
		case evComplete, evWake:
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

	res.Time = s.now
	s.finish(&res.Result)
	if s.cfg.XStar != nil {
		res.FinalError = vec.DistInf(s.x, s.cfg.XStar)
	}
	res.Boundaries = macroiter.Boundaries(len(s.x), res.Records)
	res.StrictBoundaries = macroiter.StrictBoundaries(len(s.x), res.Records)
	res.Epochs = macroiter.EpochBoundaries(len(s.ports), res.Records)
	return res, nil
}

// deliver writes a message into its receiver's view at its arrival time. A
// parked receiver is accounted active BEFORE the message is acknowledged
// (the ordering rule of the termination protocol) and woken: its Wait
// returns at this time, behind the events already due.
func (s *sim) deliver(m *event) {
	dst := &s.ports[m.to]
	dst.Account(runtime.Active)
	s.q.MsgDelivered()
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
	if dst.waiting {
		dst.waiting = false
		s.push(s.now, evWake, m.to)
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
	s.send(p, p.version[lo], p.part, trace.PartialSend, frac, s.seq+1, false)
}

// send ships vals (p's block) to p's recipients, each message with its own
// latency and, unless reliable, subject to loss; kind is the trace's name
// for it.
func (s *sim) send(p *port, label int, vals []float64, kind trace.Kind, frac float64, iter int, reliable bool) {
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
		s.q.MsgSent(1)
		if !reliable && cfg.DropProb > 0 && s.rng.Float64() < cfg.DropProb {
			s.q.MsgDropped(1)
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
