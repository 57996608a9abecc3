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
// Two drivers are provided: the free-running asynchronous engine in this
// file (computations covered by communication, no barriers — Fig. 1), with
// optional flexible communication (partial updates published mid-phase —
// Fig. 2), and the barrier-synchronous baseline in sync.go.
package des

import (
	"container/heap"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/flexible"
	"repro/internal/macroiter"
	"repro/internal/operators"
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

type message struct {
	from, to int
	comps    []int
	vals     []float64
	label    int
	partial  bool
	frac     float64
	iter     int // producing update's sequence number (for traces)
}

type event struct {
	time float64
	tick int // FIFO tie-break for determinism
	kind eventKind
	w    int // worker for evComplete
	msg  *message
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

// pool recycles events and messages. A simulated run schedules one event
// per update phase, per partial publication and per message delivery —
// pooling turns that steady stream of small heap objects into free-list
// pops. The simulator is single-threaded, so no locking is needed.
type pool struct {
	events []*event
	msgs   []*message
}

func (p *pool) getEvent() *event {
	if n := len(p.events); n > 0 {
		e := p.events[n-1]
		p.events = p.events[:n-1]
		*e = event{}
		return e
	}
	return &event{} //repro:alloc-ok pool miss; steady state pops the free list
}

// putEvent recycles e and any message it carries.
func (p *pool) putEvent(e *event) {
	if e.msg != nil {
		p.putMsg(e.msg)
		e.msg = nil
	}
	p.events = append(p.events, e)
}

func (p *pool) getMsg() *message {
	if n := len(p.msgs); n > 0 {
		m := p.msgs[n-1]
		p.msgs = p.msgs[:n-1]
		return m
	}
	return &message{} //repro:alloc-ok pool miss; steady state pops the free list
}

func (p *pool) putMsg(m *message) {
	*m = message{vals: m.vals[:0]} // keep vals capacity; comps is shared, not owned
	p.msgs = append(p.msgs, m)
}

type worker struct {
	id      int
	comps   []int     // owned components; never mutated after init (shared with Records and messages)
	view    []float64 // local copy of the full iterate vector
	version []int     // label (producer seq) of each view component
	scr     *operators.Scratch
	// In-progress phase (buffers preallocated once per worker):
	phaseK        int // per-worker phase counter
	phaseStart    float64
	phaseMinLabel int
	phaseOld      []float64 // own values at phase start
	phaseOut      []float64 // computed results (applied at completion)
	partialVals   []float64 // interpolation buffer for flexible publications
}

// Run executes the asynchronous discrete-event simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Op == nil {
		return nil, errors.New("des: Config.Op is required")
	}
	n := cfg.Op.Dim()
	if cfg.Workers < 1 {
		return nil, errors.New("des: need at least one worker")
	}
	if cfg.Workers > n {
		cfg.Workers = n
	}
	x0 := cfg.X0
	if x0 == nil {
		x0 = make([]float64, n)
	}
	if len(x0) != n {
		return nil, fmt.Errorf("des: X0 length %d, want %d", len(x0), n)
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
		return nil, errors.New("des: Tol requires XStar")
	}

	rng := vec.NewRNG(cfg.Seed)
	blocks := vec.Blocks(n, cfg.Workers)
	workers := make([]*worker, len(blocks))
	globalX := vec.Clone(x0)
	res := &Result{UpdatesPerWorker: make([]int, len(blocks))}

	var h eventHeap
	tick := 0
	pl := &pool{}
	push := func(e *event) {
		e.tick = tick
		tick++
		heap.Push(&h, e)
	}

	// Initialize workers and their first phases.
	for w, b := range blocks {
		comps := make([]int, 0, b[1]-b[0])
		for c := b[0]; c < b[1]; c++ {
			comps = append(comps, c)
		}
		scr := operators.WorkerScratch(cfg.Scratches, w, cfg.Tuning)
		wk := &worker{
			id:          w,
			comps:       comps,
			view:        vec.Clone(x0),
			version:     make([]int, n),
			scr:         scr,
			phaseOld:    make([]float64, len(comps)),
			phaseOut:    make([]float64, len(comps)),
			partialVals: make([]float64, len(comps)),
		}
		workers[w] = wk
		startPhase(wk, cfg, rng, 0, push, pl)
	}

	seq := 0
	stopped := false
	for h.Len() > 0 && !stopped {
		if cfg.Done != nil {
			select {
			case <-cfg.Done:
				res.Cancelled = true
				stopped = true
			default:
			}
			if stopped {
				break
			}
		}
		e := heap.Pop(&h).(*event)
		if cfg.MaxTime > 0 && e.time > cfg.MaxTime {
			res.Time = cfg.MaxTime
			break
		}
		switch e.kind {
		case evComplete:
			wk := workers[e.w]
			if bad := vec.FirstNaN(wk.phaseOut); bad >= 0 {
				return nil, &operators.DivergedError{Worker: wk.id, Phase: wk.phaseK, Component: wk.comps[bad]}
			}
			seq++
			j := seq
			// Commit the block.
			for bi, c := range wk.comps {
				wk.view[c] = wk.phaseOut[bi]
				wk.version[c] = j
				globalX[c] = wk.phaseOut[bi]
			}
			res.Updates++
			res.UpdatesPerWorker[wk.id]++
			if cfg.Progress != nil {
				cfg.Progress.Add(1)
			}
			// wk.comps is immutable after init, so Records can share it
			// instead of copying it once per update.
			res.Records = append(res.Records, macroiter.Record{
				J: j, S: wk.comps,
				MinLabel: wk.phaseMinLabel, Worker: wk.id,
			})
			if cfg.Trace != nil {
				cfg.Trace.Add(trace.Event{
					Kind: trace.UpdatePhase, Worker: wk.id,
					Start: wk.phaseStart, End: e.time, Iter: j, Comp: wk.id,
				})
			}
			// Broadcast the completed block.
			sendBlock(cfg, rng, push, pl, workers, wk, e.time, j, wk.phaseOut, false, 1, res)
			// Track error / stopping.
			if cfg.XStar != nil {
				err := vec.DistInf(globalX, cfg.XStar)
				res.ErrorTrace = append(res.ErrorTrace, TimedError{Time: e.time, Error: err})
				if cfg.Tol > 0 && err <= cfg.Tol {
					res.Converged = true
					res.Time = e.time
					stopped = true
					break
				}
			}
			if res.Updates >= cfg.MaxUpdates {
				res.Time = e.time
				stopped = true
				break
			}
			// Next phase begins immediately (no idle time: Section II).
			startPhase(wk, cfg, rng, e.time, push, pl)
			res.Time = e.time

		case evDeliver:
			m := e.msg
			dst := workers[m.to]
			stale := false
			for k, c := range m.comps {
				if m.label >= dst.version[c] {
					dst.view[c] = m.vals[k]
					dst.version[c] = m.label
				} else {
					stale = true
					if cfg.ApplyStale {
						dst.view[c] = m.vals[k]
						dst.version[c] = m.label
					}
				}
			}
			if stale {
				res.MessagesStale++
			}
			if cfg.Trace != nil {
				cfg.Trace.Add(trace.Event{
					Kind: trace.Deliver, Worker: m.to, Peer: m.from,
					Start: e.time, End: e.time, Iter: m.iter, Comp: m.comps[0],
				})
			}

		case evPartial:
			// Scheduled mid-phase publication: emit interpolated values.
			wk := workers[e.w]
			m := e.msg // carries frac in frac field; comps/vals filled here
			frac := m.frac
			vals := wk.partialVals
			for bi := range wk.comps {
				vals[bi] = flexible.Interpolate(wk.phaseOld[bi], wk.phaseOut[bi], frac)
			}
			// Partial updates carry the label of the last *completed*
			// update of this block (conservative for macro-iterations).
			label := wk.version[wk.comps[0]]
			sendVals(cfg, rng, push, pl, workers, wk, e.time, label, wk.comps, vals, true, frac, seq+1, res)
		}
		pl.putEvent(e)
	}

	res.X = globalX
	if cfg.XStar != nil {
		res.FinalError = vec.DistInf(globalX, cfg.XStar)
	}
	res.Boundaries = macroiter.Boundaries(n, res.Records)
	res.StrictBoundaries = macroiter.StrictBoundaries(n, res.Records)
	res.Epochs = macroiter.EpochBoundaries(len(blocks), res.Records)
	return res, nil
}

// startPhase snapshots the worker's view, computes its next block values and
// schedules the completion (and any flexible partial publications). The
// computation reads wk.view directly: the event loop is single-threaded and
// the results are committed via phaseOut only at completion, so no defensive
// copy is needed and a phase allocates nothing in steady state.
//
//repro:hotpath
func startPhase(wk *worker, cfg Config, rng *vec.RNG, now float64, push func(*event), pl *pool) {
	wk.phaseK++
	wk.phaseStart = now
	minLabel := int(^uint(0) >> 1)
	for _, v := range wk.version {
		if v < minLabel {
			minLabel = v
		}
	}
	wk.phaseMinLabel = minLabel
	for bi, c := range wk.comps {
		wk.phaseOld[bi] = wk.view[c]
	}
	// comps is the worker's contiguous block [comps[0], comps[0]+len), so
	// the whole phase is one coupled-operator block pass.
	lo := wk.comps[0]
	operators.EvalBlock(cfg.Op, wk.scr, lo, lo+len(wk.comps), wk.view, wk.phaseOut)
	d := cfg.Cost(wk.id, wk.phaseK)
	if d <= 0 {
		d = 1e-9
	}
	// Flexible: publish partials mid-phase.
	for _, f := range cfg.Flexible.Fracs {
		if f < 1 { // the completed value is broadcast at phase end anyway
			m := pl.getMsg()
			m.frac = f
			e := pl.getEvent()
			e.time, e.kind, e.w, e.msg = now+f*d, evPartial, wk.id, m
			push(e)
		}
	}
	e := pl.getEvent()
	e.time, e.kind, e.w = now+d, evComplete, wk.id
	push(e)
}

// sendBlock broadcasts completed block values to every other worker.
func sendBlock(cfg Config, rng *vec.RNG, push func(*event), pl *pool, workers []*worker,
	wk *worker, now float64, label int, vals []float64, partial bool, frac float64, res *Result) {
	sendVals(cfg, rng, push, pl, workers, wk, now, label, wk.comps, vals, partial, frac, label, res)
}

func sendVals(cfg Config, rng *vec.RNG, push func(*event), pl *pool, workers []*worker,
	wk *worker, now float64, label int, comps []int, vals []float64,
	partial bool, frac float64, iter int, res *Result) {
	// Iterate recipients without materializing a slice (a broadcast happens
	// once per update phase; building a recipients slice here would be a
	// per-update allocation under restricted topologies).
	nRecip := len(workers)
	topo := cfg.Neighbors != nil && wk.id < len(cfg.Neighbors)
	if topo {
		nRecip = len(cfg.Neighbors[wk.id])
	}
	for r := 0; r < nRecip; r++ {
		q := r
		if topo {
			q = cfg.Neighbors[wk.id][r]
			if q < 0 || q >= len(workers) {
				continue
			}
		}
		peer := workers[q]
		if peer.id == wk.id {
			continue
		}
		res.MessagesSent++
		if cfg.DropProb > 0 && rng.Float64() < cfg.DropProb {
			res.MessagesDropped++
			if cfg.Trace != nil {
				cfg.Trace.Add(trace.Event{
					Kind: trace.Drop, Worker: wk.id, Peer: peer.id,
					Start: now, End: now, Iter: iter, Comp: comps[0],
				})
			}
			continue
		}
		lat := cfg.Latency(wk.id, peer.id, rng)
		if lat < 0 {
			lat = 0
		}
		m := pl.getMsg()
		m.from, m.to = wk.id, peer.id
		m.comps = comps // owner's comps slice is immutable; share, don't copy
		m.vals = append(m.vals[:0], vals...)
		m.label, m.partial, m.frac, m.iter = label, partial, frac, iter
		if cfg.Trace != nil {
			kind := trace.Send
			if partial {
				kind = trace.PartialSend
			}
			cfg.Trace.Add(trace.Event{
				Kind: kind, Worker: wk.id, Peer: peer.id,
				Start: now, End: now, Iter: iter, Comp: comps[0], Frac: frac,
			})
		}
		ev := pl.getEvent()
		ev.time, ev.kind, ev.msg = now+lat, evDeliver, m
		push(ev)
	}
}
