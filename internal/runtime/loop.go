// Package runtime executes asynchronous iterations with real concurrency.
// It holds the ONE worker loop that every engine but the model runs
// (loop.go: Worker.Run, the active/passive protocol and its policies for
// passivation, reactivation and budget exhaustion) and the Transport
// interface that loop is written against. A transport moves block values
// between workers and makes state transitions visible; it decides nothing.
// Two kinds exist, mirroring the paper's data-exchange settings:
//
//   - in process, one port over newest-wins boxes (port.go) in two
//     layouts that differ only in where a reader finds a block: one box
//     per writer that every peer reads (shared memory, the one-sided
//     put()/get() SHMEM style of [10]), or one per (sender, receiver)
//     pair (message passing, the distributed-memory setting of [6],[9]);
//     flexible communication publishes whole partial blocks mid-phase on
//     both, and
//   - TCP, through a coordinator's relay or over a worker-to-worker mesh
//     (internal/dist, which imports this package for the loop).
//
// All of them decide termination with the two-phase double-collect
// quiescence protocol of quiescence.go (in process, under the
// supervisor-based termination detection of [22]): a stop is broadcast
// only after two identical observations of "every worker parked, nothing
// in flight", with workers publishing reactivation before they
// acknowledge the input that caused it. See the quiescence.go comment for
// the protocol and its soundness argument.
//
// Real schedulers are nondeterministic, so the engine tests assert
// invariants (convergence, termination, race freedom) rather than exact
// traces; the loop itself is tested deterministically against a scripted
// transport (loop_test.go). internal/des runs the same loop on a virtual
// clock, one coroutine per worker over a simulated transport of its own,
// which makes its runs deterministic; it runs the loop with Tol 0, so its
// scheduler, not quiescence, ends a run.
package runtime

import (
	gort "runtime"
	"sync/atomic"

	"repro/internal/operators"
	"repro/internal/vec"
)

// The worker protocol, written once. Every engine but the model — shared
// memory, in-process mailboxes, TCP star and TCP mesh, and the simulator's
// asynchronous and barrier schedules in virtual time — runs Worker.Run; a
// Transport is what differs between them. The loop owns the decisions
// (when a block counts as locally converged, when to go passive, what a
// reactivated worker must prove before it may publish again); a transport
// owns the mechanics (how values reach peers, how input arrives, how a
// state transition becomes visible to the termination protocol of
// quiescence.go).
//
// One policy per decision, the same on every transport:
//
//   - Passivation. After confirmSweeps consecutive phases whose block
//     displacement stayed within Tol the worker publishes its block
//     reliably, absorbs what arrived meanwhile, re-verifies, and only then
//     accounts itself passive.
//   - Reactivation. A parked worker that receives input re-verifies local
//     convergence BEFORE anything else: input that leaves the block within
//     Tol re-passivates it without a publish (otherwise converged workers
//     whose frames cross in flight wake each other forever), input that
//     breaks convergence resumes the active path with the streak at zero.
//   - Budget exhaustion. A worker that has spent MaxUpdatesPerWorker does
//     not leave: it is accounted Spent and keeps absorbing and re-verifying
//     input until the run stops. Input it can no longer iterate away leaves
//     it active-but-spent, which ends the run as not converged — it never
//     reports passive on data it could not verify.
//   - Waiting. A parked worker consumes no budget and blocks in
//     Transport.Wait until input or stop arrives.
//   - Divergence. A block evaluation that produces NaN ends the worker's
//     loop with an operators.DivergedError before the block is installed or
//     published, and whoever runs the workers ends the run with it: a NaN
//     never reaches a peer, a termination check or a result.

// State is a worker state the termination protocol can observe.
type State uint8

const (
	// Active: computing and publishing.
	Active State = iota
	// Passive: locally converged, publishing nothing until input arrives.
	Passive
	// Spent: update budget exhausted; orthogonal to Active/Passive (a spent
	// worker is passive exactly when its last re-verification passed) and
	// never cleared.
	Spent
)

// Input is what one Drain or Wait absorbed, as a set of flags.
type Input uint8

const (
	// Fresh: values in the worker's view may have changed.
	Fresh Input = 1 << iota
	// Reset: the transport re-assigned the worker's block (Transport.Block
	// has the new bounds); the convergence streak restarts.
	Reset
	// Stop: the run is over.
	Stop
)

// Transport is one worker's end of a communication substrate. It is bound
// at construction to the worker's view (the slice Worker.View aliases):
// Drain and Wait write received values into it.
//
// The ordering rule of quiescence.go is the transport's to keep: when
// input reaches a passive worker, Drain/Wait account the reactivation
// BEFORE acknowledging the input (counting it delivered).
type Transport interface {
	// Block returns the component range [lo, hi) this worker owns.
	Block() (lo, hi int)
	// Drain absorbs every input already here, without blocking for more.
	Drain() (Input, error)
	// Wait blocks until input arrives or the run stops, then absorbs like
	// Drain. It may return without Fresh (a wake-up with nothing to read).
	Wait() (Input, error)
	// Publish ships the worker's block values to its peers: lossy while
	// the worker is active, reliable for the final before passivation. It
	// must not retain vals after it returns: the loop reuses the buffer.
	Publish(vals []float64, reliable bool) error
	// Account makes a state transition visible to the termination
	// protocol. Accounting the state the worker is already in is a no-op.
	Account(s State)
	// Passive reports whether the worker is currently accounted passive.
	Passive() bool
}

// confirmSweeps is how many consecutive phases within Tol a worker needs
// before it goes passive — the consecutive-confirmation idea of the
// macro-iteration stopping rule.
const confirmSweeps = 2

// The Own slots of a worker's operators.Scratch, what a kept Scratch keeps of
// its worker from run to run: each refilled as a run starts, none in a Result.
const (
	OwnView = iota // the worker's full view of the iterate (Worker.View)
	OwnOut         // the block a phase evaluates into
	OwnBox         // in process: the boxes carrying the worker's block to its peers
	OwnFlex        // in process: the block as last published, and a flexible partial
	OwnSent        // dist: the shard as last shipped to peers
)

// KeptView returns a worker's view of n components from scr's OwnView slot,
// refilled from x0 (zeros when x0 is nil).
func KeptView(scr *operators.Scratch, x0 []float64, n int) []float64 {
	v := scr.Own(OwnView, n)
	clear(v[copy(v, x0):])
	return v
}

// Worker is one worker's loop state.
type Worker struct {
	// ID names the worker in a DivergedError.
	ID int
	Op operators.Operator
	// Scratch also keeps the worker's buffers (the Own slots); nil: a fresh one.
	Scratch *operators.Scratch
	// Tol and Budget are Config.Tol and MaxUpdatesPerWorker.
	Tol    float64
	Budget int
	// Progress, when non-nil, is bumped once per completed updating phase.
	Progress *atomic.Int64
	// View is the worker's private copy of the full iterate, shared with
	// its transport.
	View []float64
	// Updates counts completed updating phases.
	Updates int

	lo, hi int
	out    []float64 // a phase's or re-verification's block; dead once published
	streak int
}

// Run executes the worker protocol over t until the run stops.
func (w *Worker) Run(t Transport) error {
	if w.Scratch == nil {
		w.Scratch = operators.NewScratch()
	}
	w.resize(t)
	for {
		parked := t.Passive() || w.Updates >= w.Budget
		in, err := w.absorb(t, parked)
		if err != nil || in&Stop != 0 {
			return err
		}
		if parked {
			if in&(Fresh|Reset) != 0 {
				if err := w.reverify(t); err != nil {
					return err
				}
			}
			continue
		}
		delta, bad := w.phase()
		if bad >= 0 {
			return w.diverged(bad)
		}
		if err := t.Publish(w.out, false); err != nil {
			return err
		}
		if w.Updates >= w.Budget {
			t.Account(Spent)
		}
		if w.Tol <= 0 {
			continue
		}
		if delta > w.Tol {
			w.streak = 0
			continue
		}
		// Locally converged: yield so peers can advance. Without this an
		// oversubscribed or single-CPU schedule lets one worker burn its
		// budget re-relaxing a converged block while its peers sit
		// descheduled with stale blocks.
		gort.Gosched()
		if w.streak++; w.streak < confirmSweeps {
			continue
		}
		if err := t.Publish(w.View[w.lo:w.hi], true); err != nil {
			return err
		}
		if in, err := w.absorb(t, false); err != nil || in&Stop != 0 {
			return err
		}
		if err := w.reverify(t); err != nil {
			return err
		}
	}
}

// diverged is the error of a NaN at index bad of the block the worker's
// next phase evaluated.
func (w *Worker) diverged(bad int) error {
	return &operators.DivergedError{Worker: w.ID, Phase: w.Updates + 1, Component: w.lo + bad}
}

// absorb takes input from the transport — blocking for it when the worker
// is parked — and follows a re-assigned block.
func (w *Worker) absorb(t Transport, block bool) (in Input, err error) {
	if block {
		in, err = t.Wait()
	} else {
		in, err = t.Drain()
	}
	if in&Reset != 0 {
		w.resize(t)
	}
	return in, err
}

// resize adopts the transport's current block bounds.
func (w *Worker) resize(t Transport) {
	w.lo, w.hi = t.Block()
	w.out = w.Scratch.Own(OwnOut, w.hi-w.lo)
	w.streak = 0
}

// reverify decides what a worker holding new input may do: account itself
// passive when its block is still (or again) within Tol of its image, or
// active with the streak restarted.
func (w *Worker) reverify(t Transport) error {
	if w.Tol > 0 {
		d, bad := w.displacement()
		if bad >= 0 {
			return w.diverged(bad)
		}
		if d <= w.Tol {
			t.Account(Passive)
			return nil
		}
	}
	t.Account(Active)
	w.streak = 0
	return nil
}

// phase is one updating phase: relax the whole block in one
// coupled-operator pass over the current view, install the result, and
// return the block displacement it caused. A NaN in the evaluated block
// installs nothing: bad is its index in the block, -1 otherwise.
//
//repro:hotpath
func (w *Worker) phase() (delta float64, bad int) {
	operators.EvalBlock(w.Op, w.Scratch, w.lo, w.hi, w.View, w.out)
	if delta, bad = vec.DistInfNaN(w.out, w.View[w.lo:w.hi]); bad >= 0 {
		return 0, bad
	}
	copy(w.View[w.lo:w.hi], w.out)
	w.Updates++
	if w.Progress != nil {
		w.Progress.Add(1)
	}
	return delta, -1
}

// displacement is the local convergence measure max_c |F_c(view) - view_c|
// over the worker's block, evaluated without installing anything; bad is
// the index of the first NaN it evaluated, -1 when there is none.
//
//repro:hotpath
func (w *Worker) displacement() (d float64, bad int) {
	operators.EvalBlock(w.Op, w.Scratch, w.lo, w.hi, w.View, w.out)
	return vec.DistInfNaN(w.out, w.View[w.lo:w.hi])
}
