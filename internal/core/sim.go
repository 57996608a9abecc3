package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/delay"
	"repro/internal/flexible"
	"repro/internal/macroiter"
	"repro/internal/operators"
	"repro/internal/steering"
	"repro/internal/vec"
)

// Config describes an asynchronous iteration (F or G, x(0), S, L) in the
// sense of Definitions 1 and 3 of the paper.
type Config struct {
	// Op is the fixed-point operator being relaxed.
	Op operators.Operator
	// Steering produces the sets S_j (Definition 1). Defaults to cyclic.
	Steering steering.Policy
	// Delay produces the labels l_i(j). Defaults to Fresh (l = j-1).
	Delay delay.Model
	// X0 is the initial iterate; defaults to the zero vector.
	X0 []float64

	// Theta enables flexible communication (Definition 3): reads blend the
	// labelled value x_h(l_h(j)) toward the freshest available value
	// x_h(j-1) by fraction Theta in [0, 1]. Theta = 0 reproduces plain
	// asynchronous iterations (Definition 1); Theta = 1 reads fully fresh
	// partial state. Intermediate values model consuming one-sided partial
	// updates mid-computation (the hatched arrows of Fig. 2).
	Theta float64

	// MaxIter bounds the number of global iterations.
	MaxIter int
	// Tol stops the run when the fixed-point residual ||F(x)-x||_inf,
	// evaluated every n iterations (or the error to XStar when provided,
	// every iteration), falls below it. Zero disables.
	Tol float64
	// XStar, when known, enables exact error tracking, Theorem 1 checking
	// and constraint (3) validation.
	XStar []float64
	// Weights is the positive weight vector u of the weighted max norm;
	// defaults to all ones.
	Weights []float64
	// WorkerOf maps a component to the machine that owns it (for the epoch
	// sequence of [30]); defaults to identity (one component per machine).
	WorkerOf func(i int) int
	// Workers is the number of machines (required if WorkerOf is set).
	Workers int
	// CheckConstraint3 validates inequality (3) at every read when XStar is
	// known, recording violations.
	CheckConstraint3 bool
	// Scratch, when non-nil, supplies reusable hot-path buffers so repeated
	// runs of the same shape do not re-allocate them. The model engine is
	// single-threaded, so one RunScratch serves a whole run; it must not be
	// shared by concurrent Runs.
	Scratch *RunScratch
	// Tuning is installed on the operator scratch (supplied or fresh), so
	// a pooled scratch reused across runs always carries this run's knobs.
	Tuning operators.Tuning
	// Done, when non-nil, cancels the run: the iteration loop stops at the
	// next doneCheckEvery boundary and the result reports Cancelled and
	// not Converged. Cancellation never perturbs the trajectory computed
	// so far — the model engine stays deterministic.
	Done <-chan struct{}
	// Progress, when non-nil, is incremented once per global iteration so
	// external observers can watch the run live.
	Progress *atomic.Int64
	// KeepRecords fills Result.Records, the per-iteration log that offline
	// analysis (the box replay, epoch staleness) reads. Off, a run keeps
	// only what its strict boundaries need, in the Scratch.
	KeepRecords bool
}

// doneCheckEvery is how many iterations pass between Done-channel polls: a
// non-blocking select is cheap but not free, and model iterations can be
// as small as one component relaxation.
const doneCheckEvery = 256

// RunScratch bundles the model engine's reusable state: the operator
// evaluation scratch, the history storage (which keeps the labelled read
// vector), the label row and flexible read vector assembled every
// iteration, and the iteration log the strict boundaries are computed from.
type RunScratch struct {
	// Op is the operator-evaluation scratch threaded through every
	// component relaxation.
	Op          *operators.Scratch
	hist        History
	labels      []int
	xread       []float64 // the flexible read vector
	snap        []float64 // the freshest iterate, for steering and the residual check
	blockOut    []float64 // block-evaluation output buffer
	seenWorkers []bool
	log         macroiter.Log
}

// NewRunScratch returns an empty RunScratch; buffers grow on first use.
func NewRunScratch() *RunScratch { return &RunScratch{Op: operators.NewScratch()} }

// History returns the history the last Run on s recorded, x_i(l) for
// every component and label it reached; the next Run resets it.
func (s *RunScratch) History() *History { return &s.hist }

// vecs returns the label row, flexible read vector and snapshot, length n.
func (s *RunScratch) vecs(n int) (labels []int, xread, snap []float64) {
	s.labels, s.xread, s.snap = grown(s.labels, n), grown(s.xread, n), grown(s.snap, n)
	return s.labels, s.xread, s.snap
}

// blockVec returns the block-evaluation output buffer resized to n.
func (s *RunScratch) blockVec(n int) []float64 {
	s.blockOut = grown(s.blockOut, n)
	return s.blockOut
}

// workersSeen returns a cleared bool slice of length w. Run unmarks what
// it marks, so the slice stays clear between iterations.
func (s *RunScratch) workersSeen(w int) []bool {
	s.seenWorkers = grown(s.seenWorkers, w)
	clear(s.seenWorkers)
	return s.seenWorkers
}

// Result reports an asynchronous iteration run.
type Result struct {
	// X is the final iterate vector.
	X []float64
	// Iterations is the number of global iterations performed.
	Iterations int
	// Converged reports whether the tolerance was met.
	Converged bool
	// Updates is the total number of component relaxations.
	Updates int

	// Boundaries is the Definition 2 macro-iteration sequence {j_k}.
	Boundaries []int
	// StrictBoundaries is the suffix-guaranteed macro-iteration sequence
	// used for Theorem 1 validation.
	StrictBoundaries []int
	// Epochs is the epoch sequence of Mishchenko et al. [30].
	Epochs []int

	// Errors[j] = ||x(j) - x*||_inf for j = 0..Iterations (only when XStar
	// was provided).
	Errors []float64
	// Residuals holds (iteration, residual) samples.
	Residuals []ResidualSample
	// Records is the per-iteration log (S_j, l(j), worker) for offline
	// macro/epoch analysis, filled only when Config.KeepRecords asks.
	Records []macroiter.Record
	// Constraint3Violations counts reads that violated inequality (3)
	// (checked only when XStar is known and CheckConstraint3 is set).
	Constraint3Violations int
	// FinalResidual is ||F(x)-x||_inf at the final iterate.
	FinalResidual float64
	// Cancelled reports that Config.Done fired before the run converged or
	// exhausted MaxIter.
	Cancelled bool
}

// ResidualSample pairs an iteration with its fixed-point residual.
type ResidualSample struct {
	Iter     int
	Residual float64
}

// Run executes the asynchronous iteration model. It is deterministic for
// deterministic steering/delay models.
func Run(cfg Config) (*Result, error) {
	if cfg.Op == nil {
		return nil, errors.New("core: Config.Op is required")
	}
	n := cfg.Op.Dim()
	if n < 1 {
		return nil, errors.New("core: operator dimension must be positive")
	}
	if cfg.Steering == nil {
		cfg.Steering = steering.NewCyclic(n)
	}
	if cfg.Delay == nil {
		cfg.Delay = delay.Fresh{}
	}
	x0 := cfg.X0
	if x0 == nil {
		x0 = make([]float64, n)
	}
	if len(x0) != n {
		return nil, fmt.Errorf("core: X0 has length %d, want %d", len(x0), n)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 1000 * n
	}
	if cfg.Theta < 0 || cfg.Theta > 1 {
		return nil, fmt.Errorf("core: Theta %v outside [0,1]", cfg.Theta)
	}
	u := cfg.Weights
	if u == nil {
		u = operators.Ones(n)
	}
	if len(u) != n {
		return nil, fmt.Errorf("core: Weights has length %d, want %d", len(u), n)
	}
	workerOf := cfg.WorkerOf
	workers := cfg.Workers
	if workerOf == nil {
		workerOf = func(i int) int { return i }
		workers = n
	}
	if workers < 1 {
		return nil, errors.New("core: Workers must be positive when WorkerOf is set")
	}

	tracker := macroiter.NewTracker(n)
	epochs := macroiter.NewEpochTracker(workers)
	res := &Result{}
	scratch := cfg.Scratch
	if scratch == nil {
		scratch = NewRunScratch()
	}
	hist := &scratch.hist
	hist.Reset(x0)
	itLog := &scratch.log
	itLog.Reset()
	seen := scratch.workersSeen(workers)
	if scratch.Op == nil {
		scratch.Op = operators.NewScratch()
	}
	scratch.Op.SetTuning(cfg.Tuning)

	// Wire residual-aware steering (Gauss–Southwell) to live residuals. The
	// closure runs once per candidate component per Select, so it reuses the
	// snapshot buffer instead of materializing one per call.
	labels, xread, snap := scratch.vecs(n)
	ra, steered := cfg.Steering.(steering.ResidualAware)
	if steered {
		ra.SetResidualFunc(func(i int) float64 {
			hist.LatestSnapshotInto(snap)
			return operators.EvalComponent(cfg.Op, scratch.Op, i, snap) - snap[i]
		})
	}

	if cfg.XStar != nil {
		res.Errors = append(res.Errors, vec.DistInf(x0, cfg.XStar))
	}

	converged := false
	// Each evaluation hints the operator scratch which components of its x
	// can differ from the previous evaluation's (operators.Scratch.Hint):
	// chained says that evaluation was at the previous iteration's read.
	// Only a plain read chains: a flexible one, and the snapshots that
	// residual-aware steering and the residual check evaluate, start over
	// unhinted.
	chained := false

	for j := 1; j <= cfg.MaxIter; j++ {
		if cfg.Done != nil && j%doneCheckEvery == 0 {
			select {
			case <-cfg.Done:
				res.Cancelled = true
			default:
			}
			if res.Cancelled {
				break
			}
		}
		S := cfg.Steering.Select(j)

		// Assemble the read vector: labelled values, optionally blended
		// toward the freshest state (flexible communication).
		xlabel, minLabel, walked := hist.Read(cfg.Delay, j, labels)
		// x(l(j)) and x(l(j-1)) differ at most at the components Read
		// moved. After a read of all n there is no such list, and a hint of
		// n entries or more would cost what a full pass does.
		if chained && walked != nil && len(walked) < n {
			scratch.Op.Hint(walked)
		}
		chained = cfg.Theta == 0 && !steered && len(S) > 0
		if cfg.Theta == 0 {
			xread = xlabel // Definition 1: the read vector is the labelled one
		} else {
			for h, lv := range xlabel {
				xread[h] = flexible.Interpolate(lv, hist.Latest(h), cfg.Theta)
			}
		}

		if cfg.CheckConstraint3 && cfg.XStar != nil && cfg.Theta > 0 {
			if rep := flexible.CheckConstraint3(xread, xlabel, cfg.XStar, u); !rep.OK {
				res.Constraint3Violations++
			}
		}

		// Relax the selected components; others keep x_i(j-1) implicitly.
		// Maximal contiguous ascending runs of S are evaluated as blocks so
		// coupled operators amortize their shared work across the run (a
		// block-steered worker phase is exactly one such run); scattered
		// components degrade to length-1 runs, which EvalBlock routes
		// through the same code path with identical results.
		for s := 0; s < len(S); {
			e := s + 1
			for e < len(S) && S[e] == S[e-1]+1 {
				e++
			}
			lo, hi := S[s], S[e-1]+1
			out := scratch.blockVec(hi - lo)
			if s > 0 {
				scratch.Op.Hint(nil) // the same read as the run before
			}
			operators.EvalBlock(cfg.Op, scratch.Op, lo, hi, xread, out)
			for c := lo; c < hi; c++ {
				v := out[c-lo]
				if v != v {
					return nil, fmt.Errorf("%w: component %d at iteration %d", operators.ErrDiverged, c, j)
				}
				hist.Set(c, j, v)
			}
			s = e
		}

		// Bookkeeping: macro-iterations (Definition 2), epochs, the log.
		tracker.Observe(j, S, minLabel)
		itLog.Append(j, S, minLabel)
		for _, i := range S {
			w := workerOf(i)
			if w >= 0 && w < len(seen) && !seen[w] {
				epochs.Observe(j, w)
				seen[w] = true
			}
		}
		for _, i := range S {
			if w := workerOf(i); w >= 0 && w < len(seen) {
				seen[w] = false
			}
		}

		if cfg.XStar != nil {
			res.Errors = append(res.Errors, vec.DistInf(hist.latest, cfg.XStar))
		}
		if cfg.Progress != nil {
			cfg.Progress.Add(1)
		}

		// Stopping.
		if cfg.Tol > 0 {
			if cfg.XStar != nil {
				if res.Errors[len(res.Errors)-1] <= cfg.Tol {
					converged, res.Iterations = true, j
					break
				}
			} else if j%n == 0 {
				hist.LatestSnapshotInto(snap)
				r := operators.ResidualWith(cfg.Op, scratch.Op, snap)
				chained = false
				res.Residuals = append(res.Residuals, ResidualSample{Iter: j, Residual: r})
				if r <= cfg.Tol {
					converged, res.Iterations = true, j
					break
				}
			}
		}
		res.Iterations = j
	}

	res.X = hist.LatestSnapshot()
	res.Converged = converged
	res.Updates = hist.Updates()
	res.Boundaries = tracker.Boundaries()
	res.StrictBoundaries = itLog.StrictBoundaries(n)
	if cfg.KeepRecords {
		res.Records = itLog.Records(workerOf)
	}
	res.Epochs = epochs.Boundaries()
	res.FinalResidual = operators.ResidualWith(cfg.Op, scratch.Op, res.X)
	return res, nil
}
