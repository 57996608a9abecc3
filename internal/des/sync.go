package des

import (
	"errors"

	"repro/internal/macroiter"
	"repro/internal/operators"
	"repro/internal/vec"
)

// SyncResult reports a barrier-synchronous simulated run (the baseline the
// paper's asynchronous methods are compared against).
type SyncResult struct {
	// Time is the virtual time consumed.
	Time float64
	// Rounds is the number of barrier rounds executed.
	Rounds int
	// Converged reports whether Tol was reached.
	Converged bool
	// FinalError is ||x - x*||_inf at stop.
	FinalError float64
	// X is the final iterate.
	X []float64
	// IdleTime[w] accumulates the barrier wait of worker w: the difference
	// between the round critical path and the worker's own compute time —
	// exactly the synchronization penalty asynchronous iterations remove.
	IdleTime []float64
	// ComputeTime[w] accumulates pure compute time per worker.
	ComputeTime []float64
	// ErrorTrace samples (time, error) per round.
	ErrorTrace []TimedError
	// Records allows macro-iteration analysis (every round is one
	// macro-iteration: all components, fresh labels).
	Records []macroiter.Record
	// Cancelled reports that Config.Done fired before the run converged or
	// exhausted its budgets.
	Cancelled bool
}

// RunSync executes the barrier-synchronous Jacobi baseline under the same
// cost/latency models as the asynchronous engine: in each round every
// worker relaxes its block from the previous round's full iterate, then all
// values are exchanged; the round lasts max_w cost + max link latency, and
// faster workers idle at the barrier.
func RunSync(cfg Config) (*SyncResult, error) {
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
	p := len(blocks)
	res := &SyncResult{
		IdleTime:    make([]float64, p),
		ComputeTime: make([]float64, p),
		X:           vec.Clone(x0),
	}
	x := vec.Clone(x0)
	next := make([]float64, n)
	allComps := make([]int, n)
	for i := range allComps {
		allComps[i] = i
	}
	// Per-worker scratches, as in the asynchronous engine (the barrier
	// baseline must not carry an allocation tax the async side has shed, or
	// every sync-vs-async comparison would be skewed).
	scrs := make([]*operators.Scratch, p)
	for w := range scrs {
		scrs[w] = operators.WorkerScratch(cfg.Scratches, w, cfg.Tuning)
	}
	costs := make([]float64, p)

	maxRounds := cfg.MaxUpdates / p
	if maxRounds < 1 {
		maxRounds = 1
	}
	for r := 1; r <= maxRounds; r++ {
		if cfg.Done != nil {
			select {
			case <-cfg.Done:
				res.Cancelled = true
			default:
			}
			if res.Cancelled {
				break
			}
		}
		// Compute phase: every worker relaxes its block from x(r-1).
		maxCost := 0.0
		for w, b := range blocks {
			c := cfg.Cost(w, r)
			if c <= 0 {
				c = 1e-9
			}
			costs[w] = c
			if c > maxCost {
				maxCost = c
			}
			operators.EvalBlock(cfg.Op, scrs[w], b[0], b[1], x, next[b[0]:b[1]])
			if bad := vec.FirstNaN(next[b[0]:b[1]]); bad >= 0 {
				return nil, &operators.DivergedError{Worker: w, Phase: r, Component: b[0] + bad}
			}
		}
		// Exchange phase: all-to-all; the barrier completes when the
		// slowest message lands.
		maxLat := 0.0
		for from := 0; from < p; from++ {
			for to := 0; to < p; to++ {
				if from == to {
					continue
				}
				if l := cfg.Latency(from, to, rng); l > maxLat {
					maxLat = l
				}
			}
		}
		roundTime := maxCost + maxLat
		res.Time += roundTime
		for w := 0; w < p; w++ {
			res.ComputeTime[w] += costs[w]
			res.IdleTime[w] += roundTime - costs[w]
		}
		copy(x, next)
		res.Rounds = r
		if cfg.Progress != nil {
			cfg.Progress.Add(int64(p))
		}
		res.Records = append(res.Records, macroiter.Record{
			J: r, S: allComps, MinLabel: r - 1, Worker: 0,
		})
		if cfg.XStar != nil {
			err := vec.DistInf(x, cfg.XStar)
			res.ErrorTrace = append(res.ErrorTrace, TimedError{Time: res.Time, Error: err})
			if cfg.Tol > 0 && err <= cfg.Tol {
				res.Converged = true
				break
			}
		}
		if cfg.MaxTime > 0 && res.Time >= cfg.MaxTime {
			break
		}
	}
	copy(res.X, x)
	if cfg.XStar != nil {
		res.FinalError = vec.DistInf(x, cfg.XStar)
	}
	return res, nil
}
