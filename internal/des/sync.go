package des

import (
	"repro/internal/macroiter"
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
// cost/latency models and the same worker loop as the asynchronous engine:
// in each round every worker relaxes its block from the previous round's
// full iterate, then all values are exchanged; the round lasts max_w cost
// + max link latency, and faster workers idle at the barrier.
func RunSync(cfg Config) (*SyncResult, error) {
	s, err := newSim(cfg, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	n, p := len(s.x), len(s.ports)
	res := &SyncResult{
		IdleTime:    make([]float64, p),
		ComputeTime: make([]float64, p),
	}
	allComps := make([]int, n)
	for i := range allComps {
		allComps[i] = i
	}

	maxRounds := max(s.cfg.MaxUpdates/p, 1)
	for r := 1; r <= maxRounds; r++ {
		if s.cancelled() {
			res.Cancelled = true
			break
		}
		// Compute phase: every worker's loop relaxes its block from x(r-1).
		for w := range s.ports {
			if err := s.resume(w); err != nil {
				return nil, err
			}
		}
		maxCost := 0.0
		for _, c := range s.costs {
			maxCost = max(maxCost, c)
		}
		// Exchange phase: all-to-all; the barrier completes when the
		// slowest message lands.
		maxLat := 0.0
		for from := 0; from < p; from++ {
			for to := 0; to < p; to++ {
				if from == to {
					continue
				}
				if l := s.cfg.Latency(from, to, s.rng); l > maxLat {
					maxLat = l
				}
			}
		}
		roundTime := maxCost + maxLat
		res.Time += roundTime
		for w, c := range s.costs {
			res.ComputeTime[w] += c
			res.IdleTime[w] += roundTime - c
		}
		copy(s.x, s.round)
		res.Rounds = r
		if s.cfg.Progress != nil {
			s.cfg.Progress.Add(int64(p))
		}
		res.Records = append(res.Records, macroiter.Record{
			J: r, S: allComps, MinLabel: r - 1, Worker: 0,
		})
		if s.cfg.XStar != nil {
			err := vec.DistInf(s.x, s.cfg.XStar)
			res.ErrorTrace = append(res.ErrorTrace, TimedError{Time: res.Time, Error: err})
			if s.cfg.Tol > 0 && err <= s.cfg.Tol {
				res.Converged = true
				break
			}
		}
		if s.cfg.MaxTime > 0 && res.Time >= s.cfg.MaxTime {
			break
		}
	}
	res.X = s.x
	if s.cfg.XStar != nil {
		res.FinalError = vec.DistInf(s.x, s.cfg.XStar)
	}
	return res, nil
}
