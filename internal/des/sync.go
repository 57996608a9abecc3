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
	// Converged reports that the run ended in a round where every worker
	// was passive.
	Converged bool
	// FinalError is ||x - x*||_inf at stop (when XStar given).
	FinalError float64
	// X is the final iterate.
	X []float64
	// IdleTime[w] accumulates the barrier wait of worker w: the difference
	// between the round critical path and the worker's own compute time —
	// exactly the synchronization penalty asynchronous iterations remove.
	IdleTime []float64
	// ComputeTime[w] accumulates pure compute time per worker.
	ComputeTime []float64
	// ErrorTrace samples (time, error) per round (XStar given).
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
// in each round every active worker relaxes its block from the previous
// round's full iterate, then all values are exchanged; the round lasts
// max_w cost + max link latency, and faster workers idle at the barrier. A
// parked worker re-verifies its block against each round's iterate and
// costs nothing in a round it stays parked; the run ends, not counted, in
// the round where every worker is parked, converged when every worker was
// passive.
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

	for r := 1; ; r++ {
		if s.cancelled() {
			res.Cancelled = true
			break
		}
		// Compute phase: every worker's loop relaxes its block from x(r-1)
		// or, parked, re-verifies it.
		for w := range s.ports {
			if err := s.resume(w); err != nil {
				return nil, err
			}
		}
		if s.q.Quiescent() {
			break
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
		res.Records = append(res.Records, macroiter.Record{
			J: r, S: allComps, MinLabel: r - 1, Worker: 0,
		})
		if s.cfg.XStar != nil {
			res.ErrorTrace = append(res.ErrorTrace, TimedError{Time: res.Time, Error: vec.DistInf(s.x, s.cfg.XStar)})
		}
		if s.cfg.MaxTime > 0 && res.Time >= s.cfg.MaxTime {
			break
		}
	}
	res.X, res.Converged = s.x, s.converged()
	if s.cfg.XStar != nil {
		res.FinalError = vec.DistInf(s.x, s.cfg.XStar)
	}
	return res, nil
}
