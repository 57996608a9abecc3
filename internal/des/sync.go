package des

import (
	"repro/internal/macroiter"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// SyncResult reports a barrier-synchronous simulated run (the baseline the
// paper's asynchronous methods are compared against): the worker loop's
// runtime.Result, whose UpdatesPerWorker counts the phases each worker ran
// (Elapsed stays zero: the clock is Time), and what only the barrier
// schedule has.
type SyncResult struct {
	runtime.Result
	// Time is the virtual time consumed.
	Time float64
	// Rounds is the number of barrier rounds executed.
	Rounds int
	// FinalError is ||x - x*||_inf at stop (when XStar given).
	FinalError float64
	// ErrorTrace samples (time, error) per round (XStar given).
	ErrorTrace []TimedError
	// Records allows macro-iteration analysis (every round is one
	// macro-iteration: all components, fresh labels).
	Records []macroiter.Record
}

// RunSync executes the barrier-synchronous Jacobi baseline under the same
// cost/latency models and the same worker loop as the asynchronous engine:
// in each round every active worker relaxes its block from the previous
// round's full iterate, then all values are exchanged; the round lasts
// max_w cost + max link latency, and faster workers idle at the barrier. A
// parked worker re-verifies its block against each round's iterate and
// costs nothing in a round it stays parked; the run ends, not counted, in
// the round where every worker is parked, converged when every worker was
// passive. A worker's time split (PerWorker) has its phase costs as
// Compute and its barrier wait as Publish, or as Parked in a round it sat
// out.
func RunSync(cfg Config) (*SyncResult, error) {
	s, err := newSim(cfg, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	p := len(s.ports)
	res := &SyncResult{}

	for r := 1; ; r++ {
		if s.cancelled() {
			res.Cancelled = true
			break
		}
		// Compute phase: every worker's loop relaxes its block from x(r-1)
		// or, parked, re-verifies it.
		s.maxCost = 0
		for w := range s.ports {
			if err := s.resume(w); err != nil {
				return nil, err
			}
		}
		if s.q.Quiescent() {
			break
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
		s.now += s.maxCost + maxLat
		copy(s.x, s.round)
		res.Rounds = r
		res.Records = append(res.Records, macroiter.Record{
			J: r, S: s.comps, MinLabel: r - 1, Worker: 0,
		})
		if s.cfg.XStar != nil {
			res.ErrorTrace = append(res.ErrorTrace, TimedError{Time: s.now, Error: vec.DistInf(s.x, s.cfg.XStar)})
		}
		if s.cfg.MaxTime > 0 && s.now >= s.cfg.MaxTime {
			break
		}
	}
	res.Time = s.now
	s.finish(&res.Result)
	for w := range s.workers {
		res.UpdatesPerWorker = append(res.UpdatesPerWorker, s.workers[w].Updates)
	}
	if s.cfg.XStar != nil {
		res.FinalError = vec.DistInf(s.x, s.cfg.XStar)
	}
	return res, nil
}
