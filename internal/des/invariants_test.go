package des

import (
	"testing"

	"repro/internal/macroiter"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// Invariant battery: run the simulator across a grid of configurations and
// assert structural properties that must hold regardless of parameters.
func TestSimulatorInvariants(t *testing.T) {
	op, xstar := contractingOp(t, 12, 30)
	rng := vec.NewRNG(31)
	for trial := 0; trial < 12; trial++ {
		workers := 1 + rng.Intn(6)
		drop := 0.4 * rng.Float64()
		cfg := Config{
			Config:   runtime.Config{Op: op, Workers: workers, X0: x0For(xstar), MaxUpdatesPerWorker: (400 + rng.Intn(400)) / workers},
			XStar:    xstar,
			Cost:     UniformCost(0.5 + rng.Float64()),
			Latency:  JitterLatency(0.05, 2*rng.Float64()),
			DropProb: drop,
			Seed:     rng.Uint64(),
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Records have strictly increasing J starting at 1.
		for k, r := range res.Records {
			if r.J != k+1 {
				t.Fatalf("trial %d: record %d has J=%d", trial, k, r.J)
			}
			if r.MinLabel < 0 || r.MinLabel >= r.J {
				t.Fatalf("trial %d: record %d label %d outside [0,%d)", trial, k, r.MinLabel, r.J)
			}
			if r.Worker < 0 || r.Worker >= workers {
				t.Fatalf("trial %d: record %d worker %d", trial, k, r.Worker)
			}
		}
		// Per-worker updates sum to total.
		sum := 0
		for _, u := range res.UpdatesPerWorker {
			sum += u
		}
		if sum != len(res.Records) {
			t.Fatalf("trial %d: perWorker sum %d, records %d", trial, sum, len(res.Records))
		}
		// Message accounting: dropped <= sent; stale <= sent.
		if res.MessagesDropped > res.MessagesSent || res.MessagesStale > res.MessagesSent {
			t.Fatalf("trial %d: message counts inconsistent: %+v", trial, res)
		}
		if drop == 0 && res.MessagesDropped != 0 {
			t.Fatalf("trial %d: drops without drop probability", trial)
		}
		// Error trace timestamps nondecreasing.
		for k := 1; k < len(res.ErrorTrace); k++ {
			if res.ErrorTrace[k].Time < res.ErrorTrace[k-1].Time {
				t.Fatalf("trial %d: error trace time regressed", trial)
			}
		}
		// Boundaries strictly increasing and within run length.
		checkBoundaries := func(name string, bs []int) {
			prev := 0
			for _, b := range bs {
				if b <= prev || b > len(res.Records) {
					t.Fatalf("trial %d: %s boundary %d invalid (prev %d, updates %d)",
						trial, name, b, prev, len(res.Records))
				}
				prev = b
			}
		}
		checkBoundaries("def2", res.Boundaries)
		checkBoundaries("strict", res.StrictBoundaries)
		checkBoundaries("epoch", res.Epochs)
		// Strict windows never admit pre-previous-window reads.
		if v := macroiter.EpochStaleness(res.StrictBoundaries, res.Records); v != 0 {
			t.Fatalf("trial %d: strict staleness %d", trial, v)
		}
	}
}

// The synchronous driver obeys the same structural rules.
func TestSyncInvariants(t *testing.T) {
	op, xstar := contractingOp(t, 8, 32)
	res, err := RunSync(Config{
		Config:  runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 100000, PerWorker: true},
		XStar:   xstar,
		Cost:    HeterogeneousCost([]float64{1, 2, 1, 3}),
		Latency: FixedLatency(0.25),
		Seed:    33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Compute + idle (the barrier wait: Publish, or Parked for a parked
	// worker) must equal the rounds' critical path per worker.
	for w, st := range res.PerWorker {
		if total := st.Compute + st.Publish + st.Parked; total != virtual(res.Time) || st.Elapsed != total {
			t.Errorf("worker %d: compute+idle %v, elapsed %v != total %v", w, total, st.Elapsed, res.Time)
		}
	}
	// Every round is one macro-iteration with fresh labels.
	if len(res.Records) != res.Rounds {
		t.Errorf("records %d != rounds %d", len(res.Records), res.Rounds)
	}
	bs := macroiter.Boundaries(op.Dim(), res.Records)
	if len(bs) != res.Rounds {
		t.Errorf("macro boundaries %d != rounds %d", len(bs), res.Rounds)
	}
}

// Determinism across the full configuration surface: identical configs give
// identical results, including with flexible schedules and topologies.
func TestFullConfigDeterminism(t *testing.T) {
	op, xstar := contractingOp(t, 10, 34)
	cfg := Config{
		Config:    runtime.Config{Op: op, Workers: 5, X0: x0For(xstar), Tol: 1e-7, MaxUpdatesPerWorker: 400000},
		XStar:     xstar,
		Cost:      HeterogeneousCost([]float64{1, 2, 0.5, 1.5, 1}),
		Latency:   JitterLatency(0.1, 1.0),
		DropProb:  0.15,
		Seed:      35,
		Neighbors: ChainNeighbors(5),
	}
	// Chain topology on a dense operator will not converge to tolerance
	// (non-neighbours never exchange); bound the run by updates instead.
	cfg.Tol = 0
	cfg.XStar = nil
	cfg.MaxUpdatesPerWorker = 120
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.MessagesSent != b.MessagesSent ||
		a.MessagesDropped != b.MessagesDropped || len(a.Records) != len(b.Records) {
		t.Error("identical configurations diverged")
	}
	if !vec.Equal(a.X, b.X, 0) {
		t.Error("final iterates differ")
	}
}

// exactlyQuiescent is the scheduler's own view of quiescence: no message in
// flight, and every worker parked in Wait with no delivery waking it, or
// out of budget, which leaves it parked whatever arrives.
func exactlyQuiescent(s *sim) bool {
	woken := make([]bool, len(s.ports))
	for _, e := range s.h {
		switch e.kind {
		case evDeliver:
			return false
		case evWake:
			woken[e.w] = true
		}
	}
	for w := range s.ports {
		p := &s.ports[w]
		if !p.waiting && !(woken[w] && p.k >= s.cfg.MaxUpdatesPerWorker) {
			return false
		}
	}
	return true
}

// TestTrackerMatchesScheduler checks the termination protocol on the
// production Tracker at phase granularity: after every event of the
// asynchronous schedule, the double collect certifies quiescence exactly
// when the scheduler's exact view does, over random machines with loss,
// reordering, stale application, restricted topologies and budgets small
// enough that workers run out of them while others go passive.
func TestTrackerMatchesScheduler(t *testing.T) {
	op, xstar := contractingOp(t, 12, 60)
	rng := vec.NewRNG(61)
	tols := []float64{1e-3, 1e-6, 1e-9}
	for trial := 0; trial < 40; trial++ {
		workers := 1 + rng.Intn(6)
		cfg := Config{
			Config:     runtime.Config{Op: op, Workers: workers, X0: x0For(xstar), Tol: tols[rng.Intn(len(tols))]},
			Cost:       UniformCost(0.5 + rng.Float64()),
			Latency:    JitterLatency(0.05, 3*rng.Float64()),
			DropProb:   0.4 * rng.Float64(),
			ApplyStale: rng.Intn(2) == 0,
			Seed:       rng.Uint64(),
		}
		if rng.Intn(2) == 0 {
			cfg.MaxUpdatesPerWorker = 5 + rng.Intn(40)
		}
		if rng.Intn(4) == 0 {
			cfg.Neighbors = ChainNeighbors(workers)
		}
		s, err := newSim(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		s.onEvent = func() {
			if got, want := s.q.Quiescent(), exactlyQuiescent(s); got != want {
				t.Fatalf("trial %d, event %d at t=%v: Tracker quiescent %v, scheduler %v", trial, events, s.now, got, want)
			}
			events++
		}
		_, err = s.run()
		if err != nil {
			t.Fatal(err)
		}
		if !s.q.Quiescent() {
			t.Fatalf("trial %d: run ended at t=%v before quiescence", trial, s.now)
		}
		s.close()
	}
}
