package repro_test

// Tests of the unified Solve API: the cross-engine parity guarantee (one
// spec, six engines, one fixed point), the scenario registry, and the
// option/report plumbing.

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// lassoSpec builds the parity workload: a 16-feature lasso problem whose
// backward-forward operator contracts in the max norm, plus its reference
// fixed point.
func lassoSpec(t testing.TB) (repro.Spec, []float64) {
	t.Helper()
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N: 16, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := reg.Smooth()
	op := repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f))
	xstar, ok := repro.FixedPoint(op, make([]float64, f.Dim()), 1e-13, 500000)
	if !ok {
		t.Fatal("reference solve failed")
	}
	return repro.NewSpec(op, repro.WithXStar(xstar)), xstar
}

// TestSolveEngineParity is the acceptance test of the unified API: the same
// lasso spec solved on all six backends reaches the same fixed point.
func TestSolveEngineParity(t *testing.T) {
	spec, xstar := lassoSpec(t)
	for _, engine := range repro.Engines() {
		engine := engine
		t.Run(engine.Name(), func(t *testing.T) {
			res, err := repro.Solve(spec,
				repro.WithEngine(engine),
				repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}),
				repro.WithWorkers(4),
				repro.WithSeed(3),
				repro.WithTol(1e-9),
				repro.WithMaxIter(2000000),
				repro.WithMaxUpdates(2000000),
			)
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine != engine.Name() {
				t.Errorf("Report.Engine = %q, want %q", res.Engine, engine.Name())
			}
			if !res.Converged {
				t.Fatalf("engine %s did not converge", engine.Name())
			}
			if e := repro.DistInf(res.X, xstar); e > 1e-6 {
				t.Errorf("engine %s fixed point off by %v", engine.Name(), e)
			}
			if res.FinalError > 1e-6 {
				t.Errorf("engine %s FinalError = %v", engine.Name(), res.FinalError)
			}
			if res.Updates == 0 {
				t.Errorf("engine %s reported no updates", engine.Name())
			}
		})
	}
}

// TestSolveEngineDetail checks the typed per-engine accessors are populated
// exactly for the engine that ran.
func TestSolveEngineDetail(t *testing.T) {
	spec, _ := lassoSpec(t)
	res, err := repro.Solve(spec, repro.WithTol(1e-9), repro.WithMaxIter(200000))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.ModelDetail(); !ok {
		t.Error("model run lacks ModelDetail")
	}
	if _, ok := res.SimDetail(); ok {
		t.Error("model run unexpectedly has SimDetail")
	}

	res, err = repro.Solve(spec, repro.WithEngine(repro.EngineSim),
		repro.WithTol(1e-9), repro.WithMaxUpdates(200000))
	if err != nil {
		t.Fatal(err)
	}
	sim, ok := res.SimDetail()
	if !ok || sim.Updates != res.Updates {
		t.Error("sim detail missing or inconsistent")
	}

	res, err = repro.Solve(spec, repro.WithEngine(repro.EngineSimSync),
		repro.WithTol(1e-9), repro.WithMaxUpdates(200000))
	if err != nil {
		t.Fatal(err)
	}
	sync, ok := res.SimSyncDetail()
	if !ok || len(sync.IdleTime) == 0 {
		t.Error("simsync detail missing idle-time accounting")
	}

	res, err = repro.Solve(spec, repro.WithEngine(repro.EngineShared),
		repro.WithTol(1e-9), repro.WithMaxUpdatesPerWorker(1<<18))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.ConcurrentDetail(); !ok {
		t.Error("shared run lacks ConcurrentDetail")
	}
}

// TestSolveValidation covers the entry-point error paths.
func TestSolveValidation(t *testing.T) {
	if _, err := repro.Solve(repro.Spec{}); err == nil {
		t.Error("expected error for missing operator")
	}
	if _, err := repro.EngineByName("quantum"); err == nil {
		t.Error("expected error for unknown engine")
	}
	for _, name := range []string{"model", "sim", "simsync", "shared", "message", "dist"} {
		e, err := repro.EngineByName(name)
		if err != nil {
			t.Errorf("EngineByName(%q): %v", name, err)
		} else if e.Name() != name {
			t.Errorf("EngineByName(%q).Name() = %q", name, e.Name())
		}
	}
}

// nanFrom halves its component until its good-th evaluation and returns NaN
// from then on.
type nanFrom struct {
	good  int64
	calls atomic.Int64
}

func (*nanFrom) Dim() int     { return 8 }
func (*nanFrom) Name() string { return "nanFrom" }

func (o *nanFrom) Component(i int, x []float64) float64 {
	if o.calls.Add(1) > o.good {
		return math.NaN()
	}
	return 0.5 * x[i]
}

// TestEveryEngineStopsOnNaN: an operator that produces NaN used to be
// certified converged on every engine (no max-norm distance sees a NaN:
// Converged = true with X[0] = NaN). Every engine now tests the block it
// evaluated before installing it and stops with ErrDiverged, never a Report
// — from the first evaluation or from one mid-run, on both dist topologies,
// with and without heartbeats (the diverged worker must not be evicted and
// its NaN re-sharded onto the survivors) — and +Inf stays legal.
func TestEveryEngineStopsOnNaN(t *testing.T) {
	elastic := repro.WithElastic(repro.Elastic{HeartbeatEvery: 20 * time.Millisecond})
	engines := []struct {
		name string
		opts []repro.Option
		// midRun is the error text of the deterministic engines when the
		// 12th evaluation is the first NaN; "" where scheduling decides.
		midRun string
	}{
		// Error-based stopping makes no residual evaluations, so evaluation
		// k is iteration k of the cyclic sweep: the 12th relaxes component 3.
		{"model", []repro.Option{repro.WithEngine(repro.EngineModel)}, "component 3 at iteration 12"},
		// Two workers of four components: evaluations 9-12 are worker 0's
		// second phase.
		{"sim", []repro.Option{repro.WithEngine(repro.EngineSim)}, "worker 0, phase 2, component 3"},
		{"simsync", []repro.Option{repro.WithEngine(repro.EngineSimSync)}, "worker 0, phase 2, component 3"},
		{"shared", []repro.Option{repro.WithEngine(repro.EngineShared)}, ""},
		{"message", []repro.Option{repro.WithEngine(repro.EngineMessage)}, ""},
		{"dist-star", []repro.Option{repro.WithEngine(repro.EngineDist)}, ""},
		{"dist-mesh", []repro.Option{repro.WithEngine(repro.EngineDist), repro.WithTopology("mesh")}, ""},
		{"dist-star-elastic", []repro.Option{repro.WithEngine(repro.EngineDist), elastic}, ""},
		{"dist-mesh-elastic", []repro.Option{repro.WithEngine(repro.EngineDist), repro.WithTopology("mesh"), elastic}, ""},
	}
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	inst, err := repro.BuildScenario("routing", 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(inst.Spec.X0[len(inst.Spec.X0)-1], 1) {
		t.Fatal("routing no longer starts from +Inf; pick another witness")
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			opts := append([]repro.Option{repro.WithWorkers(2), repro.WithX0(ones),
				repro.WithXStar(make([]float64, 8)), repro.WithTol(1e-8)}, eng.opts...)
			rep, err := repro.Solve(repro.NewSpec(&nanFrom{}), opts...)
			if !errors.Is(err, repro.ErrDiverged) || rep != nil {
				t.Fatalf("NaN operator: report %v, err %v, want ErrDiverged", rep, err)
			}
			rep, err = repro.Solve(repro.NewSpec(&nanFrom{good: 11}), opts...)
			if !errors.Is(err, repro.ErrDiverged) || rep != nil || !strings.Contains(err.Error(), eng.midRun) {
				t.Fatalf("NaN from the 12th evaluation: report %v, err %v, want ErrDiverged naming %q", rep, err, eng.midRun)
			}
			if !strings.Contains(err.Error(), "component ") {
				t.Errorf("err %v does not name the bad component", err)
			}
			rep, err = repro.Solve(inst.Spec, append([]repro.Option{repro.WithWorkers(2)}, eng.opts...)...)
			if err != nil || !rep.Converged || repro.DistInf(rep.X, inst.Spec.XStar) > inst.Spec.Tol {
				t.Fatalf("routing from +Inf: err %v, report %+v", err, rep)
			}
		})
	}
}

// TestOneFinalResidualPerSolve counts operator evaluations on the
// deterministic engines: from x0 = x* = 0 the halving map converges at its
// first error check with an exactly zero residual, which used to read as
// "not computed yet" and be evaluated a second time.
func TestOneFinalResidualPerSolve(t *testing.T) {
	for _, tc := range []struct {
		engine repro.Engine
		solve  int64 // evaluations before the run stops
	}{
		{repro.EngineModel, 1},   // iteration 1 relaxes one component
		{repro.EngineSim, 8},     // both workers' first phases are under way at the first completion
		{repro.EngineSimSync, 8}, // one round
	} {
		for _, scr := range []*repro.Scratch{nil, repro.NewScratch()} {
			op := &nanFrom{good: math.MaxInt64}
			rep, err := repro.Solve(repro.NewSpec(op), repro.WithEngine(tc.engine), repro.WithWorkers(2),
				repro.WithXStar(make([]float64, 8)), repro.WithTol(1e-8), repro.WithScratch(scr))
			if err != nil || !rep.Converged || rep.FinalResidual != 0 {
				t.Fatalf("%s: err %v, report %+v", tc.engine.Name(), err, rep)
			}
			if got, want := op.calls.Load(), tc.solve+8; got != want {
				t.Errorf("%s (scratch %v): %d evaluations, want %d: the solve's %d and one residual of 8",
					tc.engine.Name(), scr != nil, got, want, tc.solve)
			}
		}
	}
}

// TestScenariosBuildAndSolve is the registry acceptance test: every
// registered scenario builds at a small size and solves to convergence
// through the unified entry point.
func TestScenariosBuildAndSolve(t *testing.T) {
	sizes := map[string]int{
		"lasso":     16,
		"ridge":     16,
		"logistic":  8,
		"netflow":   4,
		"obstacle":  8,
		"routing":   32,
		"multigrid": 7,
	}
	scenarios := repro.Scenarios()
	if len(scenarios) < 7 {
		t.Fatalf("expected at least 7 built-in scenarios, got %d", len(scenarios))
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			n, ok := sizes[sc.Name]
			if !ok {
				n = sc.DefaultN
			}
			inst, err := repro.BuildScenario(sc.Name, n, 7)
			if err != nil {
				t.Fatal(err)
			}
			res, err := repro.Solve(inst.Spec,
				repro.WithDelay(repro.BoundedRandomDelay{B: 4, Seed: 8}))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("scenario %s did not converge (%d iterations, residual %.3g)",
					sc.Name, res.Iterations, res.FinalResidual)
			}
			if inst.Describe != nil && inst.Describe(res.X) == "" {
				t.Errorf("scenario %s Describe returned nothing", sc.Name)
			}
		})
	}
}

// TestDistScenarioParity is the distributed acceptance test: every
// registered scenario converges on the dist engine over localhost TCP, on
// BOTH topologies (star relay and worker-to-worker mesh), with multi-
// component shards (Workers < n wherever the scenario allows), both on
// clean links and with drop + reorder + delay injection enabled under the
// same seeds — each run reaching the same fixed point the in-process
// message engine reaches.
func TestDistScenarioParity(t *testing.T) {
	sizes := map[string]int{
		"lasso":     16,
		"ridge":     16,
		"logistic":  8,
		"netflow":   4,
		"obstacle":  8,
		"routing":   32,
		"multigrid": 7,
	}
	for _, sc := range repro.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			n, ok := sizes[sc.Name]
			if !ok {
				n = sc.DefaultN
			}
			inst, err := repro.BuildScenario(sc.Name, n, 7)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := repro.Solve(inst.Spec,
				repro.WithEngine(repro.EngineMessage), repro.WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			if !ref.Converged {
				t.Fatalf("message reference for %s did not converge", sc.Name)
			}
			for _, topology := range []string{"star", "mesh"} {
				for _, faulty := range []bool{false, true} {
					opts := []repro.Option{
						repro.WithEngine(repro.EngineDist),
						repro.WithTopology(topology),
						repro.WithWorkers(4),
						repro.WithSeed(9),
					}
					label := topology + "/clean"
					if faulty {
						label = topology + "/faulty"
						opts = append(opts,
							repro.WithFaults(repro.Faults{DropProb: 0.05, ReorderProb: 0.25, MaxLinkDelay: 100 * time.Microsecond}),
						)
					}
					res, err := repro.Solve(inst.Spec, opts...)
					if err != nil {
						t.Fatalf("%s links: %v", label, err)
					}
					if !res.Converged {
						t.Fatalf("dist (%s links) did not converge on %s", label, sc.Name)
					}
					// Both engines stop on the same per-block displacement
					// tolerance; for a contraction both iterates are within
					// O(tol/(1-alpha)) of the fixed point, so compare with
					// generous slack relative to the scenario tolerances.
					if e := repro.DistInf(res.X, ref.X); e > 1e-5 {
						t.Errorf("dist (%s links) deviates from message engine by %v on %s",
							label, e, sc.Name)
					}
					if faulty && res.MessagesSent == 0 {
						t.Errorf("dist (%s links) reported no TCP traffic", label)
					}
					detail, ok := res.DistDetail()
					if !ok {
						t.Fatalf("dist (%s links) lacks DistDetail", label)
					}
					if detail.Topology != topology {
						t.Errorf("DistDetail.Topology = %q, want %q", detail.Topology, topology)
					}
				}
			}
		})
	}
}

// TestDistDeltaThresholdParity runs the flexible-communication knob through
// the public API: a delta threshold at the scenario tolerance must still
// reach the message engine's fixed point on both topologies.
func TestDistDeltaThresholdParity(t *testing.T) {
	inst, err := repro.BuildScenario("lasso", 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := repro.Solve(inst.Spec,
		repro.WithEngine(repro.EngineMessage), repro.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, topology := range []string{"star", "mesh"} {
		res, err := repro.Solve(inst.Spec,
			repro.WithEngine(repro.EngineDist),
			repro.WithTopology(topology),
			repro.WithWorkers(4),
			repro.WithDeltaThreshold(inst.Spec.Tol),
			repro.WithFaults(repro.Faults{DropProb: 0.05, ReorderProb: 0.25}),
			repro.WithSeed(3),
		)
		if err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		if !res.Converged {
			t.Fatalf("%s delta-threshold run did not converge", topology)
		}
		if e := repro.DistInf(res.X, ref.X); e > 1e-5 {
			t.Errorf("%s delta-threshold run deviates by %v", topology, e)
		}
	}
}

// TestScenarioRegistryValidation covers registration and lookup errors.
func TestScenarioRegistryValidation(t *testing.T) {
	if err := repro.RegisterScenario(repro.Scenario{}); err == nil {
		t.Error("expected error for unnamed scenario")
	}
	if err := repro.RegisterScenario(repro.Scenario{Name: "lasso"}); err == nil {
		t.Error("expected error for nil builder")
	}
	if err := repro.RegisterScenario(repro.Scenario{
		Name:  "lasso",
		Build: func(n int, seed uint64, t repro.Tuning) (*repro.ScenarioInstance, error) { return nil, nil },
	}); err == nil {
		t.Error("expected error for duplicate scenario")
	}
	// The unknown-scenario error doubles as the discovery surface (it is
	// the serve endpoint's 400 body), so it must list every registered name.
	_, err := repro.BuildScenario("no-such-scenario", 8, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("expected unknown-scenario error, got %v", err)
	}
	for _, s := range repro.Scenarios() {
		if !strings.Contains(err.Error(), s.Name) {
			t.Errorf("unknown-scenario error does not list registered scenario %q: %v", s.Name, err)
		}
	}
}

// TestParseDelay covers the CLI delay-model syntax.
func TestParseDelay(t *testing.T) {
	cases := []struct {
		in   string
		name string
	}{
		{"fresh", "fresh"},
		{"constant:3", "constant(3)"},
		{"bounded", "boundedRandom(B=8)"},
		{"bounded:4", "boundedRandom(B=4)"},
		{"sqrt", "sqrtGrowth"},
		{"log", "logGrowth"},
		{"ooo:32", "outOfOrder(W=32)"},
	}
	for _, c := range cases {
		m, err := repro.ParseDelay(c.in, 1)
		if err != nil {
			t.Errorf("ParseDelay(%q): %v", c.in, err)
			continue
		}
		if m.Name() != c.name {
			t.Errorf("ParseDelay(%q).Name() = %q, want %q", c.in, m.Name(), c.name)
		}
	}
	// Degenerate parameters are rejected: a zero parameter would silently
	// behave like the fresh model, and the parameterless models take none.
	for _, bad := range []string{"", "warp", "bounded:x", "bounded:-1",
		"constant:0", "bounded:0", "ooo:0", "constant:-3",
		"fresh:1", "sqrt:2", "log:2"} {
		if _, err := repro.ParseDelay(bad, 1); err == nil {
			t.Errorf("ParseDelay(%q) should fail", bad)
		}
	}
}

// FuzzParseDelay: the delay-model parser never panics, and whatever it
// accepts is an admissible model — condition a), 0 <= l_i(j) <= j-1, holds at
// the first iterations and far out, however large the parameter.
func FuzzParseDelay(f *testing.F) {
	for _, seed := range []string{"fresh", "constant:3", "bounded", "bounded:4", "sqrt", "log", "ooo:32",
		"", "warp", "bounded:x", "constant:0", "fresh:1", "bounded:8:3", "ooo:+7",
		"constant:9223372036854775807", "bounded:9223372036854775807", "ooo:9223372036854775808"} {
		f.Add(seed, uint64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		m, err := repro.ParseDelay(spec, seed)
		if err != nil {
			return
		}
		for _, j := range []int{1, 2, 3, 17, 1 << 20, 1 << 30} {
			for _, i := range []int{0, 5} {
				if l := m.Label(i, j); l < 0 || l > j-1 {
					t.Fatalf("ParseDelay(%q, %d): %s.Label(%d, %d) = %d outside [0, %d]", spec, seed, m.Name(), i, j, l, j-1)
				}
			}
		}
	})
}

// TestSolveAutoReference checks that the simulated engines compute a
// synchronous reference when Tol is set without XStar.
func TestSolveAutoReference(t *testing.T) {
	spec, xstar := lassoSpec(t)
	spec.XStar = nil
	res, err := repro.Solve(spec, repro.WithEngine(repro.EngineSim),
		repro.WithTol(1e-9), repro.WithMaxUpdates(500000), repro.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("auto-reference sim run did not converge")
	}
	if e := repro.DistInf(res.X, xstar); e > 1e-6 {
		t.Errorf("auto-reference solution off by %v", e)
	}
}
