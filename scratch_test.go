package repro_test

// Tests of the Solve-level buffer-reuse option (WithScratch): reusing a
// Scratch across repeated solves must be invisible to results, on every
// engine, including the deterministic ones bit for bit.

import (
	"math"
	"runtime"
	"testing"

	"repro"
)

// TestWithScratchDeterministicEnginesBitIdentical solves the same spec
// three times with one shared Scratch and compares against a fresh solve;
// the deterministic engines (model, sim, simsync) must agree exactly.
func TestWithScratchDeterministicEnginesBitIdentical(t *testing.T) {
	spec, _ := lassoSpec(t)
	for _, engine := range []repro.Engine{repro.EngineModel, repro.EngineSim, repro.EngineSimSync} {
		engine := engine
		t.Run(engine.Name(), func(t *testing.T) {
			opts := func(extra ...repro.Option) []repro.Option {
				return append([]repro.Option{
					repro.WithEngine(engine),
					repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}),
					repro.WithWorkers(4),
					repro.WithSeed(3),
					repro.WithTol(1e-9),
					repro.WithMaxIter(2000000),
					repro.WithMaxUpdates(2000000),
				}, extra...)
			}
			fresh, err := repro.Solve(spec, opts()...)
			if err != nil {
				t.Fatal(err)
			}
			scr := repro.NewScratch()
			for run := 0; run < 3; run++ {
				res, err := repro.Solve(spec, opts(repro.WithScratch(scr))...)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("run %d did not converge", run)
				}
				if len(res.X) != len(fresh.X) {
					t.Fatalf("run %d: dim %d != %d", run, len(res.X), len(fresh.X))
				}
				for i := range res.X {
					if res.X[i] != fresh.X[i] {
						t.Fatalf("run %d: component %d differs with scratch: %v != %v",
							run, i, res.X[i], fresh.X[i])
					}
				}
				if res.Iterations != fresh.Iterations || res.Updates != fresh.Updates {
					t.Errorf("run %d: trajectory changed: iters %d/%d updates %d/%d",
						run, res.Iterations, fresh.Iterations, res.Updates, fresh.Updates)
				}
			}
		})
	}
}

// TestWithScratchGoroutineEnginesConverge checks the nondeterministic
// engines still reach the fixed point when a Scratch is reused across runs.
func TestWithScratchGoroutineEnginesConverge(t *testing.T) {
	spec, xstar := lassoSpec(t)
	for _, engine := range []repro.Engine{repro.EngineShared, repro.EngineMessage} {
		engine := engine
		t.Run(engine.Name(), func(t *testing.T) {
			scr := repro.NewScratch()
			for run := 0; run < 2; run++ {
				res, err := repro.Solve(spec,
					repro.WithEngine(engine),
					repro.WithWorkers(4),
					repro.WithTol(1e-9),
					repro.WithMaxUpdates(2000000),
					repro.WithScratch(scr),
				)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("run %d did not converge", run)
				}
				if e := repro.DistInf(res.X, xstar); e > 1e-6 {
					t.Errorf("run %d: fixed point off by %v", run, e)
				}
			}
		})
	}
}

// TestModelScratchHoldsTheHistory: through a warmed Scratch a model solve
// allocates its Report, not its history or its iteration log (3,131
// allocations at n=256 before the history moved into the Scratch; 49
// allocations and ~247 KiB at n=64 while every solve built its Records; the
// counts are deterministic on this engine), and the same Scratch then serves
// other dimensions, larger and smaller, bit for bit like a fresh solve.
func TestModelScratchHoldsTheHistory(t *testing.T) {
	solver := func(n int, scr *repro.Scratch) func() *repro.Report {
		inst, err := repro.BuildScenario("lasso", n, 5)
		if err != nil {
			t.Fatal(err)
		}
		return func() *repro.Report {
			rep, err := repro.Solve(inst.Spec, repro.WithEngine(repro.EngineModel),
				repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 6}), repro.WithScratch(scr))
			if err != nil || !rep.Converged {
				t.Fatalf("lasso n=%d: err %v, report %+v", n, err, rep)
			}
			return rep
		}
	}
	scr := repro.NewScratch()
	warmed := solver(64, scr)
	warmed()
	if allocs := testing.AllocsPerRun(5, func() { warmed() }); allocs > 40 {
		t.Errorf("warmed model solve of lasso n=64 makes %v allocations, want <= 40", allocs)
	}
	// Bytes, the least of a few solves so a stray goroutine cannot fail it:
	// ~5.6 KiB measured, and a per-iteration log of this solve is ~40x that.
	least := uint64(math.MaxUint64)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		warmed()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 12<<10 {
		t.Errorf("warmed model solve of lasso n=64 allocates %d bytes, want <= %d", least, 12<<10)
	}
	for _, n := range []int{96, 24, 64} {
		got, want := solver(n, scr)(), solver(n, nil)()
		if got.Iterations != want.Iterations || got.Updates != want.Updates {
			t.Fatalf("n=%d after other dimensions: %d iterations / %d updates, fresh solve %d / %d",
				n, got.Iterations, got.Updates, want.Iterations, want.Updates)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("n=%d after other dimensions: X[%d] = %v, fresh solve %v", n, i, got.X[i], want.X[i])
			}
		}
	}
}

// lassoOf is lassoSpec's lasso at dimension n, with its fixed point.
func lassoOf(t testing.TB, n int) (repro.Spec, []float64) {
	t.Helper()
	reg, err := repro.NewRegression(repro.RegressionConfig{N: n, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := reg.Smooth()
	op := repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f))
	xstar, ok := repro.FixedPoint(op, make([]float64, n), 1e-13, 500000)
	if !ok {
		t.Fatal("reference solve failed")
	}
	return repro.NewSpec(op, repro.WithXStar(xstar)), xstar
}

// TestKeptScratchKeepsTheWorker: a kept Scratch keeps each worker's buffers
// (its view, its block output, the boxes and dist's last-sent shard), and
// nothing of one solve reaches the next or a Report. One Scratch solves a
// larger lasso, then the target: on sim the target's X is bit-identical to a
// fresh-Scratch solve, on shared, message and dist it reaches the same fixed
// point. The first Report's X, overwritten with NaN before the second solve,
// changes nothing of it and is not written by it.
func TestKeptScratchKeepsTheWorker(t *testing.T) {
	big, _ := lassoOf(t, 40)
	spec, xstar := lassoOf(t, 24)
	for _, engine := range []repro.Engine{repro.EngineSim, repro.EngineShared, repro.EngineMessage, repro.EngineDist} {
		t.Run(engine.Name(), func(t *testing.T) {
			solve := func(spec repro.Spec, scr *repro.Scratch) *repro.Report {
				t.Helper()
				rep, err := repro.Solve(spec, repro.WithEngine(engine), repro.WithWorkers(4), repro.WithSeed(3),
					repro.WithTol(1e-9), repro.WithMaxUpdates(2000000), repro.WithScratch(scr))
				if err != nil || !rep.Converged {
					t.Fatalf("solve of n=%d: err %v, report %+v", spec.Op.Dim(), err, rep)
				}
				return rep
			}
			scr := repro.NewScratch()
			first := solve(big, scr)
			for i := range first.X {
				first.X[i] = math.NaN()
			}
			got, want := solve(spec, scr), solve(spec, nil)
			for i, v := range first.X {
				if !math.IsNaN(v) {
					t.Fatalf("the second solve wrote %v into the first Report's X[%d]", v, i)
				}
			}
			if e := repro.DistInf(got.X, xstar); e > 1e-6 {
				t.Errorf("after a larger solve on the same Scratch: %v from the fixed point", e)
			}
			if engine != repro.EngineSim {
				return
			}
			if got.Updates != want.Updates {
				t.Errorf("after a larger solve: %d updates, fresh Scratch %d", got.Updates, want.Updates)
			}
			for i := range want.X {
				if got.X[i] != want.X[i] {
					t.Fatalf("after a larger solve: X[%d] = %v, fresh Scratch %v", i, got.X[i], want.X[i])
				}
			}
		})
	}
}

// TestWarmMultigridSolveBytes: a warm shared or message multigrid solve
// (n = 31, 2 workers: the benchmark's shape) through a kept Scratch
// allocates its run and its Report, not its workers. ~10.7 KiB measured,
// ~50.7 KiB while every solve built its views, block outputs and boxes and
// materialised a zero X0. The least of five solves, so a stray goroutine
// cannot fail it.
func TestWarmMultigridSolveBytes(t *testing.T) {
	inst, err := repro.BuildScenario("multigrid", 31, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []repro.Engine{repro.EngineShared, repro.EngineMessage} {
		t.Run(engine.Name(), func(t *testing.T) {
			scr := repro.NewScratch()
			solve := func() {
				rep, err := repro.Solve(inst.Spec, repro.WithEngine(engine), repro.WithWorkers(2), repro.WithScratch(scr))
				if err != nil || !rep.Converged {
					t.Fatalf("err %v, report %+v", err, rep)
				}
			}
			solve()
			least := uint64(math.MaxUint64)
			for run := 0; run < 5; run++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				solve()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("%d bytes per warm solve", least)
			if least > 14<<10 {
				t.Errorf("warm %s multigrid solve allocates %d bytes, want <= %d", engine.Name(), least, 14<<10)
			}
		})
	}
}
