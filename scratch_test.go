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
