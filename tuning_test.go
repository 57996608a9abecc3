package repro_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro"
	"repro/internal/operators"
)

// The public tuning knob must never change a solve trajectory: intra-block
// fan-out is bit-identical by construction, and these runs pin that end to
// end through the facade — every engine, every lane count, same Report to
// the last bit.

func tuningTestOps(t *testing.T) map[string]repro.Operator {
	t.Helper()
	// n x n above the internal fan-out threshold, so full-dimension block
	// evaluations (residuals, single-worker runs) genuinely fan out; 64
	// coupling samples keep the Gram dense but cheap to build.
	const n = 1000
	if n*n < operators.ParallelWork {
		t.Fatalf("n = %d: a full-height Gram slab stays below the fan-out threshold", n)
	}
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N: n, Samples: n + 64, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := reg.Smooth()
	return map[string]repro.Operator{
		"proxGradBF-lasso": repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f)),
		"gradOp-ridge":     repro.NewGradOp(f, repro.MaxStep(f)),
	}
}

func TestTuningKnobsBitIdenticalTrajectories(t *testing.T) {
	engines := []struct {
		name string
		opts []repro.Option
	}{
		{"model", []repro.Option{
			repro.WithEngine(repro.EngineModel),
			repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 3}),
			repro.WithTol(1e-9), repro.WithMaxIter(100000),
		}},
		// One worker owns the whole block: every evaluation is tall enough
		// to fan out when intra-parallelism is on.
		{"sim-1worker", []repro.Option{
			repro.WithEngine(repro.EngineSim),
			repro.WithWorkers(1),
			repro.WithSeed(4),
			repro.WithMaxUpdates(200),
		}},
		{"simsync", []repro.Option{
			repro.WithEngine(repro.EngineSimSync),
			repro.WithWorkers(6),
			repro.WithMaxUpdates(2000),
		}},
	}
	combos := []struct {
		name string
		opts []repro.Option
	}{
		{"intraParallel4", []repro.Option{repro.WithIntraParallelism(4)}},
		{"parallelOverCPU", []repro.Option{repro.WithIntraParallelism(runtime.NumCPU() + 16)}},
	}
	for name, op := range tuningTestOps(t) {
		for _, eng := range engines {
			base, err := repro.Solve(repro.NewSpec(op, eng.opts...))
			if err != nil {
				t.Fatalf("%s/%s untuned run: %v", name, eng.name, err)
			}
			bt := trajectory(base)
			for _, combo := range combos {
				opts := append(append([]repro.Option{}, eng.opts...), combo.opts...)
				tuned, err := repro.Solve(repro.NewSpec(op, opts...))
				if err != nil {
					t.Fatalf("%s/%s/%s tuned run: %v", name, eng.name, combo.name, err)
				}
				tt := trajectory(tuned)
				for field, bv := range bt {
					if !reflect.DeepEqual(bv, tt[field]) {
						t.Errorf("%s/%s/%s: %s differs from the untuned trajectory",
							name, eng.name, combo.name, field)
					}
				}
			}
		}
	}
}

// BuildScenarioTuned must hand the knobs to the builder AND stamp them on
// the returned Spec; gram_precompute=false selects the lean LeastSquares
// form, which still solves lasso and ridge to tolerance (different bits,
// same optimum).
func TestBuildScenarioTunedLeanGram(t *testing.T) {
	lean := false
	tun := repro.Tuning{GramPrecompute: &lean, IntraParallelism: 4}
	for _, scenario := range []string{"lasso", "ridge"} {
		inst, err := repro.BuildScenarioTuned(scenario, 64, 1, tun)
		if err != nil {
			t.Fatal(err)
		}
		if inst.Spec.Tuning.GramPrecomputed() {
			t.Fatalf("%s: Spec.Tuning lost GramPrecompute=false", scenario)
		}
		if inst.Spec.Tuning.IntraParallelism != 4 {
			t.Fatalf("%s: Spec.Tuning lost IntraParallelism", scenario)
		}
		rep, err := repro.Solve(inst.Spec,
			repro.WithEngine(repro.EngineModel),
			repro.WithDelay(repro.FreshDelay{}))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged {
			t.Errorf("%s with lean Gram form did not converge (residual %g)",
				scenario, rep.FinalResidual)
		}
	}
	// The default build precomputes the Gram matrix; the zero Tuning must
	// not flip it.
	inst, err := repro.BuildScenario("lasso", 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Spec.Tuning.GramPrecomputed() {
		t.Error("default build lost Gram precomputation")
	}
}

// The lean form must survive the block-vs-fallback equivalence the eager
// form is pinned to: same trajectory whether the lean gradient runs through
// the whole-block fast path or the per-component fallback.
func TestLeanGramBlockPathBitIdentical(t *testing.T) {
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N: 48, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := reg.SmoothLean()
	op := repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f))
	opts := []repro.Option{
		repro.WithEngine(repro.EngineSim),
		repro.WithWorkers(4),
		repro.WithSeed(7),
		repro.WithMaxUpdates(2000),
	}
	block, err := repro.Solve(repro.NewSpec(op, opts...))
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := repro.Solve(repro.NewSpec(noBlock{op}, opts...))
	if err != nil {
		t.Fatal(err)
	}
	bt, ft := trajectory(block), trajectory(fallback)
	for field, bv := range bt {
		if !reflect.DeepEqual(bv, ft[field]) {
			t.Errorf("lean %s differs between block path and per-component fallback", field)
		}
	}
}
