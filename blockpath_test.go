package repro_test

// Block-path equivalence: the deterministic engines must produce
// bit-identical Report trajectories whether coupled operators are evaluated
// through the whole-block fast path (BlockScratchOperator) or the
// per-component fallback. The fallback is forced by wrapping the operator in
// a type that forwards the scratch fast path but hides the block interface —
// so the ONLY difference between the two runs is EvalBlock's dispatch.

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/operators"
)

// noBlock forwards the componentwise and scratch fast paths of its inner
// operator but deliberately does not implement BlockScratchOperator, forcing
// operators.EvalBlock onto the per-component fallback.
type noBlock struct{ inner repro.Operator }

func (w noBlock) Dim() int                             { return w.inner.Dim() }
func (w noBlock) Component(i int, x []float64) float64 { return w.inner.Component(i, x) }
func (w noBlock) Name() string                         { return w.inner.Name() }

func (w noBlock) ComponentScratch(scr *operators.Scratch, i int, x []float64) float64 {
	if so, ok := w.inner.(operators.ScratchOperator); ok {
		return so.ComponentScratch(scr, i, x)
	}
	return w.inner.Component(i, x)
}

func (w noBlock) ApplyScratch(scr *operators.Scratch, dst, x []float64) {
	if so, ok := w.inner.(operators.ScratchOperator); ok {
		so.ApplyScratch(scr, dst, x)
		return
	}
	operators.Apply(w.inner, dst, x)
}

// Apply keeps the Residual/FullApplier fast path identical in both runs.
func (w noBlock) Apply(dst, x []float64) { operators.Apply(w.inner, dst, x) }

func blockPathOps(t *testing.T) map[string]repro.Operator {
	t.Helper()
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N: 48, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := reg.Smooth()
	return map[string]repro.Operator{
		"proxGradBF-lasso": repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f)),
		"innerIterated":    repro.NewInnerIterated(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f), 3),
		"gradOp-ridge":     repro.NewGradOp(f, repro.MaxStep(f)),
	}
}

// trajectory extracts every deterministic outcome field of a Report.
func trajectory(r *repro.Report) map[string]interface{} {
	return map[string]interface{}{
		"X":                r.X,
		"Converged":        r.Converged,
		"Iterations":       r.Iterations,
		"Updates":          r.Updates,
		"FinalResidual":    r.FinalResidual,
		"FinalError":       r.FinalError,
		"Errors":           r.Errors,
		"ErrorTrace":       r.ErrorTrace,
		"Boundaries":       r.Boundaries,
		"Epochs":           r.Epochs,
		"UpdatesPerWorker": r.UpdatesPerWorker,
		"MessagesSent":     r.MessagesSent,
		"MessagesDropped":  r.MessagesDropped,
		"Time":             r.Time,
	}
}

func TestBlockPathBitIdenticalOnDeterministicEngines(t *testing.T) {
	engines := []struct {
		name string
		opts []repro.Option
	}{
		{"model", []repro.Option{
			repro.WithEngine(repro.EngineModel),
			repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 3}),
			repro.WithTol(1e-9), repro.WithMaxIter(200000),
		}},
		{"sim", []repro.Option{
			repro.WithEngine(repro.EngineSim),
			repro.WithWorkers(6),
			repro.WithSeed(4),
			repro.WithMaxUpdates(3000),
		}},
		{"sim-flexible-dropping", []repro.Option{
			repro.WithEngine(repro.EngineSim),
			repro.WithWorkers(6),
			repro.WithSeed(5),
			repro.WithFaults(repro.Faults{DropProb: 0.1}),
			repro.WithFlexible(repro.FlexSchedule{Fracs: []float64{0.5}}),
			repro.WithMaxUpdates(3000),
		}},
		{"simsync", []repro.Option{
			repro.WithEngine(repro.EngineSimSync),
			repro.WithWorkers(6),
			repro.WithMaxUpdates(3000),
		}},
	}
	for name, op := range blockPathOps(t) {
		for _, eng := range engines {
			block, err := repro.Solve(repro.NewSpec(op, eng.opts...))
			if err != nil {
				t.Fatalf("%s/%s block run: %v", name, eng.name, err)
			}
			fallback, err := repro.Solve(repro.NewSpec(noBlock{op}, eng.opts...))
			if err != nil {
				t.Fatalf("%s/%s fallback run: %v", name, eng.name, err)
			}
			bt, ft := trajectory(block), trajectory(fallback)
			for field, bv := range bt {
				if !reflect.DeepEqual(bv, ft[field]) {
					t.Errorf("%s/%s: %s differs between block path and per-component fallback:\nblock:    %v\nfallback: %v",
						name, eng.name, field, bv, ft[field])
				}
			}
		}
	}
}
