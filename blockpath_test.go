package repro_test

// Block-path equivalence: the deterministic engines must produce
// bit-identical Report trajectories whether coupled operators are evaluated
// through the whole-block fast path (BlockScratchOperator) or the Component
// loop. The loop is forced by wrapping the operator in a type that exposes
// only the three Operator methods — so the ONLY difference between the two
// runs is EvalBlock's dispatch.

import (
	"math"
	"reflect"
	"testing"

	"repro"
	"repro/internal/operators"
)

// noBlock exposes only the base Operator contract of its inner operator,
// forcing operators.EvalBlock onto the Component loop.
type noBlock struct{ inner repro.Operator }

func (w noBlock) Dim() int                             { return w.inner.Dim() }
func (w noBlock) Component(i int, x []float64) float64 { return w.inner.Component(i, x) }
func (w noBlock) Name() string                         { return w.inner.Name() }

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
					t.Errorf("%s/%s: %s differs between block path and Component loop:\nblock:    %v\nfallback: %v",
						name, eng.name, field, bv, ft[field])
				}
			}
		}
	}
}

// The one contract on the operators the scenarios really build (logistic
// regression, network flow, the obstacle and routing maps, multigrid — the
// types internal/operators' own table cannot reach): Component is the
// definition; a block of one, the block [0, n) and the residual, on a
// supplied scratch or an own one, reproduce it bit for bit and, once the
// scratch is warm, allocate nothing of their own.
func TestScenarioOperatorsKeepTheOneContract(t *testing.T) {
	for _, sc := range repro.Scenarios() {
		inst, err := repro.BuildScenario(sc.Name, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		op, x := inst.Spec.Op, inst.Spec.XStar
		if x == nil {
			x = repro.NewRNG(3).NormalVector(op.Dim())
		}
		want := make([]float64, op.Dim())
		resid := 0.0
		for i := range want {
			want[i] = op.Component(i, x)
			resid = math.Max(resid, math.Abs(want[i]-x[i]))
		}
		scr := repro.NewOperatorScratch()
		got := make([]float64, op.Dim())
		repro.ApplyOperator(op, scr, got, x)
		for i := range want {
			if c := repro.EvalComponent(op, scr, i, x); c != want[i] || got[i] != want[i] {
				t.Fatalf("%s component %d: EvalComponent %v, ApplyOperator %v, Component %v", sc.Name, i, c, got[i], want[i])
			}
		}
		if with, own := operators.ResidualWith(op, scr, x), repro.OperatorResidual(op, x); with != resid || own != resid {
			t.Errorf("%s: ResidualWith %v, Residual %v, max|Component - x| %v", sc.Name, with, own, resid)
		}
		if _, block := op.(repro.BlockOperator); !block && testing.AllocsPerRun(20, func() { _ = op.Component(1, x) }) > 0 {
			continue // netflow: Component itself allocates, and it has no block path to spare it that
		}
		for name, eval := range map[string]func(){
			"EvalComponent": func() { _ = repro.EvalComponent(op, scr, 1, x) },
			"ApplyOperator": func() { repro.ApplyOperator(op, scr, got, x) },
			"ResidualWith":  func() { _ = operators.ResidualWith(op, scr, x) },
		} {
			if avg := testing.AllocsPerRun(20, eval); avg != 0 {
				t.Errorf("%s: %s allocated %.1f/run on a warmed scratch, want 0", sc.Name, name, avg)
			}
		}
	}
}
