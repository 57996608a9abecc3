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
	bf := repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f))
	return map[string]repro.Operator{
		"proxGradBF-lasso":   bf,
		"relaxed-proxGradBF": &operators.Relaxed{Inner: bf, Omega: 0.7},
		"innerIterated":      repro.NewInnerIterated(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f), 3),
		"gradOp-ridge":       repro.NewGradOp(f, repro.MaxStep(f)),
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

// The model rows cover every way core.Run hints the operator scratch
// which components moved since its last evaluation (and every way it
// declines to): the windowed reads of fresh, bounded and out-of-order
// delays, the full read of a growing delay under Jacobi steering, several
// runs per S_j, residual-aware steering's snapshots, and a flexible read.
// The options are built per solve: steering policies carry state.
func TestBlockPathBitIdenticalOnDeterministicEngines(t *testing.T) {
	const n = 48
	model := func(d repro.DelayModel, steer func() repro.SteeringPolicy, iters int, more ...repro.Option) func() []repro.Option {
		return func() []repro.Option {
			return append([]repro.Option{
				repro.WithEngine(repro.EngineModel), repro.WithDelay(d), repro.WithSteering(steer()),
				repro.WithTol(1e-9), repro.WithMaxIter(iters),
			}, more...)
		}
	}
	cyclic := func() repro.SteeringPolicy { return repro.NewCyclic(n) }
	bounded8 := repro.BoundedRandomDelay{B: 8, Seed: 3}
	engines := []struct {
		name string
		opts func() []repro.Option
	}{
		{"model/fresh/cyclic", model(repro.FreshDelay{}, cyclic, 200000)},
		{"model/bounded8/cyclic", model(bounded8, cyclic, 200000)},
		{"model/ooo4/cyclic", model(repro.OutOfOrderDelay{W: 4, Seed: 6}, cyclic, 200000)},
		{"model/sqrt/jacobi", model(repro.SqrtGrowthDelay{}, func() repro.SteeringPolicy { return repro.NewAllComponents(n) }, 400)},
		{"model/bounded8/random-subset", model(bounded8, func() repro.SteeringPolicy { return repro.NewRandomSubset(n, 12, 7) }, 20000)},
		{"model/bounded8/gauss-southwell", model(bounded8, func() repro.SteeringPolicy { return repro.NewGaussSouthwell(n) }, 1500)},
		{"model/bounded8/cyclic/theta", model(bounded8, cyclic, 200000, repro.WithTheta(0.5))},
		{"sim", func() []repro.Option {
			return []repro.Option{repro.WithEngine(repro.EngineSim), repro.WithWorkers(6), repro.WithSeed(4), repro.WithMaxUpdates(3000)}
		}},
		{"sim-flexible-dropping", func() []repro.Option {
			return []repro.Option{
				repro.WithEngine(repro.EngineSim),
				repro.WithWorkers(6),
				repro.WithSeed(5),
				repro.WithFaults(repro.Faults{DropProb: 0.1}),
				repro.WithFlexible(repro.FlexSchedule{Fracs: []float64{0.5}}),
				repro.WithMaxUpdates(3000),
			}
		}},
		{"simsync", func() []repro.Option {
			return []repro.Option{repro.WithEngine(repro.EngineSimSync), repro.WithWorkers(6), repro.WithMaxUpdates(3000)}
		}},
	}
	for name, op := range blockPathOps(t) {
		for _, eng := range engines {
			block, err := repro.Solve(repro.NewSpec(op, eng.opts()...))
			if err != nil {
				t.Fatalf("%s/%s block run: %v", name, eng.name, err)
			}
			fallback, err := repro.Solve(repro.NewSpec(noBlock{op}, eng.opts()...))
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

// countingProx counts the scalar prox applications of the operator it sits
// in; it is not an L1, so the prox vector goes through Apply (same bits).
type countingProx struct {
	repro.Prox
	applies *int
}

func (p countingProx) Apply(i int, v, gamma float64) float64 {
	*p.applies++
	return p.Prox.Apply(i, v, gamma)
}

// The model engine's prox work by count: on lasso n = 64 under bounded:8
// cyclic steering, core.Run hints the operator scratch with the components
// its read moved, so ProxGradBF re-applies the prox to those only. A full
// pass is left for the first iteration, each every-n residual check and the
// iteration after it, and the final residual: 12043 applications in 1216
// iterations, against 79104 (n per iteration and per residual) when every
// evaluation re-applied it to all n. The bound is n/4 per iteration.
func TestModelProxApplicationsPerSolve(t *testing.T) {
	const n = 64
	inst, err := repro.BuildScenario("lasso", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	bf := inst.Spec.Op.(*repro.ProxGradBF)
	applies := 0
	spec := inst.Spec
	spec.Op = repro.NewProxGradBF(bf.F, countingProx{bf.G, &applies}, bf.Gamma)
	rep, err := repro.Solve(spec, repro.WithEngine(repro.EngineModel), repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}))
	if err != nil || !rep.Converged {
		t.Fatalf("solve: %v, converged %v", err, rep != nil && rep.Converged)
	}
	t.Logf("%d prox applications in %d iterations (%.2f per iteration)", applies, rep.Iterations, float64(applies)/float64(rep.Iterations))
	if 4*applies >= n*rep.Iterations {
		t.Errorf("%d prox applications in %d iterations, want fewer than n/4 = %d per iteration", applies, rep.Iterations, n/4)
	}
}
