package repro_test

// Benchmark harness: one benchmark per figure/experiment of the
// reproduction suite (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for the recorded outputs), plus micro-benchmarks of the
// operator and codec layers. Run with:
//
//	go test -bench=. -benchmem
//
// Whole solves are not timed here: `go run ./benchmark` (BENCHMARK.json) is
// the one record for every engine, the served path and the dist
// deployments, and the scenario build and Report codec are its
// scenario.build_ms.* / report.*_us.lasso64 metrics. The micro-benchmarks
// below are plain testing.B functions: workload generation happens before
// b.ResetTimer, outside the timed region.
//
// Each experiment benchmark executes the complete experiment (workload
// generation, runs of every mode, table assembly), so ns/op is the cost of
// regenerating the corresponding table/figure.

import (
	"testing"

	"repro"
	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	run := experiments.Lookup(id)
	if run == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := run()
		if !rep.Pass {
			b.Fatalf("%s failed acceptance criteria: %v", id, rep.Notes)
		}
	}
}

func BenchmarkF1_Figure1Trace(b *testing.B)          { benchExperiment(b, "F1") }
func BenchmarkF2_Figure2Trace(b *testing.B)          { benchExperiment(b, "F2") }
func BenchmarkE1_BaudetUnboundedDelay(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkE2_Theorem1Bound(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3_AsyncVsSyncImbalance(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4_FlexibleVsAsync(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5_MacroVsEpoch(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6_ObstacleExchangeFreq(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7_AsyncBellmanFord(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8_FaultTolerance(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9_StepSizeSweep(b *testing.B)         { benchExperiment(b, "E9") }
func BenchmarkE10_Scalability(b *testing.B)          { benchExperiment(b, "E10") }
func BenchmarkE11_BoundedVsUnbounded(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12_ThetaAblation(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13_NewtonOperators(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14_MultigridSmoother(b *testing.B)    { benchExperiment(b, "E14") }
func BenchmarkE15_StoppingCriteria(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16_NestedBoxes(b *testing.B)          { benchExperiment(b, "E16") }
func BenchmarkE17_ContractionNecessity(b *testing.B) { benchExperiment(b, "E17") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the operator layer.

// BenchmarkProxGradBFApply measures one application of the Definition 4
// operator on a 64-dim lasso problem: the block [0, n) on a warmed scratch.
func BenchmarkProxGradBFApply(b *testing.B) {
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N: 64, Coupling: 0.3, Sparsity: 0.5, Reg: 0.1, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := reg.Smooth()
	op := repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f))
	scr := repro.NewOperatorScratch()
	x := make([]float64, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repro.ApplyOperator(op, scr, dst, x)
	}
}

// perComponent exposes only the base Operator contract of its inner
// operator, so EvalBlock takes the Component loop — the baseline of every
// BlockEval pair.
type perComponent struct{ inner repro.Operator }

func (w perComponent) Dim() int                             { return w.inner.Dim() }
func (w perComponent) Component(i int, x []float64) float64 { return w.inner.Component(i, x) }
func (w perComponent) Name() string                         { return w.inner.Name() }

// blockLassoOp builds the n-dim ProxGradBF lasso operator of the BlockEval
// benchmarks. The design matrix keeps a thin slab of dense coupling rows so
// the Gram matrix stays genuinely coupled without the O(samples*n^2)
// assembly cost of the default 4n-sample generator at this scale.
func blockLassoOp(b *testing.B, n int) repro.Operator {
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N: n, Samples: n + 32, Coupling: 0.2, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := reg.Smooth()
	return repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f))
}

// blockSeparableLassoOp builds the n-dim ProxGradBF operator over the
// paper's Section V separable smooth model — O(n) memory, so the BlockEval
// benchmark can scale to dimensions where a dense Gram matrix would not
// fit. This is the regime where a block phase is O(n + b) against the
// per-component path's O(b*n).
func blockSeparableLassoOp(_ *testing.B, n int) repro.Operator {
	rng := repro.NewRNG(18)
	a := make([]float64, n)
	t := make([]float64, n)
	for i := range a {
		a[i] = 1 + rng.Float64()
		t[i] = rng.Normal()
	}
	f := repro.NewSeparable(a, t)
	return repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f))
}

// benchBlockSweep measures one full round of block phases — every
// contiguous worker block of the n-dim operator evaluated once — through
// the block fast path or (perComp) the forced Component loop. The
// ns/op ratio of a pair is the block contract's speedup; the operation
// count behind it is pinned, without a clock, by
// TestBlockSweepProxAndGradientCounts in internal/operators.
func benchBlockSweep(b *testing.B, build func(*testing.B, int) repro.Operator, n, block int, perComp bool) {
	op := build(b, n)
	if perComp {
		op = perComponent{op}
	}
	scr := repro.NewOperatorScratch()
	x := repro.NewRNG(19).NormalVector(n)
	out := make([]float64, block)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < n; lo += block {
			hi := min(lo+block, n)
			repro.EvalBlock(op, scr, lo, hi, x, out[:hi-lo])
		}
	}
}

func BenchmarkBlockEvalN1024(b *testing.B) { benchBlockSweep(b, blockLassoOp, 1024, 128, false) }
func BenchmarkBlockEvalN1024PerComponent(b *testing.B) {
	benchBlockSweep(b, blockLassoOp, 1024, 128, true)
}
func BenchmarkBlockEvalN4096(b *testing.B) {
	benchBlockSweep(b, blockSeparableLassoOp, 4096, 512, false)
}
func BenchmarkBlockEvalN4096PerComponent(b *testing.B) {
	benchBlockSweep(b, blockSeparableLassoOp, 4096, 512, true)
}

// BenchmarkModelIteration measures the model engine's iteration loop on
// lasso n=256 through a pooled Scratch: ns per iteration and allocations
// per solve. bounded8/cyclic is the harness's model-lasso regime (few
// updates since the oldest label read, so the prox is re-applied only
// where the read moved), bounded8/cyclic/theta the same with a flexible
// read, which is never hinted and re-applies it to all n; sqrt/jacobi is
// History.Read's all-components fallback, fresh/cyclic reads the freshest
// iterate.
func BenchmarkModelIteration(b *testing.B) {
	const n, iters = 256, 2048
	inst, err := repro.BuildScenario("lasso", n, 1)
	if err != nil {
		b.Fatal(err)
	}
	cyclic := func() repro.SteeringPolicy { return repro.NewCyclic(n) }
	cases := []struct {
		name     string
		delay    repro.DelayModel
		steering func() repro.SteeringPolicy
		theta    float64
	}{
		{"bounded8/cyclic", repro.BoundedRandomDelay{B: 8, Seed: 2}, cyclic, 0},
		{"bounded8/cyclic/theta", repro.BoundedRandomDelay{B: 8, Seed: 2}, cyclic, 0.5},
		{"sqrt/jacobi", repro.SqrtGrowthDelay{}, func() repro.SteeringPolicy { return repro.NewAllComponents(n) }, 0},
		{"fresh/cyclic", repro.FreshDelay{}, cyclic, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			scr := repro.NewScratch()
			solve := func() {
				rep, err := repro.Solve(inst.Spec, repro.WithDelay(c.delay), repro.WithSteering(c.steering()), repro.WithTheta(c.theta),
					repro.WithTol(0), repro.WithMaxIter(iters), repro.WithScratch(scr))
				if err != nil || rep.Iterations != iters {
					b.Fatalf("solve: %v, %d iterations", err, rep.Iterations)
				}
			}
			solve() // grow the scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solve()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters), "ns/iter")
			b.ReportMetric(testing.AllocsPerRun(1, solve), "allocs/solve")
		})
	}
}

// BenchmarkGramAssemble256 measures one Gram assembly (1024x256), the
// dominant cost of a regression scenario build.
func BenchmarkGramAssemble256(b *testing.B) {
	rng := repro.NewRNG(23)
	a := repro.NewDense(1024, 256)
	for i := range a.Data {
		a.Data[i] = rng.Normal()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := a.AtA(); g.Rows != 256 {
			b.Fatalf("gram is %dx%d", g.Rows, g.Cols)
		}
	}
}

// BenchmarkMacroTracker measures Definition 2 bookkeeping throughput (the
// tracker construction is the measured object, so nothing is hoisted).
func BenchmarkMacroTracker(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := repro.NewMacroTracker(64)
		for j := 1; j <= 10000; j++ {
			tr.Observe(j, []int{(j - 1) % 64}, j-4)
		}
		if tr.K() == 0 {
			b.Fatal("no boundaries")
		}
	}
}

// BenchmarkBellmanFordComponent measures one min-plus relaxation on a
// 1024-node graph.
func BenchmarkBellmanFordComponent(b *testing.B) {
	g, err := repro.RandomGraph(1024, 4096, 6)
	if err != nil {
		b.Fatal(err)
	}
	op, err := repro.NewBellmanFordOp(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	d := op.InitialDistances()
	d[0] = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = op.Component(i%1024, d)
	}
}
