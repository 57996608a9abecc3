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
// deployments. The micro-benchmarks delegate to internal/benchsuite — the
// same cases `asyncsolve bench` measures and captures as BENCH_<rev>.json —
// so test benchmarks and the CI benchmark artifact always agree on what is
// measured. Workload generation happens in each case's setup, outside the
// timed region.
//
// Each experiment benchmark executes the complete experiment (workload
// generation, runs of every mode, table assembly), so ns/op is the cost of
// regenerating the corresponding table/figure.

import (
	"testing"

	"repro"
	"repro/internal/benchsuite"
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
// Micro-benchmarks (shared with `asyncsolve bench`).

// BenchmarkProxGradBFApply measures one application of the Definition 4
// operator on a 64-dim lasso problem through the scratch fast path.
func BenchmarkProxGradBFApply(b *testing.B) {
	benchsuite.RunNamed(b, "ProxGradBFApply")
}

// The BlockEval pairs measure one full round of worker-block phases on a
// ProxGradBF lasso operator through the whole-block fast path vs the forced
// per-component fallback; the ns/op ratio is the block contract's speedup.
func BenchmarkBlockEvalN1024(b *testing.B) {
	benchsuite.RunNamed(b, "BlockEvalN1024")
}

func BenchmarkBlockEvalN1024PerComponent(b *testing.B) {
	benchsuite.RunNamed(b, "BlockEvalN1024PerComponent")
}

func BenchmarkBlockEvalN4096(b *testing.B) {
	benchsuite.RunNamed(b, "BlockEvalN4096")
}

func BenchmarkBlockEvalN4096PerComponent(b *testing.B) {
	benchsuite.RunNamed(b, "BlockEvalN4096PerComponent")
}

// The non-solve layers of a served job: one Gram assembly (1024x256), one
// complete lasso scenario build, one encode and one decode of the report a
// served model-engine lasso n=64 job streams back.
func BenchmarkGramAssemble256(b *testing.B)        { benchsuite.RunNamed(b, "GramAssemble256") }
func BenchmarkScenarioBuildLasso64(b *testing.B)   { benchsuite.RunNamed(b, "ScenarioBuildLasso64") }
func BenchmarkScenarioBuildLasso256(b *testing.B)  { benchsuite.RunNamed(b, "ScenarioBuildLasso256") }
func BenchmarkReportMarshalLasso64(b *testing.B)   { benchsuite.RunNamed(b, "ReportMarshalLasso64") }
func BenchmarkReportUnmarshalLasso64(b *testing.B) { benchsuite.RunNamed(b, "ReportUnmarshalLasso64") }

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
