package repro_test

// Facade tests: exercise the public API exactly as a downstream user would,
// covering each engine and workload end to end.

import (
	"math"
	"strings"
	"testing"

	"repro"
)

func TestPublicAPILassoEndToEnd(t *testing.T) {
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N: 16, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := reg.Smooth()
	gamma := repro.MaxStep(f)
	op := repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, gamma)

	ystar, ok := repro.FixedPoint(op, make([]float64, 16), 1e-13, 400000)
	if !ok {
		t.Fatal("reference failed")
	}
	res, err := repro.Solve(repro.NewSpec(op),
		repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}),
		repro.WithTheta(0.5),
		repro.WithXStar(ystar),
		repro.WithTol(1e-10),
		repro.WithMaxIter(400000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	model, ok := res.ModelDetail()
	if !ok {
		t.Fatal("model run lacks ModelDetail")
	}
	rep, err := repro.CheckTheorem1(model, repro.TheoreticalRho(f, gamma))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Errorf("Theorem 1 violated: %+v", rep)
	}
}

func TestPublicAPISimulatorAndTrace(t *testing.T) {
	a := repro.DenseFromRows([][]float64{{0, 0.5}, {0.5, 0}})
	op := repro.NewLinear(a, []float64{1, 1})
	lg := &repro.TraceLog{}
	res, err := repro.Solve(repro.NewSpec(op),
		repro.WithEngine(repro.EngineSim),
		repro.WithWorkers(2), repro.WithX0([]float64{10, 10}), repro.WithXStar([]float64{2, 2}),
		repro.WithMaxTime(6),
		repro.WithCost(repro.HeterogeneousCost([]float64{1, 1.6})),
		repro.WithLatency(repro.FixedLatency(0.25)),
		repro.WithFlexible(repro.UniformFlex(2)),
		repro.WithSeed(1),
		repro.WithTrace(lg),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 9 {
		t.Errorf("updates = %d", res.Updates)
	}
	out := repro.RenderGantt(lg, 76)
	if !strings.Contains(out, "~~>") {
		t.Error("flexible partial sends missing from trace")
	}
	var csv strings.Builder
	if err := repro.WriteTraceCSV(&csv, lg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "partial") {
		t.Error("CSV missing partial events")
	}
}

func TestPublicAPIGoroutineRuntime(t *testing.T) {
	f := repro.NewSeparable([]float64{1, 2, 3, 4}, []float64{1, -1, 2, -2})
	op := repro.NewGradOp(f, repro.MaxStep(f))
	res, err := repro.Solve(repro.NewSpec(op),
		repro.WithEngine(repro.EngineShared),
		repro.WithWorkers(2), repro.WithTol(1e-11), repro.WithMaxUpdatesPerWorker(1<<18),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("shared run did not converge")
	}
	want := []float64{1, -1, 2, -2}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-8 {
			t.Errorf("X[%d] = %v, want %v", i, res.X[i], want[i])
		}
	}
}

func TestPublicAPIRoutingWorkload(t *testing.T) {
	g, err := repro.GridGraph(4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	op, err := repro.NewBellmanFordOp(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Dijkstra(0)
	res, err := repro.Solve(repro.NewSpec(op),
		repro.WithDelay(repro.OutOfOrderDelay{W: 8, Seed: 4}),
		repro.WithX0(op.InitialDistances()),
		repro.WithXStar(want), repro.WithTol(1e-12), repro.WithMaxIter(500000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || repro.DistInf(res.X, want) > 1e-12 {
		t.Error("routing did not reach Dijkstra distances")
	}
}

func TestPublicAPINetworkFlowWorkload(t *testing.T) {
	net, err := repro.FlowGrid(3, 3, 2, 0, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	op := repro.NewFlowRelaxOp(net)
	p, ok := repro.FixedPoint(op, make([]float64, net.NumNodes), 1e-11, 100000)
	if !ok {
		t.Fatal("relaxation failed")
	}
	if rep := net.CheckKKT(p); rep.MaxImbalance > 1e-8 {
		t.Errorf("KKT imbalance %v", rep.MaxImbalance)
	}
}

func TestPublicAPIObstacleWorkload(t *testing.T) {
	p := repro.ObstacleMembrane(8)
	u, ok := repro.FixedPoint(p, p.Supersolution(), 1e-11, 500000)
	if !ok {
		t.Fatal("obstacle solve failed")
	}
	rep := p.CheckComplementarity(u)
	if rep.MinGap < -1e-9 || rep.WorstSlackProduct > 1e-6 {
		t.Errorf("complementarity violated: %+v", rep)
	}
}

func TestPublicAPIMacroAndEpochHelpers(t *testing.T) {
	tr := repro.NewMacroTracker(2)
	tr.Observe(1, []int{0}, 0)
	tr.Observe(2, []int{1}, 1)
	if tr.K() != 1 {
		t.Errorf("K = %d", tr.K())
	}
	et := repro.NewEpochTracker(1)
	et.Observe(1, 0)
	et.Observe(2, 0)
	if et.M() != 1 {
		t.Errorf("M = %d", et.M())
	}
	sc := repro.NewStopCriterion(1e-6, 1)
	if !sc.ObserveBoundary(1e-9) {
		t.Error("stop criterion should fire")
	}
}

func TestPublicAPIDelayHelpers(t *testing.T) {
	repb := repro.CheckDelayConditions(repro.SqrtGrowthDelay{}, 2, 1000)
	if !repb.AOK || !repb.BOK {
		t.Errorf("sqrt model should satisfy a) and b): %+v", repb)
	}
	ok, _, _, _ := repro.CheckChaoticBound(repro.BoundedRandomDelay{B: 4, Seed: 1}, 2, 500, 4)
	if !ok {
		t.Error("chaotic bound should hold")
	}
	series := repro.DelaySeries(repro.ConstantDelay{D: 3}, 0, 10)
	if len(series) != 10 {
		t.Errorf("series length %d", len(series))
	}
}

func TestPublicAPITableAndMetrics(t *testing.T) {
	tb := repro.NewTable("t", "a", "b")
	tb.AddRow(1, 2.5)
	if !strings.Contains(tb.String(), "2.5") {
		t.Error("table missing value")
	}
	if repro.Speedup(10, 5) != 2 {
		t.Error("speedup wrong")
	}
	if repro.Efficiency(2, 2) != 1 {
		t.Error("efficiency wrong")
	}
	rate := repro.FitContractionRate([]float64{1, 0.5, 0.25})
	if math.Abs(rate-0.5) > 1e-9 {
		t.Errorf("rate = %v", rate)
	}
}
