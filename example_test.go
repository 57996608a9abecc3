package repro_test

// Runnable documentation examples (go doc / godoc render these and the
// test runner verifies their output).

import (
	"fmt"

	"repro"
)

// ExampleSolve shows the unified entry point: one spec, any engine. Here
// the paper's Definition 1 runs on a two-dimensional affine contraction
// with fresh labels under the mathematical-model engine.
func ExampleSolve() {
	a := repro.DenseFromRows([][]float64{
		{0, 0.5},
		{0.5, 0},
	})
	op := repro.NewLinear(a, []float64{1, 1}) // fixed point (2, 2)
	res, err := repro.Solve(repro.NewSpec(op),
		repro.WithEngine(repro.EngineModel),
		repro.WithXStar([]float64{2, 2}),
		repro.WithTol(1e-10),
		repro.WithMaxIter(10000),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged=%v x=(%.3f, %.3f)\n", res.Converged, res.X[0], res.X[1])
	// Output: converged=true x=(2.000, 2.000)
}

// ExampleSolve_scenario composes a registered workload with a delay model
// and engine by name — the combination the CLI exposes as
// "asyncsolve -scenario routing -delay ooo:8".
func ExampleSolve_scenario() {
	inst, err := repro.BuildScenario("routing", 16, 3)
	if err != nil {
		panic(err)
	}
	dm, err := repro.ParseDelay("ooo:8", 3)
	if err != nil {
		panic(err)
	}
	res, err := repro.Solve(inst.Spec, repro.WithDelay(dm))
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged=%v error=%.1e\n", res.Converged, res.FinalError)
	// Output: converged=true error=0.0e+00
}

// ExampleNewMacroTracker shows the Definition 2 macro-iteration sequence on
// a hand-fed run: two components relaxed alternately with fresh labels
// close a macro-iteration every two iterations.
func ExampleNewMacroTracker() {
	tr := repro.NewMacroTracker(2)
	tr.Observe(1, []int{0}, 0)
	tr.Observe(2, []int{1}, 1)
	tr.Observe(3, []int{0}, 2)
	tr.Observe(4, []int{1}, 3)
	fmt.Println(tr.Boundaries())
	// Output: [2 4]
}

// ExampleCheckDelayConditions validates Baudet's unbounded-delay model
// against conditions a) and b) of Definition 1.
func ExampleCheckDelayConditions() {
	rep := repro.CheckDelayConditions(repro.SqrtGrowthDelay{}, 2, 10000)
	fmt.Printf("a=%v b=%v unbounded=%v\n", rep.AOK, rep.BOK, rep.MaxDelay > 50)
	// Output: a=true b=true unbounded=true
}

// ExampleL1 shows the soft-thresholding proximal map of the lasso
// regularizer.
func ExampleL1() {
	p := repro.L1{Lambda: 1}
	fmt.Println(p.Apply(0, 3, 1), p.Apply(0, 0.5, 1), p.Apply(0, -3, 1))
	// Output: 2 0 -2
}

// ExampleNewBellmanFordOp runs asynchronous distance-vector routing on a
// small line graph and prints the shortest distances.
func ExampleNewBellmanFordOp() {
	g, _ := repro.NewRoutingGraph(3)
	_ = g.AddEdge(0, 1, 2)
	_ = g.AddEdge(1, 2, 3)
	op, _ := repro.NewBellmanFordOp(g, 0)
	res, err := repro.Solve(repro.NewSpec(op),
		repro.WithX0(op.InitialDistances()),
		repro.WithXStar(g.Dijkstra(0)),
		repro.WithTol(1e-12), repro.WithMaxIter(1000),
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.X)
	// Output: [0 2 5]
}
