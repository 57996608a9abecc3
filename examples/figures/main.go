// Command figures regenerates the paper's two figures as machine-produced
// execution traces:
//
//	Fig. 1 — parallel/distributed asynchronous iterative algorithm: two
//	         processors at different speeds, numbered updating phases,
//	         communications of labelled updates at phase ends;
//	Fig. 2 — asynchronous iteration with flexible communication: the same
//	         run with partial updates (~~>, the hatched arrows) published
//	         mid-phase.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// The schematic two-processor fixed-point problem of the figures:
	// component x1 on P0 (faster), component x2 on P1 (slower).
	a := repro.DenseFromRows([][]float64{
		{0, 0.5},
		{0.5, 0},
	})
	op := repro.NewLinear(a, []float64{1, 1}) // fixed point (2, 2)
	xstar := []float64{2, 2}

	run := func(flex repro.FlexSchedule) *repro.TraceLog {
		lg := &repro.TraceLog{}
		_, err := repro.Solve(repro.NewSpec(op),
			repro.WithEngine(repro.EngineSim),
			repro.WithWorkers(2),
			repro.WithX0([]float64{10, 10}), repro.WithXStar(xstar),
			repro.WithMaxTime(6), // nine phases, the last at t = 6
			repro.WithCost(repro.HeterogeneousCost([]float64{1.0, 1.6})),
			repro.WithLatency(repro.FixedLatency(0.25)),
			repro.WithFlexible(flex),
			repro.WithSeed(1),
			repro.WithTrace(lg),
		)
		if err != nil {
			log.Fatal(err)
		}
		return lg
	}

	fmt.Println("Figure 1: parallel or distributed asynchronous iterative algorithm")
	fmt.Println("(rectangles = updating phases labelled by iteration number;")
	fmt.Println(" arrows = communication of updates at phase ends)")
	fmt.Println()
	fmt.Print(repro.RenderGantt(run(repro.NoFlex()), 76))

	fmt.Println()
	fmt.Println("Figure 2: asynchronous iterative algorithm with flexible communication")
	fmt.Println("(~~> = partial updates published mid-phase, the hatched arrows)")
	fmt.Println()
	fmt.Print(repro.RenderGantt(run(repro.UniformFlex(2)), 76))
}
