// Command figures regenerates the paper's Fig. 1 (asynchronous iterations)
// and Fig. 2 (flexible communication) as ASCII execution traces, optionally
// exporting the raw event logs as CSV for external plotting.
//
// Usage:
//
//	figures                 # print both figures
//	figures -width 100      # wider time axis
//	figures -csv out_dir    # also write fig1.csv / fig2.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	width := flag.Int("width", 76, "time-axis width in characters")
	csvDir := flag.String("csv", "", "directory to write fig1.csv / fig2.csv (optional)")
	flag.Parse()

	run := func(flex repro.FlexSchedule) *repro.TraceLog {
		a := repro.DenseFromRows([][]float64{
			{0, 0.5},
			{0.5, 0},
		})
		op := repro.NewLinear(a, []float64{1, 1})
		lg := &repro.TraceLog{}
		_, err := repro.Solve(repro.NewSpec(op),
			repro.WithEngine(repro.EngineSim),
			repro.WithWorkers(2),
			repro.WithX0([]float64{10, 10}), repro.WithXStar([]float64{2, 2}),
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

	fig1 := run(repro.NoFlex())
	fig2 := run(repro.UniformFlex(2))

	fmt.Println("Figure 1: parallel or distributed asynchronous iterative algorithm")
	fmt.Println()
	fmt.Print(repro.RenderGantt(fig1, *width))
	fmt.Println()
	fmt.Println("Figure 2: asynchronous iterative algorithm with flexible communication")
	fmt.Println()
	fmt.Print(repro.RenderGantt(fig2, *width))

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for name, lg := range map[string]*repro.TraceLog{"fig1.csv": fig1, "fig2.csv": fig2} {
			f, err := os.Create(filepath.Join(*csvDir, name))
			if err != nil {
				log.Fatal(err)
			}
			if err := repro.WriteTraceCSV(f, lg); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("\nwrote %s/fig1.csv and %s/fig2.csv\n", *csvDir, *csvDir)
	}
}
