// Command lasso trains an L1-regularized regression model three ways —
// synchronous Jacobi sweeps, plain asynchronous iteration, and asynchronous
// iteration with flexible communication — on the virtual-time simulator
// with heterogeneous workers, and prints the comparison table the paper's
// Section II/IV claims predict: async beats sync under load imbalance, and
// flexible communication further reduces time to convergence. It finishes
// with a real goroutine run (shared-memory transport).
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N:        48,
		Coupling: 0.3,
		Sparsity: 0.6,
		Noise:    0.02,
		Reg:      0.05,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	f := reg.Smooth()
	gamma := repro.MaxStep(f)
	op := repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, gamma)

	xstar, ok := repro.FixedPoint(op, make([]float64, f.Dim()), 1e-13, 1000000)
	if !ok {
		log.Fatal("reference solve failed")
	}
	x0 := make([]float64, f.Dim())
	for i := range x0 {
		x0[i] = 5
	}

	// Heterogeneous cluster: one straggler 5x slower than the rest.
	workers := 4
	costs := []float64{1, 1, 1, 5}
	tol := 1e-8

	// One spec, three engines: the barrier-synchronous baseline, the
	// free-running asynchronous simulator, and the same with flexible
	// communication — switched by Solve options.
	base := repro.NewSpec(op,
		repro.WithX0(x0), repro.WithXStar(xstar), repro.WithTol(tol),
		repro.WithMaxUpdates(5000000),
		repro.WithWorkers(workers),
		repro.WithCost(repro.HeterogeneousCost(costs)),
		repro.WithLatency(repro.FixedLatency(0.3)),
		repro.WithSeed(11),
	)

	table := repro.NewTable(
		"lasso training on a 4-worker cluster with a 5x straggler (virtual time)",
		"mode", "virtual time", "updates", "speedup vs sync")

	syncRes, err := repro.Solve(base, repro.WithEngine(repro.EngineSimSync))
	if err != nil {
		log.Fatal(err)
	}
	table.AddRow("synchronous (barrier)", syncRes.Time, syncRes.Updates, 1.0)

	asyncRes, err := repro.Solve(base, repro.WithEngine(repro.EngineSim))
	if err != nil {
		log.Fatal(err)
	}
	table.AddRow("asynchronous", asyncRes.Time, asyncRes.Updates,
		repro.Speedup(syncRes.Time, asyncRes.Time))

	flexRes, err := repro.Solve(base, repro.WithEngine(repro.EngineSim),
		repro.WithFlexible(repro.UniformFlex(4)))
	if err != nil {
		log.Fatal(err)
	}
	table.AddRow("async + flexible comm", flexRes.Time, flexRes.Updates,
		repro.Speedup(syncRes.Time, flexRes.Time))

	fmt.Print(table)
	syncDetail, _ := syncRes.SimSyncDetail()
	fmt.Printf("\nsync idle time per worker: %.1f (fast) vs %.1f (straggler)\n",
		syncDetail.IdleTime[0], syncDetail.IdleTime[3])

	// Real concurrency: goroutines over shared memory — the same
	// spec again, on the shared-memory engine.
	conc, err := repro.Solve(base, repro.WithEngine(repro.EngineShared),
		repro.WithTol(1e-10),
		repro.WithMaxUpdatesPerWorker(1<<20),
		repro.WithFlexible(repro.UniformFlex(2)))
	if err != nil {
		log.Fatal(err)
	}
	x := op.Primal(conc.X)
	fmt.Printf("\ngoroutine run: converged=%v in %v; lasso MSE=%.5f (truth %.5f)\n",
		conc.Converged, conc.Elapsed, reg.MSE(x), reg.MSE(reg.XTrue))

	zeros := 0
	for _, v := range x {
		if v == 0 {
			zeros++
		}
	}
	fmt.Printf("sparsity: %d/%d coefficients exactly zero\n", zeros, len(x))
}
