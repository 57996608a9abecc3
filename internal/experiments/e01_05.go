package experiments

import (
	"math"

	"repro"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/des"
	"repro/internal/macroiter"
	"repro/internal/metrics"
	"repro/internal/mldata"
	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/steering"
)

// E1 reproduces Baudet's unbounded-delay example from Section II: processor
// P0 updates component 1 in unit time while P1's k-th updating phase takes
// k time units; the delay in the labels of component 2 grows like sqrt(j),
// so delays are unbounded yet condition b) (lim l(j) = +inf) holds.
func E1() *Report {
	rep := &Report{ID: "E1", Title: "Baudet's unbounded-delay example: d(j) ~ sqrt(j), condition b) holds"}

	// Analytic model: delay.SqrtGrowth.
	m := delay.SqrtGrowth{}
	tb := metrics.NewTable("label delays of the slow component (analytic model)",
		"j", "l(j)", "d(j)=j-l(j)", "d(j)/sqrt(j)")
	for _, j := range []int{16, 64, 256, 1024, 4096, 16384, 65536} {
		l := m.Label(1, j)
		d := j - l
		tb.AddRow(j, l, d, float64(d)/math.Sqrt(float64(j)))
	}
	rep.Tables = append(rep.Tables, tb)

	cond := delay.CheckConditions(m, 2, 20000)
	rep.Note("conditions over horizon %d: a)=%v b)=%v maxDelay=%d meanDelay=%.2f",
		cond.Horizon, cond.AOK, cond.BOK, cond.MaxDelay, cond.MeanDelay)

	// Systems model: DES with Baudet's costs; measure the delay P0 observes.
	sys, rhs := diagDominantSystem(2, 3)
	op := operators.JacobiFromSystem(sys, rhs)
	xstar, _ := sys.SolveGaussian(rhs)
	res, err := repro.Solve(repro.Spec{
		Problem: repro.Problem{Op: op, X0: offsetStart(xstar), XStar: xstar},
		Execution: repro.Execution{
			Workers: 2,
			Cost: func(w, k int) float64 {
				if w == 0 {
					return 1
				}
				return float64(k)
			},
			Latency: des.FixedLatency(0.01),
			Seed:    4,
		},
		Stopping: repro.Stopping{MaxUpdates: 4000},
		Engine:   repro.EngineSim,
	})
	if err != nil {
		rep.Note("DES error: %v", err)
		return rep
	}
	tb2 := metrics.NewTable("delays observed in the simulated run (worker P0 reading P1)",
		"global j", "min label", "delay", "delay/sqrt(j)")
	count := 0
	sim, _ := res.SimDetail()
	for _, r := range sim.Records {
		if r.Worker == 0 && r.J >= 64 && (r.J&(r.J-1)) == 0 { // powers of two
			d := r.J - r.MinLabel
			tb2.AddRow(r.J, r.MinLabel, d, float64(d)/math.Sqrt(float64(r.J)))
			count++
		}
	}
	rep.Tables = append(rep.Tables, tb2)
	rep.Pass = cond.AOK && cond.BOK && count > 0
	return rep
}

// E2 validates Theorem 1: on a lasso problem with diagonally dominant
// Hessian, the asynchronous iteration with flexible communication satisfies
// ||x(j)-x*||^2 <= (1-rho)^k max_i ||x_i(0)-x*||^2 with rho = gamma*mu.
func E2() *Report {
	rep := &Report{ID: "E2", Title: "Theorem 1: measured error vs (1-rho)^k bound across macro-iterations"}
	reg, err := mldata.NewRegression(mldata.RegressionConfig{
		N: 64, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 21,
	})
	if err != nil {
		rep.Note("generation error: %v", err)
		return rep
	}
	f := reg.Smooth()
	gamma := operators.MaxStep(f)
	op := operators.NewProxGradBF(f, prox.L1{Lambda: 0.02}, gamma)
	ystar, ok := operators.FixedPoint(op, make([]float64, f.Dim()), 1e-13, 500000)
	if !ok {
		rep.Note("reference solve failed")
		return rep
	}
	res, err := repro.Solve(repro.Spec{
		Problem:  repro.Problem{Op: op, X0: offsetStart(ystar), XStar: ystar},
		Dynamics: repro.Dynamics{Delay: delay.BoundedRandom{B: 8, Seed: 22}, Theta: 0.5},
		Stopping: repro.Stopping{Tol: 1e-11, MaxIter: 2000000},
	})
	if err != nil || !res.Converged {
		rep.Note("run failed: err=%v", err)
		return rep
	}
	mres, _ := res.ModelDetail()
	rho := operators.TheoreticalRho(f, gamma)
	t1, err := repro.CheckTheorem1(mres, rho)
	if err != nil {
		rep.Note("check error: %v", err)
		return rep
	}
	tb := metrics.NewTable("squared max-norm error at strict macro-iteration boundaries",
		"k", "measured err^2", "bound (1-rho)^k * e0^2", "ratio")
	for _, k := range sampledIndices(len(t1.ErrSqAtBoundaries), 12) {
		meas, bound := t1.ErrSqAtBoundaries[k], t1.BoundAtBoundaries[k]
		ratio := 0.0
		if bound > 0 {
			ratio = meas / bound
		}
		tb.AddRow(k+1, meas, bound, ratio)
	}
	rep.Tables = append(rep.Tables, tb)
	l, mu := f.LMu()
	rep.Note("L=%.3f mu=%.3f gamma=%.4f rho=%.4f", l, mu, gamma, rho)
	rep.Note("bound holds: %v (worst measured/bound ratio %.3g at iteration %d)",
		t1.Holds, t1.WorstRatio, t1.WorstIter)
	rep.Note("per-macro-iteration squared-error rate: measured %.4f vs bound %.4f",
		t1.MeasuredRatePerK, t1.BoundRatePerK)
	rep.Pass = t1.Holds && t1.MeasuredRatePerK <= t1.BoundRatePerK+1e-9
	return rep
}

// E3 measures the paper's Section II advantage claims: asynchronous
// iterations eliminate synchronization idle time and cope with load
// imbalance; the gap over barrier-synchronous execution widens as the
// imbalance grows.
func E3() *Report {
	rep := &Report{ID: "E3", Title: "Async vs sync under load imbalance (virtual time to 1e-8)"}
	sys, rhs := diagDominantSystem(64, 31)
	op := operators.JacobiFromSystem(sys, rhs)
	xstar, _ := sys.SolveGaussian(rhs)
	x0 := offsetStart(xstar)

	tb := metrics.NewTable("4 workers, worker 3 slowed by the imbalance factor",
		"imbalance", "sync time", "async time", "async speedup", "sync idle (fast worker)")
	pass := true
	var spFirst, spLast float64
	for _, imb := range []float64{1, 2, 4, 8} {
		costs := []float64{1, 1, 1, imb}
		base := repro.Spec{
			Problem: repro.Problem{Op: op, X0: x0, XStar: xstar},
			Execution: repro.Execution{
				Workers: 4,
				Cost:    des.HeterogeneousCost(costs),
				Latency: des.FixedLatency(0.2),
				Seed:    32,
			},
			Stopping: repro.Stopping{Tol: 1e-8, MaxUpdates: 4000000},
		}
		// A trace turns on the per-worker time split (Report.PerWorker).
		syncRes, err1 := repro.Solve(base, repro.WithEngine(repro.EngineSimSync), repro.WithTrace(&repro.TraceLog{}))
		asyncRes, err2 := repro.Solve(base, repro.WithEngine(repro.EngineSim))
		if err1 != nil || err2 != nil || !syncRes.Converged || !asyncRes.Converged {
			rep.Note("imbalance %v: run failed", imb)
			pass = false
			continue
		}
		fast := syncRes.PerWorker[0]
		sp := metrics.Speedup(syncRes.Time, asyncRes.Time)
		tb.AddRow(imb, syncRes.Time, asyncRes.Time, sp, (fast.Elapsed - fast.Compute).Seconds())
		if imb == 1 {
			spFirst = sp
		}
		spLast = sp
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("expected shape: a crossover — balanced loads may favour the synchronous method")
	rep.Note("(fresh reads every round), but the async advantage grows with imbalance and")
	rep.Note("async wins once the straggler dominates the barrier")
	// Acceptance: the advantage grows with imbalance and async wins at the
	// heaviest imbalance (the crossover the paper's claims predict).
	rep.Pass = pass && spLast > spFirst && spLast > 1
	return rep
}

// E4 compares flexible communication against plain asynchronous iteration
// on the network-flow workload ([9],[10]: flexible communication improves
// efficiency when updating phases are long relative to link latency).
func E4() *Report {
	rep := &Report{ID: "E4", Title: "Flexible vs plain asynchronous communication (network flow)"}
	net, err := buildFlowGrid()
	if err != nil {
		rep.Note("network error: %v", err)
		return rep
	}
	op := newFlowOp(net)
	pstar, ok := operators.FixedPoint(op, make([]float64, op.Dim()), 1e-12, 200000)
	if !ok {
		rep.Note("reference relaxation failed")
		return rep
	}
	tb := metrics.NewTable("6x6 grid, 4 workers, long phases (cost 4) over fast links (latency 0.05)",
		"mode", "virtual time", "updates", "partial sends")
	base := repro.Spec{
		Problem: repro.Problem{Op: op, X0: offsetStart(pstar), XStar: pstar},
		Execution: repro.Execution{
			Workers: 4,
			Cost:    des.UniformCost(4),
			Latency: des.FixedLatency(0.05),
			Seed:    41,
		},
		Stopping: repro.Stopping{Tol: 1e-7, MaxUpdates: 4000000},
		Engine:   repro.EngineSim,
	}
	plain, err := repro.Solve(base)
	if err != nil || !plain.Converged {
		rep.Note("plain run failed: %v", err)
		return rep
	}
	tb.AddRow("plain async", plain.Time, plain.Updates, 0)

	flex, err := repro.Solve(base, repro.WithFlexible(flexSchedule4()))
	if err != nil || !flex.Converged {
		rep.Note("flexible run failed: %v", err)
		return rep
	}
	partials := (flex.MessagesSent - plain.MessagesSent)
	tb.AddRow("async + flexible", flex.Time, flex.Updates, partials)
	rep.Tables = append(rep.Tables, tb)
	rep.Note("expected shape: flexible <= plain in virtual time (partial updates propagate early)")
	rep.Pass = flex.Time <= plain.Time*1.02
	return rep
}

// E5 quantifies the Section IV comparison between macro-iteration sequences
// (Miellou) and epoch sequences (Mishchenko et al. [30]): under
// out-of-order message consumption, epochs close while information from
// before the previous epoch is still in use (staleness violations), whereas
// the strict macro-iteration sequence never admits such reads.
func E5() *Report {
	rep := &Report{ID: "E5", Title: "Macro-iterations vs epochs under out-of-order messages"}
	sys, rhs := diagDominantSystem(8, 51)
	op := operators.JacobiFromSystem(sys, rhs)
	xstar, _ := sys.SolveGaussian(rhs)

	tb := metrics.NewTable("cyclic steering over 8 components, 20000 iterations",
		"OOO window", "def2 macro", "strict macro", "epochs",
		"epoch staleness", "strict staleness")
	pass := true
	anyViolation := false
	for _, w := range []int{1, 4, 16, 64} {
		var dm delay.Model
		if w <= 1 {
			dm = delay.Fresh{}
		} else {
			dm = delay.OutOfOrder{W: w, Seed: uint64(50 + w)}
		}
		// The staleness counts walk the per-iteration log, so this run asks
		// the model engine for it.
		res, err := core.Run(core.Config{
			Op: op, X0: offsetStart(xstar), XStar: xstar,
			Steering: steering.NewCyclic(8), Delay: dm,
			MaxIter: 20000, KeepRecords: true,
		})
		if err != nil {
			rep.Note("window %d: %v", w, err)
			pass = false
			continue
		}
		epochStale := macroiter.EpochStaleness(res.Epochs, res.Records)
		strictStale := macroiter.EpochStaleness(res.StrictBoundaries, res.Records)
		tb.AddRow(w, len(res.Boundaries), len(res.StrictBoundaries),
			len(res.Epochs), epochStale, strictStale)
		if strictStale != 0 {
			pass = false
		}
		if epochStale > 0 {
			anyViolation = true
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("expected shape: epoch staleness grows with the reordering window; strict macro staleness is always 0")
	rep.Pass = pass && anyViolation
	return rep
}
