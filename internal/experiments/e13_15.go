package experiments

import (
	"repro"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/macroiter"
	"repro/internal/metrics"
	"repro/internal/multigrid"
	"repro/internal/newton"
	"repro/internal/operators"
	"repro/internal/steering"
	"repro/internal/vec"
)

// E13 compares the asynchronous second-order operators of [25] (modified
// Newton with diagonal curvature, block Newton, and Newton multisplitting)
// against the first-order gradient operator on the same strongly convex
// quadratic: more curvature per update means fewer updates to converge,
// and all variants converge totally asynchronously.
func E13() *Report {
	rep := &Report{ID: "E13", Title: "Asynchronous modified Newton and multisplitting ([25]) vs gradient"}
	n := 24
	rng := newRNG(131)
	q := newDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := 0.3 * rng.Normal()
			q.Set(i, j, v)
			q.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				v := q.At(i, j)
				if v < 0 {
					v = -v
				}
				off += v
			}
		}
		q.Set(i, i, 1.5*off+1)
	}
	b := rng.NormalVector(n)
	f := operators.NewQuadratic(q, b, 0)
	hp := newton.QuadraticHessian{Quadratic: f}
	xstar, err := f.Minimizer()
	if err != nil {
		rep.Note("minimizer failed: %v", err)
		return rep
	}

	ops := []operators.Operator{
		operators.NewGradOp(f, operators.MaxStep(f)),
		newton.NewDiagNewton(hp, 1.0),
		newton.NewBlockNewton(hp, 1.0, 6),
		newton.NewBlockNewton(hp, 1.0, 3),
		newton.NewMultisplitting(hp, 1.0, 6),
	}
	tb := metrics.NewTable("24-dim diagonally dominant quadratic, bounded random delays B=8, iterations to 1e-10",
		"operator", "iterations", "macro-iterations", "converged")
	pass := true
	iters := map[string]int{}
	for _, op := range ops {
		res, err := repro.Solve(repro.Spec{
			Problem: repro.Problem{Op: op, X0: offsetStart(xstar), XStar: xstar},
			Dynamics: repro.Dynamics{
				Steering: steering.NewCyclic(n),
				Delay:    delay.BoundedRandom{B: 8, Seed: 132},
			},
			Stopping: repro.Stopping{Tol: 1e-10, MaxIter: 4000000},
		})
		if err != nil || !res.Converged {
			rep.Note("%s failed", op.Name())
			pass = false
			continue
		}
		tb.AddRow(op.Name(), res.Iterations, len(res.Boundaries), res.Converged)
		iters[op.Name()] = res.Iterations
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("expected shape: block Newton needs fewer iterations than diagonal Newton,")
	rep.Note("which needs no more than the gradient operator; multisplitting sits between")
	grad := iters[ops[0].Name()]
	diag := iters[ops[1].Name()]
	blk3 := iters[ops[3].Name()]
	rep.Pass = pass && blk3 <= diag && diag <= grad
	return rep
}

// E14 reproduces the paper's introduction claim (via [5]) that asynchronous
// block relaxation makes an effective multigrid smoother: chaotic
// (free-steering, stale-mixing) smoothing achieves V-cycle convergence
// factors comparable to synchronous damped Jacobi, independent of grid
// size.
func E14() *Report {
	rep := &Report{ID: "E14", Title: "Asynchronous (chaotic) relaxation as a multigrid smoother ([5])"}
	tb := metrics.NewTable("2-D Poisson V(nu,nu)-cycles, convergence factor per cycle (geometric mean)",
		"grid", "smoother", "nu", "factor", "cycles to 1e-10")
	pass := true
	for _, n := range []int{15, 31, 63} {
		f := multigrid.PoissonRHS(n, func(x, y float64) float64 { return 1 + x*y })
		for _, sm := range []multigrid.Smoother{multigrid.SmootherJacobi, multigrid.SmootherChaotic} {
			for _, nu := range []int{1, 2} {
				s, err := multigrid.NewSolver(n)
				if err != nil {
					rep.Note("solver: %v", err)
					pass = false
					continue
				}
				s.Smoother = sm
				s.Seed = uint64(140 + n)
				s.PreSmooth, s.PostSmooth = nu, nu
				_, cycles, factors, ok := s.Solve(f, 1e-10, 100)
				if !ok {
					rep.Note("n=%d %v nu=%d did not converge", n, sm, nu)
					pass = false
					continue
				}
				mf := multigrid.MeanConvergenceFactor(factors)
				tb.AddRow(n, sm.String(), nu, mf, cycles)
				if mf > 0.6 {
					pass = false
				}
			}
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("expected shape: factors bounded away from 1 independent of grid size;")
	rep.Note("chaotic smoothing competitive with (often better than) damped Jacobi")
	rep.Pass = pass
	return rep
}

// E15 demonstrates the macro-iteration stopping criterion of Miellou,
// Spiteri and El Baz [15]: under heavy delays, the naive rule "stop when
// the last W updates all moved less than tol" fires while the true error is
// still large (stale re-reads make updates look converged), whereas
// requiring small displacements over consecutive *macro-iteration* windows
// is reliable.
func E15() *Report {
	rep := &Report{ID: "E15", Title: "Stopping criteria: naive displacement window vs macro-iteration rule ([15])"}
	n := 8
	sys, rhs := diagDominantSystem(n, 151)
	op := operators.JacobiFromSystem(sys, rhs)
	xstar, _ := sys.SolveGaussian(rhs)
	x0 := offsetStart(xstar)

	// Heavy constant delay: for a long prefix every read is the initial
	// vector, so re-updates move by exactly zero while the error is huge.
	dm := delay.Constant{D: 64}
	pol := steering.NewCyclic(n)
	tol := 1e-6

	hist := core.NewHistory(x0)
	tracker := macroiter.NewTracker(n)
	type stopEvent struct {
		iter int
		err  float64
	}
	var naive, macroRule *stopEvent

	// Naive rule state: sliding count of consecutive small displacements.
	smallStreak := 0
	// Macro rule state ([15]): displacement maximum within the current
	// macro window; require 2 consecutive windows below tol.
	windowMax := 0.0
	windowStreak := 0
	prevK := 0

	labels := make([]int, n)
	maxIter := 20000
	for j := 1; j <= maxIter; j++ {
		S := pol.Select(j)
		xread, minLabel, _ := hist.Read(dm, j, labels)
		disp := 0.0
		for _, i := range S {
			v := op.Component(i, xread)
			if d := v - hist.Latest(i); d > disp {
				disp = d
			} else if -d > disp {
				disp = -d
			}
			hist.Set(i, j, v)
		}
		tracker.Observe(j, S, minLabel)

		errNow := vec.DistInf(hist.LatestSnapshot(), xstar)
		// Naive: W = n consecutive updates below tol.
		if disp <= tol {
			smallStreak++
		} else {
			smallStreak = 0
		}
		if naive == nil && smallStreak >= n {
			naive = &stopEvent{iter: j, err: errNow}
		}
		// Macro rule: track window displacement maxima.
		if disp > windowMax {
			windowMax = disp
		}
		if k := tracker.K(); k > prevK {
			if windowMax <= tol {
				windowStreak++
			} else {
				windowStreak = 0
			}
			windowMax = 0
			prevK = k
			if macroRule == nil && windowStreak >= 2 {
				macroRule = &stopEvent{iter: j, err: errNow}
			}
		}
		if naive != nil && macroRule != nil {
			break
		}
	}

	tb := metrics.NewTable("constant delay D=64, tol=1e-6, true error at the moment each rule fires",
		"rule", "fires at iteration", "true error then", "reliable (err <= 10*tol)")
	pass := true
	if naive == nil {
		rep.Note("naive rule never fired")
		pass = false
	} else {
		tb.AddRow("naive: n consecutive small updates", naive.iter, naive.err, naive.err <= 10*tol)
	}
	if macroRule == nil {
		rep.Note("macro rule never fired")
		pass = false
	} else {
		tb.AddRow("[15]: 2 consecutive macro windows small", macroRule.iter, macroRule.err, macroRule.err <= 10*tol)
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("expected shape: the naive rule fires early at a large true error (stale re-reads")
	rep.Note("masquerade as convergence); the macro-iteration rule fires only when genuinely converged")
	if naive != nil && macroRule != nil {
		rep.Pass = pass && naive.err > 10*tol && macroRule.err <= 10*tol &&
			naive.iter < macroRule.iter
	}
	return rep
}
