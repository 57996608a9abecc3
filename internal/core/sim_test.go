package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/delay"
	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/steering"
	"repro/internal/vec"
)

// testSystem returns a diagonally dominant Jacobi operator and its exact
// fixed point.
func testSystem(t *testing.T, n int) (*operators.Linear, []float64) {
	t.Helper()
	rng := vec.NewRNG(123)
	m := vec.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 0.5*rng.Normal())
			}
		}
	}
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(m.At(i, j))
			}
		}
		m.Set(i, i, off*1.5+1)
	}
	rhs := rng.NormalVector(n)
	op := operators.JacobiFromSystem(m, rhs)
	if cf := op.ContractionFactor(); cf >= 1 {
		t.Fatalf("test operator not contracting: %v", cf)
	}
	xstar, err := m.SolveGaussian(rhs)
	if err != nil {
		t.Fatal(err)
	}
	return op, xstar
}

func TestRunRequiresOperator(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("expected error for missing operator")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	op, _ := testSystem(t, 3)
	if _, err := Run(Config{Op: op, X0: []float64{1}}); err == nil {
		t.Error("expected X0 length error")
	}
	if _, err := Run(Config{Op: op, Theta: 2}); err == nil {
		t.Error("expected Theta range error")
	}
	if _, err := Run(Config{Op: op, Weights: []float64{1}}); err == nil {
		t.Error("expected Weights length error")
	}
}

func TestRunSynchronousJacobiConverges(t *testing.T) {
	op, xstar := testSystem(t, 8)
	res, err := Run(Config{
		Op:       op,
		Steering: steering.NewAll(8),
		Delay:    delay.Fresh{},
		XStar:    xstar,
		Tol:      1e-10,
		MaxIter:  10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge; final error %v", res.Errors[len(res.Errors)-1])
	}
	if !vec.Equal(res.X, xstar, 1e-9) {
		t.Errorf("X = %v, want %v", res.X, xstar)
	}
	// Jacobi with fresh labels: every iteration covers all components, so
	// each iteration is a macro-iteration.
	if len(res.Boundaries) != res.Iterations {
		t.Errorf("Jacobi should have one macro-iteration per sweep: %d vs %d",
			len(res.Boundaries), res.Iterations)
	}
}

func TestRunAsyncCyclicConverges(t *testing.T) {
	op, xstar := testSystem(t, 8)
	res, err := Run(Config{
		Op:       op,
		Steering: steering.NewCyclic(8),
		Delay:    delay.BoundedRandom{B: 6, Seed: 1},
		XStar:    xstar,
		Tol:      1e-10,
		MaxIter:  100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("bounded-delay async run did not converge")
	}
	if len(res.Boundaries) == 0 || len(res.StrictBoundaries) == 0 {
		t.Error("no macro-iterations recorded")
	}
	if len(res.Epochs) == 0 {
		t.Error("no epochs recorded")
	}
}

func TestRunUnboundedDelaysConverge(t *testing.T) {
	// Baudet's regime: delays grow like sqrt(j) yet the iteration converges
	// because condition b) holds.
	op, xstar := testSystem(t, 6)
	res, err := Run(Config{
		Op:       op,
		Steering: steering.NewCyclic(6),
		Delay:    delay.SqrtGrowth{},
		XStar:    xstar,
		Tol:      1e-8,
		MaxIter:  300000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("unbounded-delay run did not converge; error %v",
			res.Errors[len(res.Errors)-1])
	}
}

func TestRunOutOfOrderConverges(t *testing.T) {
	op, xstar := testSystem(t, 6)
	res, err := Run(Config{
		Op:       op,
		Steering: steering.NewCyclic(6),
		Delay:    delay.OutOfOrder{W: 12, Seed: 3},
		XStar:    xstar,
		Tol:      1e-10,
		MaxIter:  200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("out-of-order run did not converge")
	}
}

func TestFlexibleCommunicationSpeedsConvergence(t *testing.T) {
	// With heavy delays, blending reads toward fresher partial state
	// (Theta > 0) should not slow convergence — typically it accelerates it
	// ([9],[10]'s empirical claim).
	op, xstar := testSystem(t, 8)
	run := func(theta float64) int {
		res, err := Run(Config{
			Op:       op,
			Steering: steering.NewCyclic(8),
			Delay:    delay.BoundedRandom{B: 16, Seed: 7},
			Theta:    theta,
			XStar:    xstar,
			Tol:      1e-10,
			MaxIter:  400000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("theta=%v did not converge", theta)
		}
		return res.Iterations
	}
	plain := run(0)
	flex := run(0.8)
	if flex > plain {
		t.Errorf("flexible (%d iters) slower than plain async (%d iters)", flex, plain)
	}
}

// monotoneSystem builds a Jacobi operator with a nonnegative iteration
// matrix (M-matrix source system) and a start above the fixed point: the
// async iterates then decrease monotonically componentwise — the monotone
// convergence regime in which the paper says flexible communication is
// naturally admissible.
func monotoneSystem(t *testing.T, n int) (*operators.Linear, []float64, []float64) {
	t.Helper()
	rng := vec.NewRNG(77)
	m := vec.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, -rng.Range(0, 0.5)) // nonpositive off-diagonals
			}
		}
	}
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(m.At(i, j))
			}
		}
		m.Set(i, i, off*1.5+1)
	}
	rhs := rng.RandomVector(n, 0.5, 2)
	op := operators.JacobiFromSystem(m, rhs) // A = -M_offdiag/D >= 0
	xstar, err := m.SolveGaussian(rhs)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = xstar[i] + 1 + rng.Float64()
	}
	return op, xstar, x0
}

func TestConstraint3NoViolationsOnMonotoneRun(t *testing.T) {
	op, xstar, x0 := monotoneSystem(t, 6)
	res, err := Run(Config{
		Op:               op,
		Steering:         steering.NewCyclic(6),
		Delay:            delay.BoundedRandom{B: 8, Seed: 5},
		Theta:            0.5,
		X0:               x0,
		XStar:            xstar,
		Tol:              1e-10,
		MaxIter:          200000,
		CheckConstraint3: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Constraint3Violations != 0 {
		t.Errorf("constraint (3) violated %d times on a monotone run",
			res.Constraint3Violations)
	}
}

func TestConstraint3ViolationsAreRareOnNonMonotoneRun(t *testing.T) {
	// Without monotonicity the engine cannot guarantee (3) for every read;
	// the theory's assumption may be transiently violated, but violations
	// must remain a small fraction of iterations.
	op, xstar := testSystem(t, 6)
	res, err := Run(Config{
		Op:               op,
		Steering:         steering.NewCyclic(6),
		Delay:            delay.BoundedRandom{B: 8, Seed: 5},
		Theta:            0.5,
		XStar:            xstar,
		Tol:              1e-10,
		MaxIter:          200000,
		CheckConstraint3: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if frac := float64(res.Constraint3Violations) / float64(res.Iterations); frac > 0.05 {
		t.Errorf("constraint (3) violation fraction %v too high", frac)
	}
}

func TestGaussSouthwellSteering(t *testing.T) {
	op, xstar := testSystem(t, 8)
	gs := steering.NewFair(steering.NewGaussSouthwell(8), 8, 32)
	res, err := Run(Config{
		Op:       op,
		Steering: gs,
		XStar:    xstar,
		Tol:      1e-10,
		MaxIter:  50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("Gauss-Southwell run did not converge")
	}
}

func TestErrorsMonotoneEnough(t *testing.T) {
	// The error sequence need not be monotone under delays, but it must
	// decay overall: final error far below initial.
	op, xstar := testSystem(t, 6)
	res, err := Run(Config{
		Op:      op,
		Delay:   delay.BoundedRandom{B: 10, Seed: 2},
		XStar:   xstar,
		Tol:     1e-9,
		MaxIter: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors[len(res.Errors)-1] >= res.Errors[0] {
		t.Error("error did not decrease")
	}
}

func TestResidualStoppingWithoutXStar(t *testing.T) {
	op, xstar := testSystem(t, 6)
	res, err := Run(Config{
		Op:      op,
		Tol:     1e-9,
		MaxIter: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("residual-based stop did not trigger")
	}
	if !vec.Equal(res.X, xstar, 1e-6) {
		t.Errorf("converged away from fixed point")
	}
	if len(res.Residuals) == 0 {
		t.Error("no residual samples recorded")
	}
	if res.FinalResidual > 1e-8 {
		t.Errorf("FinalResidual = %v", res.FinalResidual)
	}
}

func TestWorkerOfGroupsEpochs(t *testing.T) {
	op, _ := testSystem(t, 8)
	blocks := vec.Blocks(8, 2)
	res, err := Run(Config{
		Op:       op,
		Steering: steering.NewBlockCyclic(8, 2),
		WorkerOf: func(i int) int { return vec.BlockOf(blocks, i) },
		Workers:  2,
		MaxIter:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 machines alternate blocks; each epoch needs 2 updates per machine =
	// 4 iterations.
	if len(res.Epochs) != 25 {
		t.Errorf("epochs = %d, want 25", len(res.Epochs))
	}

	// Without WorkerOf every component is its own machine. Random 3-subsets
	// of 8 give uneven epochs, so a worker left marked from one iteration
	// (or from the previous run on the kept scratch) moves a boundary.
	want := []int{8, 16, 26, 33, 44, 55}
	scratch := NewRunScratch()
	for run := 0; run < 2; run++ {
		res, err := Run(Config{
			Op:       op,
			Steering: steering.NewRandomSubset(8, 3, 5),
			MaxIter:  60,
			Scratch:  scratch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Epochs, want) {
			t.Errorf("run %d: nil WorkerOf epochs = %v, want %v", run, res.Epochs, want)
		}
	}
}

func TestTheorem1BoundHolds(t *testing.T) {
	// Separable strongly convex f + L1: the Definition 4 operator contracts
	// in max norm with factor exactly 1 - gamma*mu at gamma = 2/(mu+L).
	a := []float64{1, 1.5, 2, 3}
	tt := []float64{2, -1, 0.5, -0.25}
	f := operators.NewSeparable(a, tt)
	g := prox.L1{Lambda: 0.3}
	gamma := operators.MaxStep(f)
	op := operators.NewProxGradBF(f, g, gamma)
	ystar, ok := operators.FixedPoint(op, make([]float64, 4), 1e-14, 200000)
	if !ok {
		t.Fatal("reference fixed point not found")
	}
	res, err := Run(Config{
		Op:       op,
		Steering: steering.NewCyclic(4),
		Delay:    delay.BoundedRandom{B: 4, Seed: 11},
		Theta:    0.5,
		X0:       []float64{5, 5, 5, 5},
		XStar:    ystar,
		Tol:      1e-12,
		MaxIter:  100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("prox-grad run did not converge")
	}
	rho := operators.TheoreticalRho(f, gamma)
	rep, err := CheckTheorem1(res, rho)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Errorf("Theorem 1 bound violated: worst ratio %v at iteration %d",
			rep.WorstRatio, rep.WorstIter)
	}
	if rep.K == 0 {
		t.Error("no macro-iterations for bound check")
	}
	if !(rep.MeasuredRatePerK <= rep.BoundRatePerK+1e-9) {
		t.Errorf("measured rate %v slower than bound %v",
			rep.MeasuredRatePerK, rep.BoundRatePerK)
	}
}

func TestCheckTheorem1Errors(t *testing.T) {
	if _, err := CheckTheorem1(&Result{}, 0.5); err == nil {
		t.Error("expected error without Errors")
	}
	if _, err := CheckTheorem1(&Result{Errors: []float64{1}}, 1.5); err == nil {
		t.Error("expected error for rho out of range")
	}
}

func TestRecordsMatchIterations(t *testing.T) {
	op, _ := testSystem(t, 4)
	res, err := Run(Config{Op: op, MaxIter: 57, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 57 || res.Iterations != 57 {
		t.Errorf("records %d, iterations %d", len(res.Records), res.Iterations)
	}
	for k, r := range res.Records {
		if r.J != k+1 {
			t.Fatalf("record %d has J=%d", k, r.J)
		}
	}
	if res.Updates != 57 { // cyclic relaxes one component per iteration
		t.Errorf("Updates = %d", res.Updates)
	}
}
