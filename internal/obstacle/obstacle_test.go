package obstacle

import (
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/operators"
	"repro/internal/steering"
	"repro/internal/vec"
)

func TestNewSamplesGrid(t *testing.T) {
	p, err := New(3, func(x, y float64) float64 { return x + y },
		func(x, y float64) float64 { return -1 })
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 9 {
		t.Fatalf("Dim = %d", p.Dim())
	}
	// Centre point is (0.5, 0.5): load = 1.
	if p.F[4] != 1.0 {
		t.Errorf("F[4] = %v, want 1", p.F[4])
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil, nil); err == nil {
		t.Error("expected error for empty grid")
	}
}

func TestUnconstrainedMatchesPoisson(t *testing.T) {
	// With the obstacle far below, the problem reduces to the Poisson
	// equation; compare against a direct sparse solve.
	n := 6
	p, err := New(n, func(x, y float64) float64 { return 1 },
		func(x, y float64) float64 { return -1e6 })
	if err != nil {
		t.Fatal(err)
	}
	u, ok := operators.FixedPoint(p, make([]float64, p.Dim()), 1e-12, 100000)
	if !ok {
		t.Fatal("did not converge")
	}
	// Assemble and solve the 5-point Laplacian directly.
	dim := n * n
	m := vec.NewDense(dim, dim)
	rhs := make([]float64, dim)
	h2 := p.H * p.H
	for i := 0; i < dim; i++ {
		r, c := i/n, i%n
		m.Set(i, i, 4)
		if r > 0 {
			m.Set(i, i-n, -1)
		}
		if r < n-1 {
			m.Set(i, i+n, -1)
		}
		if c > 0 {
			m.Set(i, i-1, -1)
		}
		if c < n-1 {
			m.Set(i, i+1, -1)
		}
		rhs[i] = h2 * p.F[i]
	}
	want, err := m.SolveGaussian(rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(u, want, 1e-8) {
		t.Error("projected Jacobi (inactive obstacle) deviates from Poisson solve")
	}
}

func TestMembraneComplementarity(t *testing.T) {
	p := Membrane(12)
	u, ok := operators.FixedPoint(p, p.Supersolution(), 1e-12, 400000)
	if !ok {
		t.Fatal("did not converge")
	}
	rep := p.CheckComplementarity(u)
	if rep.MinGap < -1e-9 {
		t.Errorf("feasibility violated: min gap %v", rep.MinGap)
	}
	if rep.WorstResidual < -1e-6 {
		t.Errorf("supersolution residual violated: %v", rep.WorstResidual)
	}
	if rep.WorstSlackProduct > 1e-6 {
		t.Errorf("complementary slackness violated: %v", rep.WorstSlackProduct)
	}
	if len(p.ContactSet(u, 1e-9)) == 0 {
		t.Error("obstacle never touched; instance is degenerate")
	}
}

func TestMonotoneDecreaseFromSupersolution(t *testing.T) {
	p := Membrane(8)
	u := p.Supersolution()
	next := make([]float64, p.Dim())
	for sweep := 0; sweep < 50; sweep++ {
		operators.Apply(p, next, u)
		for i := range next {
			if next[i] > u[i]+1e-12 {
				t.Fatalf("sweep %d: component %d increased: %v -> %v",
					sweep, i, u[i], next[i])
			}
		}
		copy(u, next)
	}
}

func TestAsyncMatchesSyncSolution(t *testing.T) {
	p := Membrane(8)
	want, ok := operators.FixedPoint(p, p.Supersolution(), 1e-12, 400000)
	if !ok {
		t.Fatal("sync reference did not converge")
	}
	res, err := core.Run(core.Config{
		Op:       p,
		Steering: steering.NewBlockCyclic(p.Dim(), 4),
		Delay:    delay.BoundedRandom{B: 10, Seed: 3},
		X0:       p.Supersolution(),
		XStar:    want,
		Tol:      1e-9,
		MaxIter:  4000000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("async obstacle run did not converge; err %v",
			res.Errors[len(res.Errors)-1])
	}
}

func TestFlexibleAdmissibleOnMonotoneRun(t *testing.T) {
	// Obstacle iterates decrease monotonically from a supersolution, so
	// flexible communication must produce zero constraint-3 violations.
	p := Membrane(6)
	want, ok := operators.FixedPoint(p, p.Supersolution(), 1e-12, 400000)
	if !ok {
		t.Fatal("reference did not converge")
	}
	res, err := core.Run(core.Config{
		Op:               p,
		Steering:         steering.NewBlockCyclic(p.Dim(), 3),
		Delay:            delay.BoundedRandom{B: 6, Seed: 4},
		Theta:            0.7,
		X0:               p.Supersolution(),
		XStar:            want,
		Tol:              1e-9,
		MaxIter:          4000000,
		CheckConstraint3: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("flexible obstacle run did not converge")
	}
	if res.Constraint3Violations != 0 {
		t.Errorf("constraint (3) violated %d times on monotone run",
			res.Constraint3Violations)
	}
}
