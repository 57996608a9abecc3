package operators

import (
	"math"
	"testing"

	"repro/internal/prox"
	"repro/internal/vec"
)

func diag3() *vec.Dense {
	return vec.DenseFromRows([][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	})
}

func TestLinearComponentMatchesApply(t *testing.T) {
	a := vec.DenseFromRows([][]float64{
		{0.2, 0.1},
		{-0.1, 0.3},
	})
	op := NewLinear(a, []float64{1, 2})
	x := []float64{3, -1}
	dst := make([]float64, 2)
	Apply(op, dst, x)
	for i := 0; i < 2; i++ {
		if got := op.Component(i, x); math.Abs(got-dst[i]) > 1e-15 {
			t.Errorf("Component(%d) = %v, Apply gives %v", i, got, dst[i])
		}
	}
}

func TestLinearContractionFactor(t *testing.T) {
	a := vec.DenseFromRows([][]float64{
		{0.2, 0.1},
		{-0.1, 0.3},
	})
	op := NewLinear(a, []float64{0, 0})
	if got := op.ContractionFactor(); math.Abs(got-0.4) > 1e-15 {
		t.Errorf("ContractionFactor = %v, want 0.4", got)
	}
}

func TestJacobiFromSystemSolves(t *testing.T) {
	m := diag3()
	rhs := []float64{1, 2, 3}
	op := JacobiFromSystem(m, rhs)
	if cf := op.ContractionFactor(); cf >= 1 {
		t.Fatalf("Jacobi operator not contracting: %v", cf)
	}
	x, ok := FixedPoint(op, make([]float64, 3), 1e-12, 10000)
	if !ok {
		t.Fatal("fixed point iteration did not converge")
	}
	want, err := m.SolveGaussian(rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(x, want, 1e-9) {
		t.Errorf("fixed point %v, direct solve %v", x, want)
	}
	if r := Residual(op, x); r > 1e-9 {
		t.Errorf("residual %v too large", r)
	}
}

func TestSparseLinearMatchesDense(t *testing.T) {
	m := diag3()
	rhs := []float64{1, 2, 3}
	dop := JacobiFromSystem(m, rhs)
	// Rebuild the same operator in CSR form.
	var entries []vec.COOEntry
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if v := dop.A.At(i, j); v != 0 {
				entries = append(entries, vec.COOEntry{Row: i, Col: j, Val: v})
			}
		}
	}
	sop := NewSparseLinear(vec.NewCSR(3, 3, entries), dop.B)
	x := []float64{0.3, -0.7, 1.1}
	for i := 0; i < 3; i++ {
		if math.Abs(sop.Component(i, x)-dop.Component(i, x)) > 1e-14 {
			t.Errorf("sparse/dense mismatch at %d", i)
		}
	}
	if math.Abs(sop.ContractionFactor()-dop.ContractionFactor()) > 1e-14 {
		t.Error("contraction factors differ")
	}
}

func TestRelaxedOperator(t *testing.T) {
	a := vec.NewDense(1, 1)
	a.Set(0, 0, 0.5)
	op := NewLinear(a, []float64{1}) // F(x) = 0.5x + 1, fixed point 2
	r := &Relaxed{Inner: op, Omega: 0.5}
	// F_omega(x) = 0.5x + 0.5(0.5x+1) = 0.75x + 0.5, fixed point still 2.
	if got := r.Component(0, []float64{0}); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("Relaxed(0) = %v", got)
	}
	x, ok := FixedPoint(r, []float64{0}, 1e-12, 1000)
	if !ok || math.Abs(x[0]-2) > 1e-9 {
		t.Errorf("Relaxed fixed point %v, want 2", x)
	}
}

func TestSeparableLMuExact(t *testing.T) {
	f := NewSeparable([]float64{1, 3, 2}, []float64{0, 0, 0})
	l, mu := f.LMu()
	if l != 3 || mu != 1 {
		t.Errorf("LMu = (%v, %v), want (3, 1)", l, mu)
	}
}

func TestSeparableGradAndValue(t *testing.T) {
	f := NewSeparable([]float64{2, 4}, []float64{1, -1})
	x := []float64{3, 0}
	if got := f.Value(x); math.Abs(got-(0.5*2*4+0.5*4*1)) > 1e-15 {
		t.Errorf("Value = %v", got)
	}
	g := make([]float64, 2)
	f.Grad(g, x)
	if !vec.Equal(g, []float64{4, 4}, 1e-15) {
		t.Errorf("Grad = %v", g)
	}
	for i := range g {
		if f.GradComponent(i, x) != g[i] {
			t.Errorf("GradComponent(%d) mismatch", i)
		}
	}
}

func TestQuadraticGradMatchesFiniteDifference(t *testing.T) {
	q := diag3()
	f := NewQuadratic(q, []float64{1, -2, 0.5}, 0)
	x := []float64{0.3, 0.1, -0.7}
	g := make([]float64, 3)
	f.Grad(g, x)
	const h = 1e-6
	for i := 0; i < 3; i++ {
		xp := vec.Clone(x)
		xm := vec.Clone(x)
		xp[i] += h
		xm[i] -= h
		fd := (f.Value(xp) - f.Value(xm)) / (2 * h)
		if math.Abs(fd-g[i]) > 1e-5 {
			t.Errorf("grad[%d] = %v, finite diff %v", i, g[i], fd)
		}
		if f.GradComponent(i, x) != g[i] {
			t.Errorf("GradComponent(%d) mismatch", i)
		}
	}
}

func TestQuadraticMinimizerIsGradOpFixedPoint(t *testing.T) {
	q := diag3()
	f := NewQuadratic(q, []float64{1, 1, 1}, 0)
	gamma := MaxStep(f)
	op := NewGradOp(f, gamma)
	x, ok := FixedPoint(op, make([]float64, 3), 1e-12, 50000)
	if !ok {
		t.Fatal("GradOp did not converge")
	}
	want, err := f.Minimizer()
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(x, want, 1e-8) {
		t.Errorf("GradOp fixed point %v, minimizer %v", x, want)
	}
}

func TestLeastSquaresGradient(t *testing.T) {
	a := vec.DenseFromRows([][]float64{
		{1, 0},
		{0, 2},
		{1, 1},
	})
	y := []float64{1, 2, 3}
	f := NewLeastSquares(a, y, 0.1)
	x := []float64{0.5, -0.25}
	g := make([]float64, 2)
	f.Grad(g, x)
	const h = 1e-6
	for i := 0; i < 2; i++ {
		xp := vec.Clone(x)
		xm := vec.Clone(x)
		xp[i] += h
		xm[i] -= h
		fd := (f.Value(xp) - f.Value(xm)) / (2 * h)
		if math.Abs(fd-g[i]) > 1e-5 {
			t.Errorf("grad[%d] = %v, finite diff %v", i, g[i], fd)
		}
		if math.Abs(f.GradComponent(i, x)-g[i]) > 1e-12 {
			t.Errorf("GradComponent(%d) mismatch", i)
		}
	}
	l, mu := f.LMu()
	if mu <= 0 || l < mu {
		t.Errorf("LMu = (%v, %v)", l, mu)
	}
}

func TestGradOpContractionWithinTheory(t *testing.T) {
	// Separable f: the max-norm contraction factor of I - gamma*grad f is
	// exactly max_i |1 - gamma*a_i| <= 1 - gamma*mu for gamma <= 2/(mu+L).
	f := NewSeparable([]float64{1, 2, 5}, []float64{0, 0, 0})
	gamma := MaxStep(f)
	op := NewGradOp(f, gamma)
	xstar := []float64{0, 0, 0}
	rng := vec.NewRNG(2)
	got := EstimateContraction(op, xstar, Ones(3), 300, 2.0, rng)
	_, mu := f.LMu()
	bound := 1 - gamma*mu
	if got > bound+1e-9 {
		t.Errorf("contraction %v exceeds theoretical %v", got, bound)
	}
}

func TestProxGradBFFixedPointSolvesComposite(t *testing.T) {
	// min 1/2 sum a_i (x_i - t_i)^2 + lambda ||x||_1 has the closed-form
	// solution x_i = soft(t_i, lambda/a_i).
	a := []float64{1, 2, 4}
	tt := []float64{3, -0.5, 0.05}
	lambda := 0.4
	f := NewSeparable(a, tt)
	g := prox.L1{Lambda: lambda}
	gamma := MaxStep(f)
	op := NewProxGradBF(f, g, gamma)
	y, ok := FixedPoint(op, make([]float64, 3), 1e-13, 100000)
	if !ok {
		t.Fatal("BF iteration did not converge")
	}
	x := op.Primal(y)
	want := make([]float64, 3)
	for i := range want {
		v := tt[i]
		th := lambda / a[i]
		switch {
		case v > th:
			want[i] = v - th
		case v < -th:
			want[i] = v + th
		default:
			want[i] = 0
		}
	}
	if !vec.Equal(x, want, 1e-8) {
		t.Errorf("BF primal %v, want %v", x, want)
	}
}

func TestProxGradFBFixedPointMatchesBFPrimal(t *testing.T) {
	a := []float64{1.5, 3}
	tt := []float64{2, -1}
	f := NewSeparable(a, tt)
	g := prox.L1{Lambda: 0.3}
	gamma := 0.9 * MaxStep(f)
	bf := NewProxGradBF(f, g, gamma)
	fb := NewProxGradFB(f, g, gamma)
	ybf, ok1 := FixedPoint(bf, make([]float64, 2), 1e-13, 100000)
	xfb, ok2 := FixedPoint(fb, make([]float64, 2), 1e-13, 100000)
	if !ok1 || !ok2 {
		t.Fatal("iterations did not converge")
	}
	if !vec.Equal(bf.Primal(ybf), xfb, 1e-8) {
		t.Errorf("BF primal %v != FB fixed point %v", bf.Primal(ybf), xfb)
	}
}

func TestInnerIteratedK1MatchesDefinition4(t *testing.T) {
	f := NewSeparable([]float64{2, 3}, []float64{1, -1})
	g := prox.L1{Lambda: 0.2}
	gamma := 0.5 * MaxStep(f)
	bf := NewProxGradBF(f, g, gamma)
	k1 := NewInnerIterated(f, g, gamma, 1)
	x := []float64{0.4, 0.6}
	a := make([]float64, 2)
	b := make([]float64, 2)
	Apply(bf, a, x)
	Apply(k1, b, x)
	if !vec.Equal(a, b, 1e-14) {
		t.Errorf("K=1 inner-iterated %v != Definition 4 %v", b, a)
	}
}

func TestInnerIteratedTrail(t *testing.T) {
	f := NewSeparable([]float64{2}, []float64{5})
	g := prox.Zero{}
	op := NewInnerIterated(f, g, 0.25, 3)
	out, trail := op.ApplyWithTrail([]float64{0})
	if len(trail) != 4 { // prox point + 3 gradient steps
		t.Fatalf("trail length %d, want 4", len(trail))
	}
	if !vec.Equal(trail[len(trail)-1], out, 0) {
		t.Error("last trail entry should equal output")
	}
	// Each gradient step halves the distance to 5 (1 - 0.25*2 = 0.5).
	for k := 1; k < len(trail); k++ {
		prev := math.Abs(trail[k-1][0] - 5)
		cur := math.Abs(trail[k][0] - 5)
		if math.Abs(cur-0.5*prev) > 1e-12 {
			t.Errorf("step %d: distance %v -> %v, want halving", k, prev, cur)
		}
	}
}

func TestInnerIteratedSharperContraction(t *testing.T) {
	f := NewSeparable([]float64{1, 2}, []float64{0.7, -0.3})
	g := prox.Zero{}
	gamma := 0.5 * MaxStep(f)
	k1 := NewInnerIterated(f, g, gamma, 1)
	k4 := NewInnerIterated(f, g, gamma, 4)
	xstar, ok := FixedPoint(k1, make([]float64, 2), 1e-13, 100000)
	if !ok {
		t.Fatal("no fixed point")
	}
	rng := vec.NewRNG(5)
	c1 := EstimateContraction(k1, xstar, Ones(2), 200, 1.0, rng)
	c4 := EstimateContraction(k4, xstar, Ones(2), 200, 1.0, rng)
	if c4 >= c1 {
		t.Errorf("K=4 contraction %v not sharper than K=1 %v", c4, c1)
	}
}

func TestTheoreticalRho(t *testing.T) {
	f := NewSeparable([]float64{1, 4}, []float64{0, 0})
	if got := TheoreticalRho(f, 0.25); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("rho = %v, want 0.25", got)
	}
}

func TestMaxStep(t *testing.T) {
	f := NewSeparable([]float64{1, 3}, []float64{0, 0})
	if got := MaxStep(f); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("MaxStep = %v, want 0.5", got)
	}
}
