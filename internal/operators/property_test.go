package operators

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prox"
	"repro/internal/vec"
)

// Property: the affine operator is Lipschitz in the max norm with constant
// exactly ||A||_inf: ||F(x)-F(y)||_inf <= ||A||_inf * ||x-y||_inf.
func TestLinearLipschitzProperty(t *testing.T) {
	rng := vec.NewRNG(41)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		a := vec.NewDense(n, n)
		for i := 0; i < n*n; i++ {
			a.Data[i] = rng.Normal()
		}
		op := NewLinear(a, rng.NormalVector(n))
		lip := op.ContractionFactor()
		x := rng.NormalVector(n)
		y := rng.NormalVector(n)
		fx := make([]float64, n)
		fy := make([]float64, n)
		Apply(op, fx, x)
		Apply(op, fy, y)
		lhs := vec.DistInf(fx, fy)
		rhs := lip * vec.DistInf(x, y)
		if lhs > rhs+1e-10*(1+rhs) {
			t.Fatalf("trial %d: Lipschitz violated: %v > %v", trial, lhs, rhs)
		}
	}
}

// Property: Relaxed preserves fixed points for any omega in (0, 1].
func TestRelaxedPreservesFixedPointsProperty(t *testing.T) {
	f := func(omegaRaw uint8, shift int8) bool {
		omega := 0.05 + 0.95*float64(omegaRaw)/255
		a := vec.NewDense(1, 1)
		a.Set(0, 0, 0.5)
		op := NewLinear(a, []float64{float64(shift) / 16})
		// Fixed point of 0.5x + b is 2b.
		xstar := 2 * float64(shift) / 16
		r := &Relaxed{Inner: op, Omega: omega}
		got := r.Component(0, []float64{xstar})
		return math.Abs(got-xstar) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for separable f, the BF operator's primal at its fixed point
// coincides with the closed-form soft-threshold solution for any admissible
// step.
func TestBFPrimalClosedFormProperty(t *testing.T) {
	rng := vec.NewRNG(43)
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		a := make([]float64, n)
		tt := make([]float64, n)
		for i := range a {
			a[i] = 0.5 + 3*rng.Float64()
			tt[i] = 4*rng.Float64() - 2
		}
		lambda := 0.5 * rng.Float64()
		f := NewSeparable(a, tt)
		frac := 0.3 + 0.7*rng.Float64()
		gamma := frac * MaxStep(f)
		op := NewProxGradBF(f, prox.L1{Lambda: lambda}, gamma)
		y, ok := FixedPoint(op, make([]float64, n), 1e-13, 400000)
		if !ok {
			t.Fatalf("trial %d: no fixed point", trial)
		}
		x := op.Primal(y)
		for i := range x {
			want := softThreshold(tt[i], lambda/a[i])
			if math.Abs(x[i]-want) > 1e-7 {
				t.Fatalf("trial %d comp %d: %v, want %v", trial, i, x[i], want)
			}
		}
	}
}

func softThreshold(v, th float64) float64 {
	switch {
	case v > th:
		return v - th
	case v < -th:
		return v + th
	default:
		return 0
	}
}

// Property: FixedPoint's result has a residual consistent with its
// tolerance for contracting operators.
func TestFixedPointResidualProperty(t *testing.T) {
	rng := vec.NewRNG(44)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		a := vec.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Range(-0.5, 0.5)/float64(n))
			}
		}
		op := NewLinear(a, rng.NormalVector(n))
		x, ok := FixedPoint(op, make([]float64, n), 1e-10, 100000)
		if !ok {
			t.Fatalf("trial %d: contraction did not converge", trial)
		}
		if r := Residual(op, x); r > 1e-9 {
			t.Fatalf("trial %d: residual %v", trial, r)
		}
	}
}

// Property: InnerIterated with K steps contracts at least as fast per
// application as a single step, measured against the common fixed point.
func TestInnerIteratedMonotoneInK(t *testing.T) {
	f := NewSeparable([]float64{1, 2.5}, []float64{0.4, -0.9})
	g := prox.Zero{}
	gamma := 0.5 * MaxStep(f)
	xstar, ok := FixedPoint(NewInnerIterated(f, g, gamma, 1), make([]float64, 2), 1e-13, 200000)
	if !ok {
		t.Fatal("no fixed point")
	}
	rng := vec.NewRNG(45)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		op := NewInnerIterated(f, g, gamma, k)
		c := EstimateContraction(op, xstar, Ones(2), 100, 1.0, rng)
		if c > prev+1e-12 {
			t.Fatalf("contraction not monotone in K: K=%d gives %v > %v", k, c, prev)
		}
		prev = c
	}
}

// Property: MaxStep always yields a max-norm contraction for separable f
// (factor <= 1 - gamma*mu + eps), for random curvature profiles.
func TestMaxStepContractionProperty(t *testing.T) {
	rng := vec.NewRNG(46)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		a := make([]float64, n)
		tt := make([]float64, n)
		for i := range a {
			a[i] = 0.2 + 5*rng.Float64()
			tt[i] = rng.Normal()
		}
		f := NewSeparable(a, tt)
		gamma := MaxStep(f)
		op := NewGradOp(f, gamma)
		_, mu := f.LMu()
		bound := 1 - gamma*mu
		got := EstimateContraction(op, tt, Ones(n), 60, 2.0, rng)
		if got > bound+1e-9 {
			t.Fatalf("trial %d: contraction %v exceeds 1-gamma*mu = %v", trial, got, bound)
		}
	}
}
