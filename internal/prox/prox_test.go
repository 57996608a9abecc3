package prox

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestSoftThreshold(t *testing.T) {
	p := L1{Lambda: 1}
	cases := []struct{ v, gamma, want float64 }{
		{3, 1, 2},
		{-3, 1, -2},
		{0.5, 1, 0},
		{-0.5, 1, 0},
		{1, 1, 0},
		{3, 0.5, 2.5},
	}
	for _, c := range cases {
		if got := p.Apply(0, c.v, c.gamma); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("soft(%v, gamma=%v) = %v, want %v", c.v, c.gamma, got, c.want)
		}
	}
}

func TestSquaredL2Shrink(t *testing.T) {
	p := SquaredL2{Lambda: 2}
	if got := p.Apply(0, 3, 0.5); math.Abs(got-1.5) > 1e-15 {
		t.Errorf("shrink = %v, want 1.5", got)
	}
}

func TestBoxProjection(t *testing.T) {
	p := NewBoxScalar(2, -1, 1)
	if got := p.Apply(0, 5, 1); got != 1 {
		t.Errorf("project above = %v", got)
	}
	if got := p.Apply(1, -5, 1); got != -1 {
		t.Errorf("project below = %v", got)
	}
	if got := p.Apply(0, 0.5, 1); got != 0.5 {
		t.Errorf("interior moved = %v", got)
	}
	if !math.IsInf(p.Value(0, 2), 1) {
		t.Error("indicator should be +inf outside")
	}
	if p.Value(0, 0.5) != 0 {
		t.Error("indicator should be 0 inside")
	}
}

func TestBoxHalfOpen(t *testing.T) {
	p := Box{Lo: []float64{0}} // only lower bound
	if got := p.Apply(0, -3, 1); got != 0 {
		t.Errorf("lower-only box = %v", got)
	}
	if got := p.Apply(0, 1e9, 1); got != 1e9 {
		t.Errorf("unbounded above clipped: %v", got)
	}
}

func TestNonNeg(t *testing.T) {
	p := NonNeg{}
	if p.Apply(0, -2, 1) != 0 || p.Apply(0, 2, 1) != 2 {
		t.Error("NonNeg projection wrong")
	}
}

func TestElasticNetReducesToParts(t *testing.T) {
	en := ElasticNet{L1w: 0.5, L2w: 0}
	l1 := L1{Lambda: 0.5}
	for _, v := range []float64{-2, -0.1, 0, 0.3, 4} {
		if math.Abs(en.Apply(0, v, 1)-l1.Apply(0, v, 1)) > 1e-15 {
			t.Errorf("elastic net with L2w=0 != soft threshold at %v", v)
		}
	}
	en2 := ElasticNet{L1w: 0, L2w: 0.7}
	l2 := SquaredL2{Lambda: 0.7}
	for _, v := range []float64{-2, 0.3, 4} {
		if math.Abs(en2.Apply(0, v, 1)-l2.Apply(0, v, 1)) > 1e-15 {
			t.Errorf("elastic net with L1w=0 != shrinkage at %v", v)
		}
	}
}

// Property: every prox map is nonexpansive per coordinate:
// |prox(a) - prox(b)| <= |a - b|. This is what Theorem 1's max-norm
// contraction argument requires of g.
func TestNonexpansiveness(t *testing.T) {
	maps := []Prox{
		Zero{}, L1{Lambda: 0.7}, SquaredL2{Lambda: 1.3},
		ElasticNet{L1w: 0.4, L2w: 0.9}, NewBoxScalar(1, -2, 3), NonNeg{},
	}
	for _, p := range maps {
		f := func(a, b float64, gRaw uint8) bool {
			if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
				return true
			}
			gamma := 0.01 + float64(gRaw)/64.0
			pa := p.Apply(0, a, gamma)
			pb := p.Apply(0, b, gamma)
			return math.Abs(pa-pb) <= math.Abs(a-b)+1e-12
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s not nonexpansive: %v", p.Name(), err)
		}
	}
}

// Property: the prox is the unique minimizer of g(v) + (1/2 gamma)(v-x)^2.
// Verify first-order optimality for L1 by comparing against a grid search.
func TestProxMinimizesObjective(t *testing.T) {
	p := L1{Lambda: 0.8}
	gamma := 0.5
	obj := func(v, x float64) float64 {
		return p.Value(0, v) + (v-x)*(v-x)/(2*gamma)
	}
	for _, x := range []float64{-3, -0.2, 0, 0.1, 2.4} {
		best := p.Apply(0, x, gamma)
		bestObj := obj(best, x)
		for dv := -2.0; dv <= 2.0; dv += 0.001 {
			if o := obj(best+dv, x); o < bestObj-1e-9 {
				t.Fatalf("prox(%v) = %v not a minimizer: %v beats %v", x, best, best+dv, bestObj)
			}
		}
	}
}

func TestApplyVecAndTotalValue(t *testing.T) {
	p := L1{Lambda: 1}
	src := []float64{3, -3, 0.5}
	dst := make([]float64, 3)
	ApplyVec(p, dst, src, 1)
	want := []float64{2, -2, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("ApplyVec[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	if got := TotalValue(p, src); math.Abs(got-6.5) > 1e-15 {
		t.Errorf("TotalValue = %v, want 6.5", got)
	}
}

// negated is a Prox this package does not know: ApplyVec must take the
// generic per-coordinate loop for it.
type negated struct{}

func (negated) Apply(i int, v, gamma float64) float64 { return -gamma * v }
func (negated) Value(i int, v float64) float64        { return 0 }
func (negated) Name() string                          { return "negated" }

// ApplyVec's inline L1 kernel is L1.Apply coordinate by coordinate, to the
// bit: at the thresholds and one ulp either side, on signed zeros (the dead
// zone writes +0), infinities, NaN (+0 as well) and random values, for
// several (gamma, lambda); a Prox of another type goes through Apply.
func TestApplyVecMatchesApply(t *testing.T) {
	rng := vec.NewRNG(5)
	check := func(p Prox, gamma float64, src []float64) {
		t.Helper()
		dst := make([]float64, len(src))
		ApplyVec(p, dst, src, gamma)
		for i, v := range src {
			if want := p.Apply(i, v, gamma); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("%s gamma=%v: ApplyVec(%v) = %v, Apply = %v", p.Name(), gamma, v, dst[i], want)
			}
		}
	}
	for _, gl := range [][2]float64{{1, 1}, {0.5, 0.02}, {0.013, 3.7}, {2, 0}, {1e-300, 1e-10}} {
		gamma, p := gl[0], L1{Lambda: gl[1]}
		th := gamma * p.Lambda
		src := []float64{0, math.Copysign(0, -1), th, -th,
			math.Nextafter(th, math.Inf(1)), math.Nextafter(th, math.Inf(-1)),
			math.Nextafter(-th, math.Inf(1)), math.Nextafter(-th, math.Inf(-1)),
			math.Inf(1), math.Inf(-1), math.NaN()}
		for range 10000 {
			src = append(src, rng.Normal()*max(th, 1e-3)*2)
		}
		check(p, gamma, src)
		check(negated{}, gamma, src)
	}
}

// BenchmarkProxApplyVec measures the L1 prox vector of a lasso operator at
// n=256 on a sparse iterate (most coordinates in the dead zone).
func BenchmarkProxApplyVec(b *testing.B) {
	const n = 256
	rng := vec.NewRNG(7)
	var p Prox = L1{Lambda: 0.02} // boxed once, as an operator holds it
	gamma := 0.5
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = rng.Normal() * 0.005
		if i%8 == 0 {
			src[i] = rng.Normal()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApplyVec(p, dst, src, gamma)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
}

func TestApplyVecPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ApplyVec(Zero{}, make([]float64, 2), make([]float64, 3), 1)
}

func TestNames(t *testing.T) {
	for _, p := range []Prox{Zero{}, L1{1}, SquaredL2{1}, ElasticNet{1, 1}, Box{}, NonNeg{}} {
		if p.Name() == "" {
			t.Error("empty name")
		}
	}
}
