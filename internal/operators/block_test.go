package operators

import (
	"testing"

	"repro/internal/prox"
	"repro/internal/vec"
)

// tridiagonalCSR is a sparse contraction: 0.3 on both off-diagonals.
func tridiagonalCSR(n int) *vec.CSR {
	var entries []vec.COOEntry
	for i := 0; i < n; i++ {
		if i > 0 {
			entries = append(entries, vec.COOEntry{Row: i, Col: i - 1, Val: 0.3})
		}
		if i < n-1 {
			entries = append(entries, vec.COOEntry{Row: i, Col: i + 1, Val: 0.3})
		}
	}
	return vec.NewCSR(n, n, entries)
}

// blockTestOps builds one operator of every block-implementing kind over a
// shared dimension.
func blockTestOps(n int) []struct {
	name string
	op   Operator
} {
	rng := vec.NewRNG(21)
	bf, inner := allocTestProxGrad(n)
	lin := allocTestLinear(n)

	sp := NewSparseLinear(tridiagonalCSR(n), rng.NormalVector(n))

	// Dense least-squares pieces for FB / GradOp / separable variants.
	q := vec.NewDense(n, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1.5+rng.Float64())
		if i > 0 {
			q.Set(i, i-1, 0.1)
			q.Set(i-1, i, 0.1)
		}
	}
	quad := NewQuadratic(q, rng.NormalVector(n), 0)
	a := make([]float64, n)
	t := make([]float64, n)
	for i := range a {
		a[i] = 1 + rng.Float64()
		t[i] = rng.Normal()
	}
	sep := NewSeparable(a, t)

	return []struct {
		name string
		op   Operator
	}{
		{"ProxGradBF", bf},
		{"ProxGradBF(Quadratic)", NewProxGradBF(quad, prox.L1{Lambda: 0.05}, MaxStep(quad))},
		{"ProxGradBF(Separable)", NewProxGradBF(sep, prox.L1{Lambda: 0.05}, MaxStep(sep))},
		{"ProxGradFB", NewProxGradFB(quad, prox.L1{Lambda: 0.05}, MaxStep(quad))},
		{"InnerIterated", inner},
		{"Relaxed(ProxGradBF)", &Relaxed{Inner: bf, Omega: 0.7}},
		{"Relaxed(Linear)", &Relaxed{Inner: lin, Omega: 0.7}},
		{"Linear", lin},
		{"SparseLinear", sp},
		{"GradOp", NewGradOp(quad, MaxStep(quad))},
		{"GradOp(Separable)", NewGradOp(sep, MaxStep(sep))},
	}
}

// The block fast path must be componentwise bit-identical to Component for
// every block size and offset — the deterministic engines rely on identical
// trajectories whichever path runs.
func TestEvalBlockMatchesPerComponent(t *testing.T) {
	const n = 48
	x := vec.NewRNG(22).NormalVector(n)
	for _, tc := range blockTestOps(n) {
		scr := NewScratch()
		for _, blk := range [][2]int{{0, n}, {0, 1}, {5, 13}, {40, 48}, {7, 8}, {0, 8}} {
			lo, hi := blk[0], blk[1]
			out := make([]float64, hi-lo)
			EvalBlock(tc.op, scr, lo, hi, x, out)
			for c := lo; c < hi; c++ {
				want := tc.op.Component(c, x)
				if out[c-lo] != want {
					t.Errorf("%s: block [%d,%d) component %d: block %v != Component %v",
						tc.name, lo, hi, c, out[c-lo], want)
				}
			}
		}
	}
}

// sweepCounts is what one block sweep cost: prox applications, and the
// gradient rows taken through each of the smooth part's two paths.
type sweepCounts struct{ applies, rangeCalls, rangeRows, componentRows int }

type countingProx struct {
	prox.Prox
	c *sweepCounts
}

func (p countingProx) Apply(i int, v, gamma float64) float64 {
	p.c.applies++
	return p.Prox.Apply(i, v, gamma)
}

type countingSmooth struct {
	*Separable
	c *sweepCounts
}

func (f countingSmooth) GradRange(scr *Scratch, dst, x []float64, lo, hi int) {
	f.c.rangeCalls++
	f.c.rangeRows += hi - lo
	f.Separable.GradRange(scr, dst, x, lo, hi)
}

func (f countingSmooth) GradComponent(i int, x []float64) float64 {
	f.c.componentRows++
	return f.Separable.GradComponent(i, x)
}

// The block contract as an operation count. The Definition 4 operator
// needs the whole prox vector for any component, so a sweep of n components
// in blocks of b applies the prox n*ceil(n/b) times through the block path
// (once per block) against n^2 through a base-Operator-only wrapper (once
// per component), and takes every gradient row exactly once, through
// GradRange. That multiple is what BenchmarkBlockEval* reads on a clock;
// here it is exact, and it breaks the moment EvalBlockScratch degenerates
// to the per-component loop.
func TestBlockSweepProxAndGradientCounts(t *testing.T) {
	const n, b = 96, 20 // b does not divide n: the last block is short
	const blocks = (n + b - 1) / b
	rng := vec.NewRNG(25)
	a, tt := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = 1 + rng.Float64()
		tt[i] = rng.Normal()
	}
	var c sweepCounts
	f := countingSmooth{NewSeparable(a, tt), &c}
	op := NewProxGradBF(f, countingProx{prox.L1{Lambda: 0.05}, &c}, MaxStep(f))
	x := rng.NormalVector(n)
	sweep := func(op Operator) []float64 {
		c = sweepCounts{}
		scr := NewScratch()
		fx := make([]float64, n)
		for lo := 0; lo < n; lo += b {
			hi := min(lo+b, n)
			EvalBlock(op, scr, lo, hi, x, fx[lo:hi])
		}
		return fx
	}

	block := sweep(op)
	if want := (sweepCounts{applies: n * blocks, rangeCalls: blocks, rangeRows: n}); c != want {
		t.Errorf("block sweep cost %+v, want %+v (prox n*ceil(n/b), every gradient row once through GradRange)", c, want)
	}
	perComp := sweep(componentOnly{op})
	if want := (sweepCounts{applies: n * n, componentRows: n}); c != want {
		t.Errorf("per-component sweep cost %+v, want %+v (prox n^2)", c, want)
	}
	for i := range block {
		if block[i] != perComp[i] {
			t.Fatalf("component %d: block %v != per-component %v", i, block[i], perComp[i])
		}
	}

	// Hinted (Scratch.Hint): the same sweep with an empty hint before every
	// block after the first — the same x, as the model engine's later runs
	// of one S_j — applies the prox n times in all; a k-component hint then
	// applies it k times, and an unhinted call after the chain n times, each
	// to the bits of an unhinted evaluation.
	c = sweepCounts{}
	scr := NewScratch()
	chain := make([]float64, n)
	for lo := 0; lo < n; lo += b {
		if lo > 0 {
			scr.Hint(nil)
		}
		hi := min(lo+b, n)
		EvalBlock(op, scr, lo, hi, x, chain[lo:hi])
	}
	if c.applies != n {
		t.Errorf("empty-hinted sweep applied the prox %d times, want n = %d", c.applies, n)
	}
	y := append([]float64(nil), x...)
	moved := []int{3, 50, 95, 50}
	for _, i := range moved {
		y[i] += 0.5
	}
	hinted, unhinted := make([]float64, n), make([]float64, n)
	c.applies = 0
	scr.Hint(moved)
	EvalBlock(op, scr, 0, n, y, hinted)
	if c.applies != len(moved) {
		t.Errorf("a %d-component hint applied the prox %d times", len(moved), c.applies)
	}
	c.applies = 0
	EvalBlock(op, scr, 0, n, x, chain)
	if c.applies != n {
		t.Errorf("an unhinted call after the chain applied the prox %d times, want n = %d", c.applies, n)
	}
	rel := &Relaxed{Inner: op, Omega: 0.7}
	EvalBlock(rel, scr, 0, n, x, make([]float64, n))
	c.applies = 0
	scr.Hint(moved)
	EvalBlock(rel, scr, 0, n, y, make([]float64, n))
	if c.applies != len(moved) {
		t.Errorf("a %d-component hint through Relaxed applied the prox %d times", len(moved), c.applies)
	}
	EvalBlock(op, NewScratch(), 0, n, y, unhinted)
	for i := range block {
		if chain[i] != block[i] || hinted[i] != unhinted[i] {
			t.Fatalf("component %d: hinted %v, %v != unhinted %v, %v", i, chain[i], hinted[i], block[i], unhinted[i])
		}
	}
}

// A hint reaches the prox point only if the previous EvalBlock on the
// scratch left this operator's point at this dimension: any other
// evaluation between — another ProxGradBF, the Component loop, an operator
// that reuses the slot — or a different dimension, or an operator built as
// a struct literal, makes the hinted call a full pass, to the same bits.
func TestProxPointMemoNeedsItsOwnLastEvaluation(t *testing.T) {
	const n = 24
	var c sweepCounts
	rng := vec.NewRNG(26)
	a, tt := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = 1 + rng.Float64()
		tt[i] = rng.Normal()
	}
	f := NewSeparable(a, tt)
	g := countingProx{prox.L1{Lambda: 0.05}, &c}
	op := NewProxGradBF(f, g, MaxStep(f))
	_, inner := allocTestProxGrad(n)
	x, y := rng.NormalVector(n), rng.NormalVector(n)
	x2 := append(append([]float64(nil), y...), 1, 2)
	between := []struct {
		name   string
		op     Operator
		x      []float64
		hinted Operator
	}{
		{"another ProxGradBF", NewProxGradBF(f, g, MaxStep(f)), y, op},
		{"the Component loop", componentOnly{op}, y, op},
		{"InnerIterated", inner, y, op},
		{"a longer x", op, x2, op},
		{"a struct literal", &ProxGradBF{F: f, G: g, Gamma: op.Gamma}, y, &ProxGradBF{F: f, G: g, Gamma: op.Gamma}},
	}
	for _, tc := range between {
		scr := NewScratch()
		EvalBlock(tc.hinted, scr, 0, n, x, make([]float64, n))
		EvalBlock(tc.op, scr, 0, n, tc.x, make([]float64, n))
		got, want := make([]float64, n), make([]float64, n)
		c.applies = 0
		scr.Hint([]int{0})
		EvalBlock(tc.hinted, scr, 0, n, y, got)
		if c.applies != n {
			t.Errorf("after %s: the hinted call applied the prox %d times, want the full n = %d", tc.name, c.applies, n)
		}
		EvalBlock(tc.hinted, NewScratch(), 0, n, y, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("after %s: component %d is %v, want %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// The fallback (no block implementation, or nil scratch) must agree with the
// per-component path too, through the same dispatcher.
func TestEvalBlockFallback(t *testing.T) {
	const n = 16
	bf, _ := allocTestProxGrad(n)
	hidden := componentOnly{bf}
	x := vec.NewRNG(23).NormalVector(n)
	out := make([]float64, 8)
	EvalBlock(hidden, NewScratch(), 4, 12, x, out)
	for c := 4; c < 12; c++ {
		if want := bf.Component(c, x); out[c-4] != want {
			t.Errorf("fallback component %d: %v != %v", c, out[c-4], want)
		}
	}
	// nil scratch: dispatcher must not take the block path.
	EvalBlock(bf, nil, 4, 12, x, out)
	for c := 4; c < 12; c++ {
		if want := bf.Component(c, x); out[c-4] != want {
			t.Errorf("nil-scratch component %d: %v != %v", c, out[c-4], want)
		}
	}
}

func TestEvalBlockOutLengthPanics(t *testing.T) {
	bf, _ := allocTestProxGrad(8)
	defer func() {
		if recover() == nil {
			t.Fatal("EvalBlock with mismatched out length should panic")
		}
	}()
	EvalBlock(bf, NewScratch(), 0, 4, make([]float64, 8), make([]float64, 3))
}

// componentOnly hides the block interface, exposing only the plain Operator
// contract.
type componentOnly struct{ inner Operator }

func (w componentOnly) Dim() int                             { return w.inner.Dim() }
func (w componentOnly) Component(i int, x []float64) float64 { return w.inner.Component(i, x) }
func (w componentOnly) Name() string                         { return w.inner.Name() }

// Residual and ResidualWith must agree between the block path and the
// Component loop on ProxGradBF (the coupled operator whose per-component
// residual is O(n^2)).
func TestResidualFastPathAgreesOnProxGradBF(t *testing.T) {
	const n = 40
	bf, _ := allocTestProxGrad(n)
	x := vec.NewRNG(24).NormalVector(n)

	fast := Residual(bf, x)
	if slow := Residual(componentOnly{bf}, x); fast != slow {
		t.Errorf("Residual through the block path %v != through the Component loop %v", fast, slow)
	}
	scr := NewScratch()
	fastW := ResidualWith(bf, scr, x)
	if slowW := ResidualWith(componentOnly{bf}, scr, x); fastW != slowW {
		t.Errorf("ResidualWith through the block path %v != through the Component loop %v", fastW, slowW)
	}
	if fast != fastW {
		t.Errorf("Residual %v != ResidualWith %v on the same operator", fast, fastW)
	}
}

// GradRange must be bit-identical to GradComponent for every Smooth that
// implements it.
func TestGradRangeMatchesGradComponent(t *testing.T) {
	const n = 32
	rng := vec.NewRNG(25)
	q := vec.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				q.Set(i, j, 4+rng.Float64())
			} else {
				q.Set(i, j, 0.05*rng.Normal())
			}
		}
	}
	design := vec.NewDense(2*n, n)
	for i := 0; i < 2*n; i++ {
		for j := 0; j < n; j++ {
			design.Set(i, j, rng.Normal())
		}
	}
	y := rng.NormalVector(2 * n)
	a := make([]float64, n)
	tt := make([]float64, n)
	for i := range a {
		a[i] = 1 + rng.Float64()
		tt[i] = rng.Normal()
	}

	fs := []struct {
		name string
		f    Smooth
	}{
		{"Quadratic", NewQuadratic(q, rng.NormalVector(n), 0)},
		{"LeastSquares", NewLeastSquares(design, y, 0.1)},
		{"Separable", NewSeparable(a, tt)},
	}
	x := rng.NormalVector(n)
	for _, tc := range fs {
		rg, ok := tc.f.(RangeGradSmooth)
		if !ok {
			t.Fatalf("%s does not implement RangeGradSmooth", tc.name)
		}
		for _, blk := range [][2]int{{0, n}, {3, 17}, {n - 1, n}} {
			lo, hi := blk[0], blk[1]
			dst := make([]float64, hi-lo)
			rg.GradRange(NewScratch(), dst, x, lo, hi)
			for c := lo; c < hi; c++ {
				if want := tc.f.GradComponent(c, x); dst[c-lo] != want {
					t.Errorf("%s: GradRange[%d] %v != GradComponent %v", tc.name, c, dst[c-lo], want)
				}
			}
		}
		// Full Grad must agree bit-identically too (InnerIterated.Component
		// takes it through ApplyWithTrail).
		full := make([]float64, n)
		tc.f.Grad(full, x)
		for c := 0; c < n; c++ {
			if want := tc.f.GradComponent(c, x); full[c] != want {
				t.Errorf("%s: Grad[%d] %v != GradComponent %v", tc.name, c, full[c], want)
			}
		}
	}
}
