package operators

import (
	"math"
	"testing"

	"repro/internal/prox"
	"repro/internal/vec"
)

func allocTestLinear(n int) *Linear {
	rng := vec.NewRNG(11)
	m := vec.NewDense(n, n)
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := 0.2 * rng.Normal()
				m.Set(i, j, v)
				off += math.Abs(v)
			}
		}
		m.Set(i, i, 1.5*off+1)
	}
	return JacobiFromSystem(m, rng.NormalVector(n))
}

func allocTestProxGrad(n int) (*ProxGradBF, *InnerIterated) {
	rng := vec.NewRNG(12)
	q := vec.NewDense(n, n)
	for i := 0; i < n; i++ {
		q.Set(i, i, 1+rng.Float64())
	}
	f := NewQuadratic(q, rng.NormalVector(n), 0)
	gamma := MaxStep(f)
	return NewProxGradBF(f, prox.L1{Lambda: 0.05}, gamma),
		NewInnerIterated(f, prox.L1{Lambda: 0.05}, gamma, 3)
}

// contractOps is every operator type of the package: each block-implementing
// kind, Relaxed over each of them, and ProxGradBF over a lean (Gram-free)
// LeastSquares, whose Component and block paths share no buffer.
func contractOps(n int) []namedOp {
	ops := blockTestOps(n)
	for _, tc := range blockTestOps(n) {
		ops = append(ops, namedOp{"Relaxed(" + tc.name + ")", &Relaxed{Inner: tc.op, Omega: 0.6}})
	}
	rng := vec.NewRNG(16)
	a := vec.NewDense(n+8, n)
	for i := range a.Data {
		a.Data[i] = rng.Normal()
	}
	lean := NewLeastSquaresLean(a, rng.NormalVector(n+8), 0.1)
	return append(ops, namedOp{"ProxGradBF(lean)", NewProxGradBF(lean, prox.L1{Lambda: 0.05}, MaxStep(lean))})
}

// namedOp is the element type of blockTestOps' table.
type namedOp = struct {
	name string
	op   Operator
}

// Everything that evaluates an operator is EvalBlock on some range, so a
// warmed serial scratch makes all of it allocation-free: engines call these
// once per component relaxation, sweep and residual check. (A scratch tuned
// to fan out pays for its lane closures; tuning_test.go covers its bits.)
func TestScratchEvaluationAllocationFree(t *testing.T) {
	const n = 48
	x := vec.NewRNG(13).NormalVector(n)
	dst := make([]float64, n)
	for _, tc := range contractOps(n) {
		scr := NewScratch()
		_ = ResidualWith(tc.op, scr, x) // warm up the lazily created buffers
		for name, eval := range map[string]func(){
			"EvalComponent": func() { _ = EvalComponent(tc.op, scr, 1, x) },
			"ApplyInto":     func() { ApplyInto(tc.op, scr, dst, x) },
			"ResidualWith":  func() { _ = ResidualWith(tc.op, scr, x) },
		} {
			if avg := testing.AllocsPerRun(100, eval); avg != 0 {
				t.Errorf("%s: %s allocated %.1f/run, want 0", tc.name, name, avg)
			}
		}
	}
}

// A warmed block evaluation must allocate nothing: it runs once per worker
// phase in every engine hot loop.
func TestEvalBlockAllocationFree(t *testing.T) {
	const n = 48
	lin := allocTestLinear(n)
	bf, inner := allocTestProxGrad(n)
	x := vec.NewRNG(15).NormalVector(n)
	out := make([]float64, 8)

	cases := []struct {
		name string
		op   Operator
	}{
		{"Linear", lin},
		{"ProxGradBF", bf},
		{"InnerIterated", inner},
		{"Relaxed(ProxGradBF)", &Relaxed{Inner: bf, Omega: 0.7}},
		{"SparseLinear", NewSparseLinear(tridiagonalCSR(n), vec.NewRNG(17).NormalVector(n))},
	}
	for _, tc := range cases {
		scr := NewScratch()
		EvalBlock(tc.op, scr, 8, 16, x, out) // warm up lazily created buffers
		if avg := testing.AllocsPerRun(100, func() {
			EvalBlock(tc.op, scr, 8, 16, x, out)
		}); avg != 0 {
			t.Errorf("%s: EvalBlock allocated %.1f/run, want 0", tc.name, avg)
		}
	}
}

// The one contract: Component is the definition, and every other way of
// evaluating an operator — a block of one, the block [0, n), the residual on
// a supplied or an own scratch — reproduces it bit for bit, for every
// operator type and under every tuning.
func TestScratchEvaluationMatchesPlain(t *testing.T) {
	const n = 32
	x := vec.NewRNG(14).NormalVector(n)
	for _, tc := range contractOps(n) {
		want := make([]float64, n)
		resid := 0.0
		for i := range want {
			want[i] = tc.op.Component(i, x)
			resid = math.Max(resid, math.Abs(want[i]-x[i]))
		}
		if got := Residual(tc.op, x); got != resid {
			t.Errorf("%s: Residual %v != max|Component - x| %v", tc.name, got, resid)
		}
		for _, combo := range tuningCombos() {
			scr := NewScratch()
			scr.SetTuning(combo.tun)
			fast := make([]float64, n)
			ApplyInto(tc.op, scr, fast, x)
			for i := range want {
				if got := EvalComponent(tc.op, scr, i, x); got != want[i] {
					t.Errorf("%s/%s: EvalComponent(%d) %v != Component %v", tc.name, combo.name, i, got, want[i])
				}
				if fast[i] != want[i] {
					t.Errorf("%s/%s: ApplyInto[%d] %v != Component %v", tc.name, combo.name, i, fast[i], want[i])
				}
			}
			if got := ResidualWith(tc.op, scr, x); got != resid {
				t.Errorf("%s/%s: ResidualWith %v != max|Component - x| %v", tc.name, combo.name, got, resid)
			}
		}
	}
}

func TestScratchVecGrowsAndReuses(t *testing.T) {
	scr := NewScratch()
	a := scr.Vec(0, 8)
	if len(a) != 8 {
		t.Fatalf("len = %d", len(a))
	}
	b := scr.Vec(0, 4)
	if len(b) != 4 {
		t.Fatalf("len = %d", len(b))
	}
	if &a[0] != &b[0] {
		t.Error("shrinking request should reuse the same backing buffer")
	}
	c := scr.Vec(1, 16)
	if len(c) != 16 {
		t.Fatalf("len = %d", len(c))
	}
	if &c[0] == &a[0] {
		t.Error("distinct slots must be distinct buffers")
	}
}
