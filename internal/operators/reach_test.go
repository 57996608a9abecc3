package operators

import (
	"math"
	"testing"

	"repro/internal/vec"
)

// stencilCSR is the multigrid scenario's 5-point Jacobi stencil on an n x n
// grid: 1/4 on each neighbour, nothing on the diagonal.
func stencilCSR(n int) *vec.CSR {
	var entries []vec.COOEntry
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := r*n + c
			for _, nb := range [][3]int{{r - 1, c, 1}, {r + 1, c, 1}, {r, c - 1, 1}, {r, c + 1, 1}} {
				if nb[0] >= 0 && nb[0] < n && nb[1] >= 0 && nb[1] < n {
					entries = append(entries, vec.COOEntry{Row: i, Col: nb[0]*n + nb[1], Val: 0.25})
				}
			}
		}
	}
	return vec.NewCSR(n*n, n*n, entries)
}

// randomCSR has 0 to 3 entries per row at random columns.
func randomCSR(n int, rng *vec.RNG) *vec.CSR {
	var entries []vec.COOEntry
	for r := 0; r < n; r++ {
		for k := rng.Intn(4); k > 0; k-- {
			entries = append(entries, vec.COOEntry{Row: r, Col: rng.Intn(n), Val: rng.Normal()})
		}
	}
	return vec.NewCSR(n, n, entries)
}

// The Reach contract, with the operator as its own oracle: on random row
// ranges [lo, hi), a view that is NaN everywhere outside [lo, hi) ∪ Reach
// evaluates to the same bits as the true view, through the block path and
// through Component. An operator without Reach reads everything.
func TestReachHoldsEverythingRead(t *testing.T) {
	rng := vec.NewRNG(23)
	ops := []struct {
		name string
		op   ReachOperator
	}{
		{"stencil7", NewSparseLinear(stencilCSR(7), rng.NormalVector(49))},
		{"stencil31", NewSparseLinear(stencilCSR(31), rng.NormalVector(961))},
		{"random", NewSparseLinear(randomCSR(200, rng), rng.NormalVector(200))},
	}
	for _, o := range ops {
		n := o.op.Dim()
		x := rng.NormalVector(n)
		masked := make([]float64, n)
		scr := NewScratch()
		for trial := 0; trial < 200; trial++ {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			a, b := o.op.Reach(lo, hi)
			if a > b || a < 0 || b > n {
				t.Fatalf("%s: Reach(%d, %d) = [%d, %d)", o.name, lo, hi, a, b)
			}
			for i := range masked {
				masked[i] = math.NaN()
				if i >= lo && i < hi || i >= a && i < b {
					masked[i] = x[i]
				}
			}
			want, got := make([]float64, hi-lo), make([]float64, hi-lo)
			for _, s := range []*Scratch{scr, nil} {
				EvalBlock(o.op, s, lo, hi, x, want)
				EvalBlock(o.op, s, lo, hi, masked, got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: component %d of [%d, %d) reads outside Reach [%d, %d): %v, want %v (block path %v)",
							o.name, lo+i, lo, hi, a, b, got[i], want[i], s != nil)
					}
				}
			}
		}
	}
	if a, b := Reach(&Relaxed{Inner: ops[0].op, Omega: 0.5}, 3, 5); a != 0 || b != 49 {
		t.Errorf("an operator without Reach reaches [%d, %d), want all of [0, 49)", a, b)
	}
}
