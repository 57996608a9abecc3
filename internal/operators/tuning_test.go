package operators

import (
	"runtime"
	"testing"

	"repro/internal/vec"
)

// tuningCombos is the knob matrix every bit-identity test sweeps: fan-out,
// and more lanes than the machine has CPUs (the executor is bounded; extra
// lanes just queue). Fan-out engages only on blocks of ParallelWork
// multiply-adds or more, so the tests that sweep it size blocks around it.
func tuningCombos() []struct {
	name string
	tun  Tuning
} {
	return []struct {
		name string
		tun  Tuning
	}{
		{"default", Tuning{}},
		{"par4", Tuning{Parallelism: 4}},
		{"parOverCPU", Tuning{Parallelism: runtime.NumCPU() + 16}},
	}
}

// Every tuning knob combination must leave every operator's block
// evaluation BIT-identical to the untuned scratch — lanes write disjoint
// output rows, so there is exactly one answer. Ranges deliberately
// straddle the fan-out threshold: the dense operators are n x n, so a
// slab of ParallelWork/n rows is the first that fans out, and the
// tridiagonal operator's whole grid holds exactly ParallelWork entries
// (2 per row, 1 in the first and last).
func TestEvalBlockBitIdenticalUnderTuning(t *testing.T) {
	const n, rows = 1024, ParallelWork / 1024
	x := vec.NewRNG(61).NormalVector(n)
	for _, tc := range blockTestOps(n) {
		evalBlocksUnderTuning(t, tc.name, tc.op, x, [][2]int{{0, n}, {0, 1}, {5, 18},
			{3, n - 5}, {n - 1, n}, {0, rows - 1}, {1, rows + 1}})
	}
	const tall = ParallelWork/2 + 1
	rng := vec.NewRNG(62)
	sp := NewSparseLinear(tridiagonalCSR(tall), rng.NormalVector(tall))
	evalBlocksUnderTuning(t, "SparseLinear(tall)", sp, rng.NormalVector(tall),
		[][2]int{{0, tall}, {1, tall}, {5, 18}})
}

// evalBlocksUnderTuning checks op's evaluation of each block under every
// tuning combination against the untuned scratch, bit for bit.
func evalBlocksUnderTuning(t *testing.T, name string, op Operator, x []float64, blocks [][2]int) {
	t.Helper()
	plain := NewScratch()
	for _, blk := range blocks {
		lo, hi := blk[0], blk[1]
		want := make([]float64, hi-lo)
		EvalBlock(op, plain, lo, hi, x, want)
		for _, combo := range tuningCombos() {
			scr := NewScratch()
			scr.SetTuning(combo.tun)
			got := make([]float64, hi-lo)
			EvalBlock(op, scr, lo, hi, x, got)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s/%s block [%d,%d) row %d: %v != untuned %v",
						name, combo.name, lo, hi, lo+i, got[i], want[i])
				}
			}
		}
	}
}

// The fan-out predicate must gate exactly at the threshold: one
// multiply-add below stays inline, at and above fans out — and serial
// parallelism never fans out regardless of size.
func TestFanOutThresholdBoundary(t *testing.T) {
	scr := NewScratch()
	scr.SetTuning(Tuning{Parallelism: 4})
	for work, want := range map[int]bool{ParallelWork - 1: false,
		ParallelWork: true, ParallelWork + 1: true, 2: false} {
		if got := scr.fanOut(work); got != want {
			t.Errorf("work %d: fanOut=%v want %v", work, got, want)
		}
	}
	scr.SetTuning(Tuning{Parallelism: 1})
	if scr.fanOut(10 * ParallelWork) {
		t.Error("Parallelism 1 must never fan out")
	}
	scr.SetTuning(Tuning{})
	if scr.fanOut(10 * ParallelWork) {
		t.Error("zero tuning must never fan out")
	}
}

// Sharded Gram assembly must build a LeastSquares whose gradients are
// bit-identical to the serial build's, for any shard count (including more
// shards than columns).
func TestShardedLeastSquaresBitIdentical(t *testing.T) {
	rng := vec.NewRNG(67)
	const m, n = 40, 24
	a := vec.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.Normal()
	}
	y := rng.NormalVector(m)
	x := rng.NormalVector(n)
	serial := NewLeastSquares(a, y, 0.1)
	want := make([]float64, n)
	serial.Grad(want, x)
	for _, shards := range []int{2, 3, 7, n, n + 5} {
		f := NewLeastSquaresGram(a, y, 0.1, Gram(a, shards))
		got := make([]float64, n)
		f.Grad(got, x)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d Grad[%d]: %v != serial %v", shards, i, got[i], want[i])
			}
		}
		l1, mu1 := serial.LMu()
		l2, mu2 := f.LMu()
		if l1 != l2 || mu1 != mu2 {
			t.Fatalf("shards=%d LMu (%v,%v) != serial (%v,%v)", shards, l2, mu2, l1, mu1)
		}
	}
}

// The lean (no-Gram) LeastSquares is a different — but internally
// consistent — evaluation order: Grad, GradComponent and GradRange must be
// mutually bit-identical, under every tuning combination, and its (L, mu)
// must bound the true spectrum so lean steps remain convergent. A lean
// block costs rows x m multiply-adds, so the whole range [0, n) is exactly
// ParallelWork and fans out, and every shorter block stays inline.
func TestLeanLeastSquaresInternallyConsistent(t *testing.T) {
	rng := vec.NewRNG(71)
	const m, n = 2048, ParallelWork / 2048
	a := vec.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.Normal()
	}
	y := rng.NormalVector(m)
	x := rng.NormalVector(n)
	f := NewLeastSquaresLean(a, y, 0.1)
	if !f.Lean() {
		t.Fatal("NewLeastSquaresLean did not build a lean instance")
	}
	full := make([]float64, n)
	f.Grad(full, x)
	for c := 0; c < n; c++ {
		if got := f.GradComponent(c, x); got != full[c] {
			t.Errorf("lean GradComponent[%d] %v != Grad %v", c, got, full[c])
		}
	}
	for _, combo := range tuningCombos() {
		scr := NewScratch()
		scr.SetTuning(combo.tun)
		for _, blk := range [][2]int{{0, n}, {1, n}, {3, n - 9}, {n - 1, n}} {
			lo, hi := blk[0], blk[1]
			dst := make([]float64, hi-lo)
			f.GradRange(scr, dst, x, lo, hi)
			for c := lo; c < hi; c++ {
				if dst[c-lo] != full[c] {
					t.Errorf("%s: lean GradRange[%d] %v != Grad %v", combo.name, c, dst[c-lo], full[c])
				}
			}
		}
	}
	// The lean L upper bound must dominate the eager (Gershgorin) L's
	// underlying spectrum: compare against the eager build's exact largest
	// eigenvalue bound pair. mu must equal reg.
	l, mu := f.LMu()
	if mu != 0.1 {
		t.Errorf("lean mu = %v, want reg 0.1", mu)
	}
	eager := NewLeastSquares(a, y, 0.1)
	_, eagerMu := eager.LMu()
	if mu != eagerMu {
		t.Errorf("lean mu %v != eager mu %v", mu, eagerMu)
	}
	// Power iteration converges to lmax from below per iterate, and the
	// 1.05 margin covers the residual gap: L must be a genuine upper
	// bound, checked against a Rayleigh quotient on a random direction.
	v := rng.NormalVector(n)
	av := make([]float64, m)
	a.MulVecTo(av, v)
	atav := make([]float64, n)
	a.MulVecTransTo(atav, av)
	num := 0.0
	for i := range v {
		num += v[i] * (atav[i]/float64(m) + 0.1*v[i])
	}
	if rq := num / vec.Dot(v, v); l < rq {
		t.Errorf("lean L %v below Rayleigh quotient %v", l, rq)
	}
}
