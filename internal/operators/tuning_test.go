package operators

import (
	"runtime"
	"testing"

	"repro/internal/vec"
)

// tuningCombos is the knob matrix every bit-identity test sweeps: tiling
// alone, fan-out alone (with a low threshold so small test problems
// actually engage it), both together, and more lanes than the machine has
// CPUs (the executor is bounded; extra lanes just queue).
func tuningCombos() []struct {
	name string
	tun  Tuning
} {
	return []struct {
		name string
		tun  Tuning
	}{
		{"default", Tuning{}},
		{"tile8", Tuning{Tile: 8}},
		{"tile12", Tuning{Tile: 12}},
		{"par4", Tuning{Parallelism: 4, Threshold: 4}},
		{"tile8par4", Tuning{Tile: 8, Parallelism: 4, Threshold: 4}},
		{"parOverCPU", Tuning{Parallelism: runtime.NumCPU() + 16, Threshold: 4}},
	}
}

// Every tuning knob combination must leave every operator's block
// evaluation BIT-identical to the untuned scratch — tiling carries the
// canonical accumulator quartet across tiles and lanes write disjoint
// output rows, so there is exactly one answer. Ranges deliberately do not
// divide the tile width and straddle the fan-out threshold.
func TestEvalBlockBitIdenticalUnderTuning(t *testing.T) {
	const n = 96
	x := vec.NewRNG(61).NormalVector(n)
	for _, tc := range blockTestOps(n) {
		plain := NewScratch()
		for _, blk := range [][2]int{{0, n}, {0, 1}, {5, 18}, {3, n - 5}, {n - 1, n}, {0, 64}} {
			lo, hi := blk[0], blk[1]
			want := make([]float64, hi-lo)
			EvalBlock(tc.op, plain, lo, hi, x, want)
			for _, combo := range tuningCombos() {
				scr := NewScratch()
				scr.SetTuning(combo.tun)
				got := make([]float64, hi-lo)
				EvalBlock(tc.op, scr, lo, hi, x, got)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s/%s block [%d,%d) row %d: %v != untuned %v",
							tc.name, combo.name, lo, hi, lo+i, got[i], want[i])
					}
				}
			}
		}
	}
}

// The fan-out predicate must gate exactly at the threshold: one row below
// stays inline, at and above fans out — and serial parallelism never fans
// out regardless of height.
func TestFanOutThresholdBoundary(t *testing.T) {
	scr := NewScratch()
	scr.SetTuning(Tuning{Parallelism: 4, Threshold: 16})
	for rows, want := range map[int]bool{15: false, 16: true, 17: true, 2: false} {
		if got := scr.fanOut(rows); got != want {
			t.Errorf("threshold 16, rows %d: fanOut=%v want %v", rows, got, want)
		}
	}
	scr.SetTuning(Tuning{Parallelism: 4}) // default threshold
	for rows, want := range map[int]bool{DefaultParallelThreshold - 1: false,
		DefaultParallelThreshold: true, DefaultParallelThreshold + 1: true} {
		if got := scr.fanOut(rows); got != want {
			t.Errorf("default threshold, rows %d: fanOut=%v want %v", rows, got, want)
		}
	}
	scr.SetTuning(Tuning{Parallelism: 1, Threshold: 2})
	if scr.fanOut(1000) {
		t.Error("Parallelism 1 must never fan out")
	}
	scr.SetTuning(Tuning{})
	if scr.fanOut(1000) {
		t.Error("zero tuning must never fan out")
	}
}

// Lane sub-scratches inherit the tile but are pinned serial, so a lane can
// never recursively fan out and deadlock the bounded executor.
func TestLaneScratchesAreSerial(t *testing.T) {
	scr := NewScratch()
	scr.SetTuning(Tuning{Tile: 16, Parallelism: 8, Threshold: 4})
	lane := scr.Lane(3)
	tun := lane.Tuning()
	if tun.Parallelism != 1 {
		t.Errorf("lane parallelism = %d, want 1", tun.Parallelism)
	}
	if tun.Tile != 16 {
		t.Errorf("lane tile = %d, want 16", tun.Tile)
	}
	if lane.fanOut(1000) {
		t.Error("lane scratch must never fan out")
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
// must bound the true spectrum so lean steps remain convergent.
func TestLeanLeastSquaresInternallyConsistent(t *testing.T) {
	rng := vec.NewRNG(71)
	const m, n = 96, 80
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
		for _, blk := range [][2]int{{0, n}, {3, 71}, {n - 1, n}} {
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
