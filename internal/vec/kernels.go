package vec

// This file holds the ONE canonical accumulation order for every dot-product
// reduction in the library. Floating-point addition is not associative, so
// the exact order of partial sums is observable in solver trajectories; to
// keep the full, range and componentwise evaluation paths bit-identical,
// they must all reduce in the same order. That order is:
//
//	s0..s3 accumulate the products at indices j ≡ 0..3 (mod 4)
//	tail accumulates the last len%4 products sequentially
//	result = ((s0+s1) + (s2+s3)) + tail
//
// The four independent accumulators break the add dependency chain and give
// the compiler a vectorizable shape. Each is `s += a*b`, which Go may fuse
// into an FMA (arm64 does, amd64 does not): the bits are then per
// architecture but the same for every spelling. So a straight-line spelling
// never adds two products together: each joins its running sum as in the
// loop (0.0 + a*b, then + c*d) or, alone in a zeroed accumulator, is
// rounded by float64(a*b), which cannot fuse (FMA(a, b, 0) rounds once too).
//
// One row's four chains still wait on their own adds, so a Dense slab runs
// four rows' chains at once: dot4Acc4 keeps each row's accumulators as the
// lanes of two XMM registers and loads x once per 4 columns for all four
// rows. On amd64 it is SSE2 assembly (dot4x4_amd64.s) using only
// MOVUPD/MULPD/ADDPD: a rounded product, then a rounded add, as dot4's
// scalar code. No FMA, whose single rounding changes the bits; no AVX,
// which would need a CPUID dispatch and a second amd64 path, while SSE2 is
// the GOAMD64=v1 baseline. Elsewhere it is dot4Acc4Go.
//
// Each spelling of the order is pinned bit for bit by a test:
//
//	dot4               Dot, Dense rows        TestCanonicalDotOrder
//	dot4Acc4 (SSE2)    Dense.Mul*To slabs     TestDot4Acc4MatchesDot4
//	dot4Acc4Go         !amd64, the oracle     TestDot4Acc4MatchesDot4
//	CSR slab loop      CSR.Mul*To, RowDotAt   TestCSRSlabCanonicalOrder,
//	  (sparse.go)                             FuzzCSRRowsCanonical
//	sum4, no products  Sum                    TestCanonicalSumOrder

// dot4 returns the canonical dot product of a and x (equal lengths assumed;
// callers bounds-check).
//
//repro:hotpath
func dot4(a, x []float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(a) &^ 3
	for j := 0; j < n4; j += 4 {
		aj := a[j : j+4 : j+4]
		xj := x[j : j+4 : j+4]
		s0 += aj[0] * xj[0]
		s1 += aj[1] * xj[1]
		s2 += aj[2] * xj[2]
		s3 += aj[3] * xj[3]
	}
	tail := 0.0
	for j := n4; j < len(a); j++ {
		tail += a[j] * x[j]
	}
	return ((s0 + s1) + (s2 + s3)) + tail
}

// dot4Acc4Go accumulates the products of columns [0, n) of four rows, row r
// being a[r*stride:], into its four strided accumulators acc[4r:4r+4]; n is
// a multiple of 4. It is dot4Acc4 on the architectures without an assembly
// kernel and that kernel's oracle.
//
//repro:hotpath
func dot4Acc4Go(acc *[16]float64, a []float64, stride int, x []float64, n int) {
	for r := 0; r < 4; r++ {
		row := a[r*stride:]
		s0, s1, s2, s3 := acc[4*r], acc[4*r+1], acc[4*r+2], acc[4*r+3]
		for j := 0; j < n; j += 4 {
			aj := row[j : j+4 : j+4]
			xj := x[j : j+4 : j+4]
			s0 += aj[0] * xj[0]
			s1 += aj[1] * xj[1]
			s2 += aj[2] * xj[2]
			s3 += aj[3] * xj[3]
		}
		acc[4*r], acc[4*r+1], acc[4*r+2], acc[4*r+3] = s0, s1, s2, s3
	}
}

// dot4Tail combines four strided accumulators with the sequential tail
// product of a[n4:] and x[n4:], completing the canonical reduction.
//
//repro:hotpath
func dot4Tail(acc []float64, a, x []float64, n4 int) float64 {
	tail := 0.0
	for j := n4; j < len(a); j++ {
		tail += a[j] * x[j]
	}
	return ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

// sum4 returns the canonical sum of a: the dot-product order of dot4 with
// the multiplications dropped — s0..s3 over j ≡ 0..3 (mod 4), sequential
// tail, fixed combine. Every plain float64 accumulation outside this
// package must reduce through Sum so the order stays canonical.
//
//repro:hotpath
func sum4(a []float64) float64 {
	var s0, s1, s2, s3 float64
	n4 := len(a) &^ 3
	for j := 0; j < n4; j += 4 {
		aj := a[j : j+4 : j+4]
		s0 += aj[0]
		s1 += aj[1]
		s2 += aj[2]
		s3 += aj[3]
	}
	tail := 0.0
	for j := n4; j < len(a); j++ {
		tail += a[j]
	}
	return ((s0 + s1) + (s2 + s3)) + tail
}
