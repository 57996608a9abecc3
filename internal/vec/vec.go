// Package vec provides the small dense/sparse linear-algebra kernels used by
// the asynchronous-iteration library: BLAS-1 style vector operations, dense
// and compressed-sparse-row matrices, and the weighted maximum norms that the
// asynchronous-iterations literature (and the reproduced paper) states its
// contraction hypotheses in.
//
// Everything is deliberately simple, allocation-conscious and deterministic;
// no external numeric libraries are used.
package vec

import (
	"fmt"
	"math"
)

// Vector is a dense vector of float64. The zero value is a usable empty
// vector. Most functions treat Vectors as plain slices so callers may pass
// []float64 directly.
type Vector = []float64

// New returns a zero vector of length n.
func New(n int) Vector {
	return make(Vector, n)
}

// Constant returns a vector of length n with every component equal to c.
func Constant(n int, c float64) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = c
	}
	return v
}

// Clone returns a fresh copy of x.
func Clone(x Vector) Vector {
	y := make(Vector, len(x))
	copy(y, x)
	return y
}

// Add returns x + y as a new vector.
func Add(x, y Vector) Vector {
	z := make(Vector, len(x))
	AddInto(z, x, y)
	return z
}

// AddInto computes dst = x + y without allocating; dst may alias x or y.
func AddInto(dst, x, y Vector) {
	checkLen(x, y)
	checkLen(dst, x)
	for i := range x {
		dst[i] = x[i] + y[i]
	}
}

// Sub returns x - y as a new vector.
func Sub(x, y Vector) Vector {
	z := make(Vector, len(x))
	SubInto(z, x, y)
	return z
}

// SubInto computes dst = x - y without allocating; dst may alias x or y.
func SubInto(dst, x, y Vector) {
	checkLen(x, y)
	checkLen(dst, x)
	for i := range x {
		dst[i] = x[i] - y[i]
	}
}

// Scale returns a*x as a new vector.
func Scale(a float64, x Vector) Vector {
	z := make(Vector, len(x))
	ScaleInto(z, a, x)
	return z
}

// ScaleInto computes dst = a*x without allocating; dst may alias x.
func ScaleInto(dst Vector, a float64, x Vector) {
	checkLen(dst, x)
	for i := range x {
		dst[i] = a * x[i]
	}
}

// AXPY computes y += a*x in place. The 4-wide unroll changes no bits:
// each component is updated independently, so no reduction is reassociated.
//
//repro:hotpath
func AXPY(a float64, x, y Vector) {
	checkLen(x, y)
	n4 := len(x) &^ 3
	for i := 0; i < n4; i += 4 {
		xi := x[i : i+4 : i+4]
		yi := y[i : i+4 : i+4]
		yi[0] += a * xi[0]
		yi[1] += a * xi[1]
		yi[2] += a * xi[2]
		yi[3] += a * xi[3]
	}
	for i := n4; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// Dot returns the inner product of x and y in the canonical 4-accumulator
// reduction order (see kernels.go) — the one order every dense and sparse
// dot in the library uses, so full, range and componentwise evaluation
// paths stay mutually bit-identical.
//
//repro:hotpath
func Dot(x, y Vector) float64 {
	checkLen(x, y)
	return dot4(x, y)
}

// Sum returns the sum of the components of x in the canonical
// 4-accumulator reduction order (see kernels.go) — the accumulation analog
// of Dot, so ad-hoc summation loops elsewhere can reduce through one
// shared order.
//
//repro:hotpath
func Sum(x Vector) float64 {
	return sum4(x)
}

// DotStrideAcc returns acc + Σ_h a[h]·b[off+h·stride], accumulating
// SEQUENTIALLY in ascending h onto the seed acc. This is the canonical
// order for seeded column reductions — the LeastSquares lean gradient
// starts each component at reg·x_c and folds the sample terms in row
// order, and every granularity (full, range, componentwise) must share
// that exact chain to stay bit-identical.
//
//repro:hotpath
func DotStrideAcc(acc float64, a, b Vector, off, stride int) float64 {
	if stride <= 0 {
		panic("vec: DotStrideAcc requires positive stride")
	}
	if len(a) > 0 && off+(len(a)-1)*stride >= len(b) {
		//repro:alloc-ok panic path; TestSumAllocationFree pins DotStrideAcc at 0
		panic(fmt.Sprintf("vec: DotStrideAcc out of range: off %d stride %d over len %d", off, stride, len(b)))
	}
	for h := range a {
		acc += a[h] * b[off+h*stride]
	}
	return acc
}

// LerpInto computes dst = (1-t)*x + t*y without allocating; dst may alias
// x or y.
func LerpInto(dst, x, y Vector, t float64) {
	checkLen(x, y)
	checkLen(dst, x)
	for i := range x {
		dst[i] = x[i] + t*(y[i]-x[i])
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x Vector) float64 {
	// Scaled accumulation to avoid overflow on extreme inputs.
	s, scale := 0.0, 0.0
	for _, v := range x {
		a := math.Abs(v)
		if a == 0 {
			continue
		}
		if a > scale {
			r := scale / a
			s = 1 + s*r*r
			scale = a
		} else {
			r := a / scale
			s += r * r
		}
	}
	return scale * math.Sqrt(s)
}

// NormInf returns the maximum norm of x.
func NormInf(x Vector) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// DistInf returns ||x - y||_inf without allocating, skipping NaN
// differences: DistInfNaN's m.
//
//repro:hotpath
func DistInf(x, y Vector) float64 {
	m, _ := DistInfNaN(x, y)
	return m
}

// FirstNaN returns the index of the first NaN in x, or -1: DistInf skips
// NaN, so engines without DistInfNaN's scan test their block with this.
//
//repro:hotpath
func FirstNaN(x Vector) int {
	for i, v := range x {
		if v != v {
			return i
		}
	}
	return -1
}

// DistInfNaN returns (DistInf(x, y), FirstNaN(x)) in one pass, the scan of
// a worker's evaluated block x against its view y. Four lanes keep the max
// of the bits of |x_i - y_i| with no data-dependent branch: non-negative
// doubles order as their bits, and a NaN's lie above +Inf's. A max above
// +Inf's bits (a NaN of x or y, or +Inf - +Inf, where routing starts)
// reruns the exact loop, so (m, bad) is the same on every input.
//
//repro:hotpath
func DistInfNaN(x, y Vector) (m float64, bad int) {
	checkLen(x, y)
	var m0, m1, m2, m3 uint64
	n4 := len(x) &^ 3
	for i := 0; i < n4; i += 4 {
		xi := x[i : i+4 : i+4]
		yi := y[i : i+4 : i+4]
		m0 = max(m0, math.Float64bits(math.Abs(xi[0]-yi[0])))
		m1 = max(m1, math.Float64bits(math.Abs(xi[1]-yi[1])))
		m2 = max(m2, math.Float64bits(math.Abs(xi[2]-yi[2])))
		m3 = max(m3, math.Float64bits(math.Abs(xi[3]-yi[3])))
	}
	for i := n4; i < len(x); i++ {
		m0 = max(m0, math.Float64bits(math.Abs(x[i]-y[i])))
	}
	if top := max(max(m0, m1), max(m2, m3)); top <= 0x7FF<<52 { // +Inf's bits
		return math.Float64frombits(top), -1
	}
	for i := range x { // `a > m` is false for NaN: NaN differences are skipped
		if a := math.Abs(x[i] - y[i]); a > m {
			m = a
		}
	}
	return m, FirstNaN(x)
}

// Dist2 returns ||x - y||_2 without allocating.
func Dist2(x, y Vector) float64 {
	checkLen(x, y)
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// WeightedMaxNorm returns the weighted maximum norm
//
//	||x||_u = max_i |x_i| / u_i,
//
// the norm in which the asynchronous-iterations contraction theory is stated
// (u must be componentwise positive).
func WeightedMaxNorm(x, u Vector) float64 {
	checkLen(x, u)
	m := 0.0
	for i := range x {
		if u[i] <= 0 {
			panic("vec: WeightedMaxNorm requires positive weights")
		}
		if a := math.Abs(x[i]) / u[i]; a > m {
			m = a
		}
	}
	return m
}

// WeightedMaxDist returns ||x - y||_u without allocating.
func WeightedMaxDist(x, y, u Vector) float64 {
	checkLen(x, y)
	checkLen(x, u)
	m := 0.0
	for i := range x {
		if u[i] <= 0 {
			panic("vec: WeightedMaxDist requires positive weights")
		}
		if a := math.Abs(x[i]-y[i]) / u[i]; a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether x and y agree within absolute tolerance tol in every
// component.
func Equal(x, y Vector, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}

// AllFinite reports whether every component of x is finite (no NaN/Inf).
func AllFinite(x Vector) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func checkLen(x, y Vector) {
	if len(x) != len(y) {
		//repro:alloc-ok panic path; TestVectorKernelsAllocationFree pins its callers at 0
		panic(fmt.Sprintf("vec: length mismatch %d != %d", len(x), len(y)))
	}
}

// Blocks partitions {0,...,n-1} into m contiguous blocks of nearly equal
// size. It returns a slice of m index ranges [lo,hi). Blocks are the unit of
// work assigned to each simulated processor in the block-iterative methods.
func Blocks(n, m int) [][2]int {
	if m <= 0 || n < 0 {
		panic("vec: Blocks requires n >= 0, m > 0")
	}
	if m > n && n > 0 {
		m = n
	}
	out := make([][2]int, 0, m)
	base, rem := 0, 0
	if m > 0 {
		base, rem = n/m, n%m
	}
	lo := 0
	for b := 0; b < m; b++ {
		sz := base
		if b < rem {
			sz++
		}
		out = append(out, [2]int{lo, lo + sz})
		lo += sz
	}
	return out
}

// BlockOf returns the index of the block (as produced by Blocks(n, m))
// containing component i.
func BlockOf(blocks [][2]int, i int) int {
	for b, r := range blocks {
		if i >= r[0] && i < r[1] {
			return b
		}
	}
	return -1
}
