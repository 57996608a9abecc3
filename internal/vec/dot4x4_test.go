package vec

import (
	"math"
	"testing"
)

// dot4x4Specials are the values whose bits a reordered or fused reduction
// would change: NaN, infinities, a negative zero, subnormals, and
// magnitudes whose products overflow to ±Inf (then Inf - Inf = NaN) or
// underflow into the subnormal range.
var dot4x4Specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	5e-324, -2.5e-310, 1e300, -1e300, 1e-160, -3e-170,
}

// fillDot4x4 fills v with normals, or with a third of its entries drawn from
// dot4x4Specials when special is set.
func fillDot4x4(rng *RNG, v []float64, special bool) {
	for i := range v {
		if special && rng.Intn(3) == 0 {
			v[i] = dot4x4Specials[rng.Intn(len(dot4x4Specials))]
		} else {
			v[i] = rng.Normal()
		}
	}
}

// sameResult is sameBits up to the NaN payload. Where two NaNs meet in an
// add the result keeps one operand's payload, and the compiler orders the
// operands of a commutative add freely: dot4 and dot4Acc4Go+dot4Tail
// already differ there, and dot4Acc4Go's own order changes under -race. Every engine
// stops at the first NaN, so a NaN's payload is not part of the
// bit-identity contract; its being NaN is.
func sameResult(a, b float64) bool {
	return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b)
}

// Every spelling of a four-row slab reduction gives dot4's bits: the kernel
// dot4Acc4 (SSE2 assembly on amd64), its Go spelling dot4Acc4Go, and dot4
// one row at a time, on random shapes (rows 0-9, columns 0-13 and 256, row
// stride above the column count) and on special values. The slab loop that
// drives the kernel, MulRangeTo, is held to dot4 on the same inputs.
func TestDot4Acc4MatchesDot4(t *testing.T) {
	rng := NewRNG(91)
	cols := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 256}
	for _, special := range []bool{false, true} {
		for rows := 0; rows <= 9; rows++ {
			for _, n := range cols {
				for _, pad := range []int{0, 1, 3, 8} {
					stride := n + pad
					// One spare element each, so the kernel gets valid
					// pointers even when the slab is empty.
					data := make([]float64, rows*stride+1)
					x := make([]float64, n+1)
					fillDot4x4(rng, data, special)
					fillDot4x4(rng, x, special)
					n4 := n &^ 3
					for g := 0; g+4 <= rows; g += 4 {
						var asm, gen [16]float64
						dot4Acc4(&asm, &data[g*stride], stride, &x[0], n4)
						dot4Acc4Go(&gen, data[g*stride:], stride, x, n4)
						for k := range asm {
							if !sameResult(asm[k], gen[k]) {
								t.Fatalf("special=%v %d rows, n=%d stride %d, group %d acc[%d]: dot4Acc4 %v (%x), dot4Acc4Go %v (%x)",
									special, rows, n, stride, g, k, asm[k], math.Float64bits(asm[k]), gen[k], math.Float64bits(gen[k]))
							}
						}
						for r := 0; r < 4; r++ {
							row := data[(g+r)*stride : (g+r)*stride+n]
							got, want := dot4Tail(asm[4*r:4*r+4], row, x[:n], n4), dot4(row, x[:n])
							if !sameResult(got, want) {
								t.Fatalf("special=%v %d rows, n=%d stride %d, row %d: dot4Acc4 %v (%x), dot4 %v (%x)",
									special, rows, n, stride, g+r, got, math.Float64bits(got), want, math.Float64bits(want))
							}
						}
					}
				}
				m := NewDense(rows, n)
				fillDot4x4(rng, m.Data, special)
				x := make([]float64, n)
				fillDot4x4(rng, x, special)
				for lo := 0; lo <= rows; lo++ {
					y := make([]float64, rows-lo)
					m.MulRangeTo(y, x, lo, rows)
					for i := range y {
						want := dot4(m.Row(lo+i), x)
						if !sameResult(y[i], want) {
							t.Fatalf("special=%v %dx%d [%d,%d) row %d: MulRangeTo %x, dot4 %x",
								special, rows, n, lo, rows, lo+i, math.Float64bits(y[i]), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}
