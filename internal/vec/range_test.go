package vec

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func randomDense(rows, cols int, seed uint64) *Dense {
	rng := NewRNG(seed)
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Normal()
	}
	return m
}

func randomCSRMatrix(rows, cols int, nnzPerRow int, seed uint64) *CSR {
	rng := NewRNG(seed)
	var entries []COOEntry
	for r := 0; r < rows; r++ {
		for k := 0; k < nnzPerRow; k++ {
			entries = append(entries, COOEntry{
				Row: r, Col: int(rng.Uint64() % uint64(cols)), Val: rng.Normal(),
			})
		}
	}
	return NewCSR(rows, cols, entries)
}

// MulRangeTo must agree bit-identically with the corresponding rows of a
// full MulVecTo on random matrices, for every range.
func TestDenseMulRangeToMatchesMulVecTo(t *testing.T) {
	const rows, cols = 23, 17
	m := randomDense(rows, cols, 31)
	x := NewRNG(32).NormalVector(cols)
	full := make([]float64, rows)
	m.MulVecTo(full, x)
	for _, blk := range [][2]int{{0, rows}, {0, 0}, {0, 1}, {5, 14}, {rows - 1, rows}} {
		lo, hi := blk[0], blk[1]
		y := make([]float64, hi-lo)
		m.MulRangeTo(y, x, lo, hi)
		for i := range y {
			if y[i] != full[lo+i] {
				t.Errorf("dense range [%d,%d) row %d: %v != %v", lo, hi, lo+i, y[i], full[lo+i])
			}
		}
	}
}

func TestCSRMulRangeToMatchesMulVecTo(t *testing.T) {
	const rows, cols = 29, 29
	m := randomCSRMatrix(rows, cols, 4, 33)
	x := NewRNG(34).NormalVector(cols)
	full := make([]float64, rows)
	m.MulVecTo(full, x)
	for _, blk := range [][2]int{{0, rows}, {0, 0}, {0, 1}, {7, 20}, {rows - 1, rows}} {
		lo, hi := blk[0], blk[1]
		y := make([]float64, hi-lo)
		m.MulRangeTo(y, x, lo, hi)
		for i := range y {
			if y[i] != full[lo+i] {
				t.Errorf("csr range [%d,%d) row %d: %v != %v", lo, hi, lo+i, y[i], full[lo+i])
			}
		}
	}
}

// canonicalIndexed is the explicit reference for the sparse reduction
// order: s0..s3 over k ≡ 0..3 (mod 4) from the row start, sequential tail,
// ((s0+s1)+(s2+s3))+tail.
func canonicalIndexed(vals []float64, idx []int, x []float64) float64 {
	var s [4]float64
	n4 := len(vals) &^ 3
	for k := 0; k < n4; k++ {
		s[k%4] += vals[k] * x[idx[k]]
	}
	tail := 0.0
	for k := n4; k < len(vals); k++ {
		tail += vals[k] * x[idx[k]]
	}
	return ((s[0] + s[1]) + (s[2] + s[3])) + tail
}

// canonicalCSR is a 41-row matrix whose rows 0–36 hold 0–9 non-zeros
// (every residue of the 4-wide unroll, with and without a tail), and an x
// that holds ±0, ±Inf and NaN. Rows 6 and 37–40 meet only the zeros of x,
// with signs that make every product -0: row 6 has 6 entries, rows 37–40
// have 1, 2, 3 and 4, every length the slab loop reduces in straight-line
// code and its neighbour. Rows 16–18 meet one of +Inf, -Inf or NaN, and
// row 26 both infinities.
func canonicalCSR() (*CSR, []float64) {
	const rows, cols = 41, 29
	rng := NewRNG(81)
	x := rng.NormalVector(cols)
	copy(x, []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, math.Copysign(0, -1)})
	x[6], x[7], x[8] = math.Inf(1), math.Inf(-1), math.NaN()
	var entries []COOEntry
	for r := 0; r < 37; r++ {
		if r == 6 {
			continue
		}
		for k := 0; k < r%10; k++ {
			col := 9 + (r*7+k*3)%(cols-9) // finite columns, distinct within a row
			entries = append(entries, COOEntry{r, col, rng.Normal()})
		}
	}
	for r, n := range negZeroRows {
		for c := 0; c < n; c++ { // +v * -0 and -v * +0 are both -0
			entries = append(entries, COOEntry{r, c, math.Copysign(1.5, -x[c])})
		}
	}
	entries = append(entries,
		COOEntry{16, 6, 2}, COOEntry{17, 7, -3}, COOEntry{18, 8, 1},
		COOEntry{26, 6, 1}, COOEntry{26, 7, 1})
	return NewCSR(rows, cols, entries), x
}

// negZeroRows maps each row of canonicalCSR whose products are all -0 to
// its length.
var negZeroRows = map[int]int{6: 6, 37: 1, 38: 2, 39: 3, 40: 4}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Every spelling of the sparse reduction — RowDotAt, and the slab loop
// behind MulVecTo, MulRangeTo and MulAddRangeTo over every [lo, hi) — must
// produce the explicit canonical order's bits, signed zeros, infinities
// and NaNs included; the affine form must be RowDotAt(i, x) + b[i] exactly.
func TestCSRSlabCanonicalOrder(t *testing.T) {
	m, x := canonicalCSR()
	b := NewRNG(83).NormalVector(m.Rows)
	want := make([]float64, m.Rows)
	for i := range want {
		k0, k1 := m.RowPtr[i], m.RowPtr[i+1]
		want[i] = canonicalIndexed(m.Val[k0:k1], m.ColIdx[k0:k1], x)
		if got := m.RowDotAt(i, x); !sameBits(got, want[i]) {
			t.Errorf("RowDotAt(%d) = %v, canonical %v", i, got, want[i])
		}
	}
	for i, n := range negZeroRows { // the canonical sum of -0 products is +0
		var y [1]float64
		m.MulRangeTo(y[:], x, i, i+1)
		if got := m.RowDotAt(i, x); !sameBits(got, 0) || !sameBits(y[0], 0) {
			t.Errorf("%d -0 products: RowDotAt(%d) = %v, MulRangeTo = %v, want +0 from both", n, i, got, y[0])
		}
	}
	full := make([]float64, m.Rows)
	m.MulVecTo(full, x)
	for i := range full {
		if !sameBits(full[i], want[i]) {
			t.Errorf("MulVecTo[%d] = %v, RowDotAt %v", i, full[i], want[i])
		}
	}
	for lo := 0; lo <= m.Rows; lo++ {
		for hi := lo; hi <= m.Rows; hi++ {
			y, yb := make([]float64, hi-lo), make([]float64, hi-lo)
			m.MulRangeTo(y, x, lo, hi)
			m.MulAddRangeTo(yb, x, b, lo, hi)
			for r := range y {
				i := lo + r
				if !sameBits(y[r], want[i]) {
					t.Fatalf("MulRangeTo [%d,%d) row %d = %v, RowDotAt %v", lo, hi, i, y[r], want[i])
				}
				if aff := m.RowDotAt(i, x) + b[i]; !sameBits(yb[r], aff) {
					t.Fatalf("MulAddRangeTo [%d,%d) row %d = %v, RowDotAt + b %v", lo, hi, i, yb[r], aff)
				}
			}
		}
	}
}

// fuzzInput hands out a fuzz input one byte at a time, 0 once it is
// used up.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	c := (*in)[0]
	*in = (*in)[1:]
	return c
}

// fuzzValues is the table fuzzInput.value picks from: plain values and
// scanSpecials.
var fuzzValues = append([]float64{1, -1, 0.25, 3}, scanSpecials...)

// value decodes one float64: an even byte picks from fuzzValues, an odd one
// takes the next 8 bytes as raw bits.
func (in *fuzzInput) value() float64 {
	if c := in.next(); c%2 == 0 {
		return fuzzValues[int(c/2)%len(fuzzValues)]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(in.next())
	}
	return math.Float64frombits(bits)
}

// FuzzCSRRowsCanonical decodes its input into a small CSR (1–8 rows of 0–9
// entries over 1–8 columns, repeated columns allowed) and x, y and b, and
// checks every row of MulRangeTo and MulAddRangeTo over every [lo, hi), and
// RowDotAt, against canonicalIndexed (NaN payloads aside: where two NaNs
// meet, which one survives is the compiler's choice), and both scans of x
// against y against distInfOracle.
func FuzzCSRRowsCanonical(f *testing.F) {
	negZeros := []byte{3, 3, // 4 rows, 4 columns: rows of 2, 3, 4 and 5 entries of 1
		2, 0, 0, 1, 0,
		3, 0, 0, 1, 0, 2, 0,
		4, 0, 0, 1, 0, 2, 0, 3, 0,
		5, 0, 0, 1, 0, 2, 0, 3, 0, 0, 0,
		16, 16, 16, 16} // x = -0: every product is -0
	f.Add(negZeros)
	underflows := []byte{1, 0, // 2 rows, 1 column
		2, 0, 20, 0, 22, // -min, largest subnormal
		3, 0, 20, 0, 22, 0, 22,
		20} // x = -min: the products underflow to +0 and -0; a fused chain can end at -0
	f.Add(underflows)
	f.Add([]byte{})
	f.Add([]byte("\x07\x05 arbitrary text, odd bytes read as raw float bits \xff\xf0"))
	f.Add([]byte{7, 7, 9, 8, 1, 7, 3, 5, 2, 9, 4, 11, 6, 13, 8, 15, 10, 17, 12, 19, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		rows, cols := 1+int(in.next()%8), 1+int(in.next()%8)
		m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
		for r := 0; r < rows; r++ {
			for n := in.next() % 10; n > 0; n-- {
				m.ColIdx = append(m.ColIdx, int(in.next())%cols)
				m.Val = append(m.Val, in.value())
			}
			m.RowPtr[r+1] = len(m.Val)
		}
		x, y, b := make([]float64, cols), make([]float64, cols), make([]float64, rows)
		for _, v := range [][]float64{x, y, b} {
			for i := range v {
				v[i] = in.value()
			}
		}
		checkScans(t, x, y)
		want := make([]float64, rows)
		for i := range want {
			k0, k1 := m.RowPtr[i], m.RowPtr[i+1]
			want[i] = canonicalIndexed(m.Val[k0:k1], m.ColIdx[k0:k1], x)
			if got := m.RowDotAt(i, x); !sameResult(got, want[i]) {
				t.Fatalf("RowDotAt(%d) = %v, canonical %v", i, got, want[i])
			}
		}
		for lo := 0; lo <= rows; lo++ {
			for hi := lo; hi <= rows; hi++ {
				got, gotb := make([]float64, hi-lo), make([]float64, hi-lo)
				m.MulRangeTo(got, x, lo, hi)
				m.MulAddRangeTo(gotb, x, b, lo, hi)
				for r := range got {
					i := lo + r
					if !sameResult(got[r], want[i]) {
						t.Fatalf("MulRangeTo [%d,%d) row %d = %v, canonical %v", lo, hi, i, got[r], want[i])
					}
					if aff := want[i] + b[i]; !sameResult(gotb[r], aff) {
						t.Fatalf("MulAddRangeTo [%d,%d) row %d = %v, canonical + b %v", lo, hi, i, gotb[r], aff)
					}
				}
			}
		}
	})
}

// Dot, MulVecTo and RowDotAt share the canonical 4-accumulator order; pin
// it against an explicit reference so a future "optimization" that
// reassociates differently cannot slip in silently.
func TestCanonicalDotOrder(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 8, 17, 64, 101} {
		a := NewRNG(uint64(51 + n)).NormalVector(n)
		x := NewRNG(uint64(53 + n)).NormalVector(n)
		var s0, s1, s2, s3 float64
		n4 := n &^ 3
		for j := 0; j < n4; j += 4 {
			s0 += a[j] * x[j]
			s1 += a[j+1] * x[j+1]
			s2 += a[j+2] * x[j+2]
			s3 += a[j+3] * x[j+3]
		}
		tail := 0.0
		for j := n4; j < n; j++ {
			tail += a[j] * x[j]
		}
		want := ((s0 + s1) + (s2 + s3)) + tail
		if got := Dot(a, x); got != want {
			t.Errorf("n=%d: Dot %v != canonical %v", n, got, want)
		}
	}
}

// naiveGram is the independent oracle for the Gram kernel: the plain triple
// loop, each element's products added in ascending sample order, no zero
// skip, no symmetry, no tiling.
func naiveGram(m *Dense) *Dense {
	g := NewDense(m.Cols, m.Cols)
	for a := 0; a < m.Cols; a++ {
		for b := 0; b < m.Cols; b++ {
			s := 0.0
			for i := 0; i < m.Rows; i++ {
				s += m.At(i, a) * m.At(i, b)
			}
			g.Set(a, b, s)
		}
	}
	return g
}

// gramShapes are the awkward inputs the kernel is pinned on: degenerate and
// odd sizes, the NewRegression shape (identity block over dense rows, where
// the zero skip fires on a quarter of the samples), all-zero columns, and
// column counts one either side of a tile boundary.
func gramShapes() map[string]*Dense {
	identityTop := randomDense(48, 12, 53)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			identityTop.Set(i, j, 0)
		}
		identityTop.Set(i, i, 3.5+float64(i))
	}
	zeroCols := randomDense(21, 9, 59)
	for i := 0; i < zeroCols.Rows; i++ {
		zeroCols.Set(i, 0, 0)
		zeroCols.Set(i, 4, 0)
		zeroCols.Set(i, 8, 0)
	}
	// gramTileRows(n) == n exactly at n*n == gramTileFloats; one column
	// fewer is a single tile with slack, one more spills into a second.
	edge := 1
	for (edge+1)*(edge+1) <= gramTileFloats {
		edge++
	}
	return map[string]*Dense{
		"1x1":          randomDense(1, 1, 41),
		"5x3":          randomDense(5, 3, 43),
		"19x13":        randomDense(19, 13, 47),
		"37x17":        randomDense(37, 17, 49),
		"identity-top": identityTop,
		"zero-columns": zeroCols,
		"tile-1":       randomDense(70, edge-1, 61),
		"tile":         randomDense(70, edge, 67),
		"tile+1":       randomDense(70, edge+1, 71),
		"many-tiles":   randomDense(9, 523, 73), // 8-row tiles, 66 of them
	}
}

// shardPartitions returns partitions of [0, n) worth trying: the whole
// range, every row its own shard, and uneven cuts.
func shardPartitions(n int) [][]int {
	parts := [][]int{{0, n}}
	single := make([]int, n+1)
	for i := range single {
		single[i] = i
	}
	parts = append(parts, single)
	if n >= 3 {
		parts = append(parts, []int{0, 1, n}, []int{0, n / 3, n/3 + 1, n}, []int{0, n - 1, n})
	}
	return parts
}

func assertSameBits(t *testing.T, label string, got, want *Dense) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v, oracle %v", label, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

// AtA, and AtAShard over any partition in any order, must reproduce the
// naive oracle bit for bit on every shape.
func TestAtAShardMatchesAtA(t *testing.T) {
	for name, m := range gramShapes() {
		want := naiveGram(m)
		assertSameBits(t, name+" AtA", m.AtA(), want)
		for _, bounds := range shardPartitions(m.Cols) {
			got := NewDense(m.Cols, m.Cols)
			for i := len(bounds) - 2; i >= 0; i-- { // last shard first: order must not matter
				m.AtAShard(got, bounds[i], bounds[i+1])
			}
			assertSameBits(t, fmt.Sprintf("%s shards %v", name, bounds), got, want)
		}
	}
}

// Shards over disjoint Gram-row ranges write disjoint elements, so they may
// run concurrently (this is the case `go test -race` is for).
func TestAtAShardConcurrent(t *testing.T) {
	m := randomDense(64, 96, 79)
	want := naiveGram(m)
	got := NewDense(96, 96)
	bounds := []int{0, 7, 8, 40, 41, 90, 96}
	var wg sync.WaitGroup
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.AtAShard(got, lo, hi)
		}()
	}
	wg.Wait()
	assertSameBits(t, "concurrent shards", got, want)
}

// RowDotAt takes an x of exactly Cols components: a longer one would
// silently give a prefix's dot product, a shorter one fail mid-row. Both
// panic up front, naming the dimensions.
func TestDenseRowDotAtLengthPanics(t *testing.T) {
	m := randomDense(8, 8, 37)
	for _, n := range []int{7, 9} {
		func() {
			defer func() {
				want := fmt.Sprintf("(8x8)*%d", n)
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
					t.Errorf("RowDotAt with len(x) = %d: panic %q does not name %s", n, msg, want)
				}
			}()
			m.RowDotAt(2, make([]float64, n))
		}()
	}
}

func TestMulRangeToBoundsPanics(t *testing.T) {
	dense := randomDense(8, 8, 35)
	csr := randomCSRMatrix(8, 8, 2, 36)
	x := make([]float64, 8)
	cases := []struct {
		name string
		call func()
	}{
		{"dense lo<0", func() { dense.MulRangeTo(make([]float64, 3), x, -1, 2) }},
		{"dense hi>rows", func() { dense.MulRangeTo(make([]float64, 3), x, 6, 9) }},
		{"dense lo>hi", func() { dense.MulRangeTo(make([]float64, 0), x, 5, 3) }},
		{"dense bad y", func() { dense.MulRangeTo(make([]float64, 2), x, 0, 3) }},
		{"dense bad x", func() { dense.MulRangeTo(make([]float64, 3), x[:5], 0, 3) }},
		{"csr lo<0", func() { csr.MulRangeTo(make([]float64, 3), x, -1, 2) }},
		{"csr hi>rows", func() { csr.MulRangeTo(make([]float64, 3), x, 6, 9) }},
		{"csr lo>hi", func() { csr.MulRangeTo(make([]float64, 0), x, 5, 3) }},
		{"csr bad y", func() { csr.MulRangeTo(make([]float64, 2), x, 0, 3) }},
		{"csr bad x", func() { csr.MulRangeTo(make([]float64, 3), x[:5], 0, 3) }},
		{"csr bad b", func() { csr.MulAddRangeTo(make([]float64, 3), x, x[:7], 0, 3) }},
		{"csr affine bad y", func() { csr.MulAddRangeTo(make([]float64, 2), x, x, 0, 3) }},
		{"csr full bad y", func() { csr.MulVecTo(make([]float64, 7), x) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
	// The CSR mismatch panic names the dimensions, as Dense's does.
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "(8x8)*8 -> 2 (range [0,3), offset 0)") {
			t.Errorf("csr mismatch panic %q does not name the dimensions", msg)
		}
	}()
	csr.MulRangeTo(make([]float64, 2), x, 0, 3)
}
