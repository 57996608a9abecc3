package vec

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zero Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("vec: NewDense negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// DenseFromRows builds a Dense matrix from row slices (which are copied).
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("vec: DenseFromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = M x, allocating the result.
func (m *Dense) MulVec(x Vector) Vector {
	y := make(Vector, m.Rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = M x into the provided slice: MulRangeTo over every
// row.
func (m *Dense) MulVecTo(y, x Vector) { m.MulRangeTo(y, x, 0, m.Rows) }

// MulVecTransTo computes y = M^T x into y (len Cols).
func (m *Dense) MulVecTransTo(y, x Vector) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("vec: MulVecTransTo dimension mismatch")
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		for j, a := range row {
			y[j] += a * xi
		}
	}
}

// MulRangeTo computes the row range y[i-lo] = (M x)_i for i in [lo, hi) —
// the row-slab matvec the block-evaluation fast path runs once per worker
// phase instead of hi-lo independent RowDotAt calls. The per-row summation
// order is identical to RowDotAt, so range and componentwise evaluation are
// bit-identical.
func (m *Dense) MulRangeTo(y, x Vector, lo, hi int) {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("vec: MulRangeTo range [%d,%d) outside %d rows", lo, hi, m.Rows))
	}
	if len(x) != m.Cols || len(y) != hi-lo {
		panic(fmt.Sprintf("vec: MulRangeTo dimension mismatch (%dx%d)*%d -> %d (range %d)",
			m.Rows, m.Cols, len(x), len(y), hi-lo))
	}
	// Four rows at a time through dot4Acc4, the rest one by one. The checks
	// above bound every address the kernel reads.
	cols4 := m.Cols &^ 3
	i := lo
	if cols4 > 0 {
		var acc [16]float64
		for ; i+4 <= hi; i += 4 {
			acc = [16]float64{}
			dot4Acc4(&acc, &m.Data[i*m.Cols], m.Cols, &x[0], cols4)
			for r := 0; r < 4; r++ {
				y[i-lo+r] = dot4Tail(acc[4*r:4*r+4], m.Row(i+r), x, cols4)
			}
		}
	}
	for ; i < hi; i++ {
		y[i-lo] = dot4(m.Row(i), x)
	}
}

// RowDotAt returns the dot product of row i with x in the canonical
// reduction order; used for componentwise residual evaluation without
// touching other rows. Bit-identical to the corresponding MulVecTo /
// MulRangeTo component.
func (m *Dense) RowDotAt(i int, x Vector) float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vec: RowDotAt row %d dimension mismatch (%dx%d)*%d", i, m.Rows, m.Cols, len(x)))
	}
	return dot4(m.Row(i), x)
}

// AtA computes the Gram matrix M^T M (Cols x Cols).
func (m *Dense) AtA() *Dense {
	g := NewDense(m.Cols, m.Cols)
	m.AtAShard(g, 0, m.Cols)
	return g
}

// gramTileFloats bounds the Gram rows one AtAShard tile keeps hot: 4096
// float64s (32 KiB) of output, so a tile stays in L1 while the samples
// stream past it.
const gramTileFloats = 4096

// gramTileRows is the number of Gram rows per tile for an n-column matrix.
func gramTileRows(n int) int {
	if t := gramTileFloats / n; t > 8 {
		return t
	}
	return 8
}

// AtAShard assembles the part of the Gram matrix g = M^T M that belongs to
// Gram rows [lo, hi): the upper-triangle elements (a, b), lo <= a < hi,
// b >= a, accumulated onto g (which the caller hands in zeroed), and their
// mirror images (b, a). It is the one Gram kernel in the tree — AtA, the
// sharded assembly in operators.Gram and every regression build go through
// it. Element (p, q) is written only by the shard that owns min(p, q), so
// shards over disjoint row ranges touch disjoint elements and may run
// concurrently, and a partition of [0, Cols) fills all of g.
//
// The range is walked in tiles of gramTileRows Gram rows and the samples
// stream past once per tile. Per element the products are still added in
// ascending sample order, a*b == b*a, and a skipped zero sample entry would
// have added nothing to a finite sum, so the result is bit-identical to the
// plain triple loop for any shard partition and any tile size.
func (m *Dense) AtAShard(g *Dense, lo, hi int) {
	n := m.Cols
	if g.Rows != n || g.Cols != n {
		panic(fmt.Sprintf("vec: AtAShard output %dx%d, want %dx%d", g.Rows, g.Cols, n, n))
	}
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("vec: AtAShard range [%d,%d) outside %d Gram rows", lo, hi, n))
	}
	tile := gramTileRows(n)
	for t := lo; t < hi; t += tile {
		te := t + tile
		if te > hi {
			te = hi
		}
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for a := t; a < te; a++ {
				ra := row[a]
				if ra == 0 {
					continue
				}
				AXPY(ra, row[a:], g.Data[a*n+a:a*n+n])
			}
		}
		for a := t; a < te; a++ {
			for b := a + 1; b < n; b++ {
				g.Data[b*n+a] = g.Data[a*n+b]
			}
		}
	}
}

// InfNorm returns the matrix norm induced by the max vector norm
// (maximum absolute row sum).
func (m *Dense) InfNorm() float64 {
	worst := 0.0
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for _, a := range m.Row(i) {
			s += math.Abs(a)
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

// OffDiagAbsSum returns sum_{j!=i} |M_ij|, the Gershgorin radius of row i.
func (m *Dense) OffDiagAbsSum(i int) float64 {
	off := 0.0
	for j, a := range m.Row(i) {
		if j != i {
			off += math.Abs(a)
		}
	}
	return off
}

// IsDiagonallyDominant reports whether |M_ii| > sum_{j!=i} |M_ij| for every
// row, with the strictness margin returned as the minimum row slack.
func (m *Dense) IsDiagonallyDominant() (bool, float64) {
	return m.IsDiagonallyDominantShifted(0)
}

// IsDiagonallyDominantShifted is IsDiagonallyDominant of M + shift*I, read
// off M without forming the shifted matrix.
func (m *Dense) IsDiagonallyDominantShifted(shift float64) (bool, float64) {
	if m.Rows != m.Cols {
		return false, 0
	}
	minSlack := math.Inf(1)
	for i := 0; i < m.Rows; i++ {
		slack := math.Abs(m.At(i, i)+shift) - m.OffDiagAbsSum(i)
		if slack < minSlack {
			minSlack = slack
		}
	}
	return minSlack > 0, minSlack
}

// SymEigBounds returns cheap bounds [lo, hi] on the eigenvalues of a
// symmetric matrix via Gershgorin discs. For Hessians this yields usable
// (mu, L) estimates when the matrix is diagonally dominant.
func (m *Dense) SymEigBounds() (lo, hi float64) {
	return m.SymEigBoundsShifted(0)
}

// SymEigBoundsShifted is SymEigBounds of M + shift*I, read off M without
// forming the shifted matrix.
func (m *Dense) SymEigBoundsShifted(shift float64) (lo, hi float64) {
	if m.Rows != m.Cols {
		panic("vec: SymEigBounds requires a square matrix")
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.Rows; i++ {
		r := m.OffDiagAbsSum(i)
		d := m.At(i, i) + shift
		if d-r < lo {
			lo = d - r
		}
		if d+r > hi {
			hi = d + r
		}
	}
	return lo, hi
}

// SolveGaussian solves M z = rhs by Gaussian elimination with partial
// pivoting (used only to compute reference fixed points in tests and
// experiment harnesses; the iterative methods never call it).
func (m *Dense) SolveGaussian(rhs Vector) (Vector, error) {
	n := m.Rows
	if m.Cols != n || len(rhs) != n {
		return nil, fmt.Errorf("vec: SolveGaussian needs square system, got %dx%d rhs %d", m.Rows, m.Cols, len(rhs))
	}
	a := m.Clone()
	b := Clone(rhs)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p, best := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("vec: SolveGaussian singular at column %d", col)
		}
		if p != col {
			ra, rb := a.Row(p), a.Row(col)
			for j := range ra {
				ra[j], rb[j] = rb[j], ra[j]
			}
			b[p], b[col] = b[col], b[p]
		}
		piv := a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) / piv
			if f == 0 {
				continue
			}
			rowR, rowC := a.Row(r), a.Row(col)
			for j := col; j < n; j++ {
				rowR[j] -= f * rowC[j]
			}
			b[r] -= f * b[col]
		}
	}
	x := New(n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := a.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}
