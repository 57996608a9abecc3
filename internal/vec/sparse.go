package vec

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row matrix. It is the storage format for the
// large grid/graph operators (obstacle problem Laplacians, network
// incidence structures) where dense storage would be wasteful.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len nnz
	Val        []float64 // len nnz
}

// COOEntry is a coordinate-format triplet used to assemble CSR matrices.
type COOEntry struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a CSR matrix from coordinate entries. Duplicate (row,col)
// entries are summed, matching standard sparse assembly semantics.
func NewCSR(rows, cols int, entries []COOEntry) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("vec: NewCSR entry (%d,%d) out of bounds %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	sorted := make([]COOEntry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for k := 0; k < len(sorted); {
		e := sorted[k]
		v := e.Val
		k++
		for k < len(sorted) && sorted[k].Row == e.Row && sorted[k].Col == e.Col {
			v += sorted[k].Val
			k++
		}
		m.ColIdx = append(m.ColIdx, e.Col)
		m.Val = append(m.Val, v)
		m.RowPtr[e.Row+1] = len(m.ColIdx)
	}
	for r := 1; r <= rows; r++ {
		if m.RowPtr[r] < m.RowPtr[r-1] {
			m.RowPtr[r] = m.RowPtr[r-1]
		}
	}
	return m
}

// MulVecTo computes y = M x: MulRangeTo over every row, so each row matches
// RowDotAt bit for bit (the canonical order, see kernels.go).
func (m *CSR) MulVecTo(y, x Vector) { m.MulRangeTo(y, x, 0, m.Rows) }

// MulVec computes y = M x, allocating the result.
func (m *CSR) MulVec(x Vector) Vector {
	y := make(Vector, m.Rows)
	m.MulVecTo(y, x)
	return y
}

// MulRangeTo computes the row range y[i-lo] = (M x)_i for i in [lo, hi) —
// the sparse row-slab matvec behind the block-evaluation fast path of the
// grid/graph operators. Per-row summation order matches RowDotAt exactly, so
// range and componentwise evaluation are bit-identical.
func (m *CSR) MulRangeTo(y, x Vector, lo, hi int) { m.MulAddRangeTo(y, x, nil, lo, hi) }

// MulAddRangeTo is MulRangeTo for the affine map M x + b: y[i-lo] =
// (M x)_i + b[i], b of length Rows (nil: no offset). The offset is added
// after the row's full reduction, so each entry equals RowDotAt(i, x) + b[i]
// bit for bit — the Component of an affine operator.
func (m *CSR) MulAddRangeTo(y, x, b Vector, lo, hi int) {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("vec: CSR MulRangeTo range [%d,%d) outside %d rows", lo, hi, m.Rows))
	}
	if len(x) != m.Cols || len(y) != hi-lo || b != nil && len(b) != m.Rows {
		panic(fmt.Sprintf("vec: CSR MulRangeTo dimension mismatch (%dx%d)*%d -> %d (range [%d,%d), offset %d)",
			m.Rows, m.Cols, len(x), len(y), lo, hi, len(b)))
	}
	m.mulAddRange(y, x, b, lo, hi)
}

// mulAddRange is the CSR slab loop behind MulAddRangeTo: each row reduced
// inline in dot4Indexed's order, with no call or re-slicing per row (k runs
// on from one row's end into the next). Callers check the bounds.
//
//repro:hotpath
func (m *CSR) mulAddRange(y, x, b Vector, lo, hi int) {
	rp := m.RowPtr[lo : hi+1]
	val, col := m.Val, m.ColIdx
	y = y[:len(rp)-1]
	k := rp[0]
	for r, end := range rp[1:] {
		var s0, s1, s2, s3 float64
		for ; k+4 <= end; k += 4 {
			vk := val[k : k+4 : k+4]
			ck := col[k : k+4 : k+4]
			s0 += vk[0] * x[ck[0]]
			s1 += vk[1] * x[ck[1]]
			s2 += vk[2] * x[ck[2]]
			s3 += vk[3] * x[ck[3]]
		}
		tail := 0.0
		for ; k < end; k++ {
			tail += val[k] * x[col[k]]
		}
		s := ((s0 + s1) + (s2 + s3)) + tail
		if b != nil {
			s += b[lo+r]
		}
		y[r] = s
	}
}

// RowDotAt returns (M x)_i touching only row i; this is the per-component
// evaluation the asynchronous engines call. Canonical reduction order,
// bit-identical to the corresponding MulVecTo / MulRangeTo component.
func (m *CSR) RowDotAt(i int, x Vector) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return dot4Indexed(m.Val[lo:hi], m.ColIdx[lo:hi], x)
}

// At returns element (i, j) (O(row nnz)).
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Val[k]
		}
	}
	return 0
}

// InfNorm returns the max absolute row sum.
func (m *CSR) InfNorm() float64 {
	worst := 0.0
	for r := 0; r < m.Rows; r++ {
		s := 0.0
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += math.Abs(m.Val[k])
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

// Dense converts to a dense matrix (test/diagnostic use only).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			d.Set(r, m.ColIdx[k], d.At(r, m.ColIdx[k])+m.Val[k])
		}
	}
	return d
}
