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
// (M x)_i + b[i], b of length Rows (nil: no offset). The offset is added in
// a pass after the slab loop (which then keeps fewer values live), so each
// entry equals RowDotAt(i, x) + b[i] bit for bit — the Component of an
// affine operator. y must not overlap x or b.
func (m *CSR) MulAddRangeTo(y, x, b Vector, lo, hi int) {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("vec: CSR MulRangeTo range [%d,%d) outside %d rows", lo, hi, m.Rows))
	}
	if len(x) != m.Cols || len(y) != hi-lo || b != nil && len(b) != m.Rows {
		panic(fmt.Sprintf("vec: CSR MulRangeTo dimension mismatch (%dx%d)*%d -> %d (range [%d,%d), offset %d)",
			m.Rows, m.Cols, len(x), len(y), lo, hi, len(b)))
	}
	m.mulRange(y, x, lo, hi)
	if b != nil {
		for r, bi := range b[lo:hi] {
			y[r] += bi
		}
	}
}

// mulRange is the CSR slab loop behind every CSR product, the one sparse
// reduction: each row reduced inline in the canonical order (kernels.go),
// k running on from one row's end into the next. Callers check the bounds.
// Rows of 2-4 entries (the multigrid stencil's) are straight-line code
// spelled as kernels.go says, each ending in the loop's last add of its
// zeroed accumulators, 0.0 +, which turns a -0 sum into +0.
//
//repro:hotpath
func (m *CSR) mulRange(y, x Vector, lo, hi int) {
	rp := m.RowPtr[lo : hi+1]
	val, col := m.Val, m.ColIdx
	y = y[:len(rp)-1]
	k := rp[0]
	for r, end := range rp[1:] {
		if n := end - k; uint(n-2) > 2 {
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
			y[r] = ((s0 + s1) + (s2 + s3)) + tail
		} else if n == 4 {
			v, c := val[k:k+4:k+4], col[k:k+4:k+4]
			y[r] = 0.0 + ((float64(v[0]*x[c[0]]) + float64(v[1]*x[c[1]])) + (float64(v[2]*x[c[2]]) + float64(v[3]*x[c[3]])))
		} else if n == 3 {
			v, c := val[k:k+3:k+3], col[k:k+3:k+3]
			y[r] = 0.0 + (((0.0 + v[0]*x[c[0]]) + v[1]*x[c[1]]) + v[2]*x[c[2]])
		} else {
			v, c := val[k:k+2:k+2], col[k:k+2:k+2]
			y[r] = 0.0 + ((0.0 + v[0]*x[c[0]]) + v[1]*x[c[1]])
		}
		k = end
	}
}

// RowDotAt returns (M x)_i touching only row i, the per-component
// evaluation of the asynchronous engines: the slab loop over one row.
func (m *CSR) RowDotAt(i int, x Vector) float64 {
	var y [1]float64
	m.mulRange(y[:], x, i, i+1)
	return y[0]
}

// ColSpan returns the smallest column range [a, b) that holds every stored
// entry of rows [lo, hi); a == b when those rows store none.
func (m *CSR) ColSpan(lo, hi int) (a, b int) {
	a, b = m.Cols, 0
	for _, c := range m.ColIdx[m.RowPtr[lo]:m.RowPtr[hi]] {
		a, b = min(a, c), max(b, c+1)
	}
	return min(a, b), b
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
