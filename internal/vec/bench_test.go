package vec

import "testing"

func benchMatrix(n int) (*Dense, Vector) {
	rng := NewRNG(1)
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Normal()
	}
	return m, rng.NormalVector(n)
}

func BenchmarkDenseMulVec256(b *testing.B) {
	m, x := benchMatrix(256)
	y := New(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(y, x)
	}
}

// BenchmarkDenseMulRange64x256 is the dense row slab of a dist-star phase:
// 64 rows of a 256-column Gram (a worker's block on 4 workers), reported
// per row.
func BenchmarkDenseMulRange64x256(b *testing.B) {
	m, x := benchMatrix(256)
	const lo, hi = 64, 128
	y := New(hi - lo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulRangeTo(y, x, lo, hi)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(hi-lo)), "ns/row")
}

// stencilCSR is the 5-point stencil on an n×n grid — the sparsity of the
// obstacle problem and of the multigrid scenarios' Jacobi operator.
func stencilCSR(n int) *CSR {
	var entries []COOEntry
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := r*n + c
			entries = append(entries, COOEntry{i, i, 4})
			if r > 0 {
				entries = append(entries, COOEntry{i, i - n, -1})
			}
			if r < n-1 {
				entries = append(entries, COOEntry{i, i + n, -1})
			}
			if c > 0 {
				entries = append(entries, COOEntry{i, i - 1, -1})
			}
			if c < n-1 {
				entries = append(entries, COOEntry{i, i + 1, -1})
			}
		}
	}
	return NewCSR(n*n, n*n, entries)
}

func BenchmarkCSRMulVec(b *testing.B) {
	m := stencilCSR(64)
	x := NewRNG(2).NormalVector(m.Cols)
	y := New(m.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(y, x)
	}
}

// BenchmarkCSRMulRangeStencil31 is the row slab the multigrid workloads
// run: the 961-row stencil of a 31×31 grid, one 480-row block of it (a
// worker's share on 2 workers), reported per row.
func BenchmarkCSRMulRangeStencil31(b *testing.B) {
	m := stencilCSR(31)
	x := NewRNG(2).NormalVector(m.Cols)
	const lo, hi = 240, 720
	y := New(hi - lo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulRangeTo(y, x, lo, hi)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(hi-lo)), "ns/row")
}

func BenchmarkWeightedMaxNorm(b *testing.B) {
	rng := NewRNG(3)
	x := rng.NormalVector(1024)
	u := rng.RandomVector(1024, 0.5, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = WeightedMaxNorm(x, u)
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	rng := NewRNG(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rng.Normal()
	}
}
