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

// stencilCSR is a 5-point stencil on an n×n grid. Without its diagonal it
// is the multigrid scenario's Jacobi matrix: each row holds its 2, 3 or 4
// grid neighbours at 1/4. With it, it is the Laplacian (4 on the diagonal,
// -1 per neighbour), whose interior rows of 5 entries take the slab loop's
// general path.
func stencilCSR(n int, laplacian bool) *CSR {
	var entries []COOEntry
	off := 0.25
	if laplacian {
		off = -1
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := r*n + c
			if laplacian {
				entries = append(entries, COOEntry{i, i, 4})
			}
			if r > 0 {
				entries = append(entries, COOEntry{i, i - n, off})
			}
			if r < n-1 {
				entries = append(entries, COOEntry{i, i + n, off})
			}
			if c > 0 {
				entries = append(entries, COOEntry{i, i - 1, off})
			}
			if c < n-1 {
				entries = append(entries, COOEntry{i, i + 1, off})
			}
		}
	}
	return NewCSR(n*n, n*n, entries)
}

func BenchmarkCSRMulVec(b *testing.B) {
	m := stencilCSR(64, true)
	x := NewRNG(2).NormalVector(m.Cols)
	y := New(m.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecTo(y, x)
	}
}

// BenchmarkCSRMulRangeStencil31 is the row slab the multigrid workloads
// run: one 480-row block (a worker's share on 2 workers) of the 961-row
// stencil of a 31×31 grid, reported per row. The multigrid matrix runs
// the short-row code, the Laplacian the general loop; -affine adds an
// offset (MulAddRangeTo), as the multigrid operator does.
func BenchmarkCSRMulRangeStencil31(b *testing.B) {
	for _, shape := range []struct {
		name      string
		laplacian bool
	}{{"multigrid", false}, {"laplacian", true}} {
		m := stencilCSR(31, shape.laplacian)
		rng := NewRNG(2)
		x, off := rng.NormalVector(m.Cols), rng.NormalVector(m.Rows)
		for _, c := range []struct {
			suffix string
			off    Vector
		}{{"", nil}, {"-affine", off}} {
			b.Run(shape.name+c.suffix, func(b *testing.B) {
				const lo, hi = 240, 720
				y := New(hi - lo)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.MulAddRangeTo(y, x, c.off, lo, hi)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(hi-lo)), "ns/row")
			})
		}
	}
}

// benchSink keeps a benchmarked result live.
var benchSink float64

// BenchmarkDistInfNaN is the displacement scan of the same phase: a
// worker's evaluated 480-component block against its view, reported per
// component.
func BenchmarkDistInfNaN(b *testing.B) {
	rng := NewRNG(5)
	x, y := rng.NormalVector(480), rng.NormalVector(480)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = DistInfNaN(x, y)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
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
