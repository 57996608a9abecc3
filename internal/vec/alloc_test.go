package vec

import "testing"

// The iteration kernels are the innermost hot paths of every engine; these
// tests pin their zero-allocation property so a regression fails CI rather
// than silently eroding throughput.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s allocated %.1f times per run, want 0", name, avg)
	}
}

func TestDenseKernelsAllocationFree(t *testing.T) {
	m, x := benchMatrix(64)
	y := New(64)
	assertZeroAllocs(t, "Dense.MulVecTo", func() { m.MulVecTo(y, x) })
	assertZeroAllocs(t, "Dense.MulRangeTo", func() { m.MulRangeTo(y[:30], x, 7, 37) })
	assertZeroAllocs(t, "Dense.MulVecTransTo", func() { m.MulVecTransTo(y, x) })
	assertZeroAllocs(t, "Dense.RowDotAt", func() { _ = m.RowDotAt(3, x) })
}

func TestSparseKernelsAllocationFree(t *testing.T) {
	m := stencilCSR(16, true)
	x := NewRNG(2).NormalVector(m.Cols)
	b := NewRNG(3).NormalVector(m.Rows)
	y := New(m.Rows)
	assertZeroAllocs(t, "CSR.MulVecTo", func() { m.MulVecTo(y, x) })
	assertZeroAllocs(t, "CSR.MulRangeTo", func() { m.MulRangeTo(y[:100], x, 40, 140) })
	assertZeroAllocs(t, "CSR.MulAddRangeTo", func() { m.MulAddRangeTo(y[:100], x, b, 40, 140) })
	assertZeroAllocs(t, "CSR.RowDotAt", func() { _ = m.RowDotAt(5, x) })
}

func TestVectorKernelsAllocationFree(t *testing.T) {
	rng := NewRNG(3)
	x := rng.NormalVector(256)
	y := rng.NormalVector(256)
	u := rng.RandomVector(256, 0.5, 2)
	dst := New(256)
	assertZeroAllocs(t, "AddInto", func() { AddInto(dst, x, y) })
	assertZeroAllocs(t, "SubInto", func() { SubInto(dst, x, y) })
	assertZeroAllocs(t, "ScaleInto", func() { ScaleInto(dst, 2.5, x) })
	assertZeroAllocs(t, "AXPY", func() { AXPY(0.5, x, dst) })
	assertZeroAllocs(t, "LerpInto", func() { LerpInto(dst, x, y, 0.3) })
	assertZeroAllocs(t, "Dot", func() { _ = Dot(x, y) })
	assertZeroAllocs(t, "Norm2", func() { _ = Norm2(x) })
	assertZeroAllocs(t, "NormInf", func() { _ = NormInf(x) })
	assertZeroAllocs(t, "DistInf", func() { _ = DistInf(x, y) })
	assertZeroAllocs(t, "DistInfNaN", func() { _, _ = DistInfNaN(x, y) })
	assertZeroAllocs(t, "Dist2", func() { _ = Dist2(x, y) })
	assertZeroAllocs(t, "WeightedMaxNorm", func() { _ = WeightedMaxNorm(x, u) })
	assertZeroAllocs(t, "WeightedMaxDist", func() { _ = WeightedMaxDist(x, y, u) })
}

func TestIntoVariantsMatchAllocatingForms(t *testing.T) {
	rng := NewRNG(4)
	x := rng.NormalVector(32)
	y := rng.NormalVector(32)
	dst := New(32)

	AddInto(dst, x, y)
	if !Equal(dst, Add(x, y), 0) {
		t.Error("AddInto != Add")
	}
	SubInto(dst, x, y)
	if !Equal(dst, Sub(x, y), 0) {
		t.Error("SubInto != Sub")
	}
	ScaleInto(dst, -1.5, x)
	if !Equal(dst, Scale(-1.5, x), 0) {
		t.Error("ScaleInto != Scale")
	}
	LerpInto(dst, x, y, 0.25)
	if !Equal(dst, Add(x, Scale(0.25, Sub(y, x))), 0) {
		t.Error("LerpInto != x + 0.25(y-x)")
	}
	// Aliasing: dst == x must be supported.
	alias := Clone(x)
	AddInto(alias, alias, y)
	if !Equal(alias, Add(x, y), 0) {
		t.Error("AddInto aliasing broken")
	}
}
