package vec

import (
	"math"
	"testing"
)

func TestDenseMulVec(t *testing.T) {
	m := DenseFromRows([][]float64{
		{1, 2},
		{3, 4},
		{5, 6},
	})
	x := Vector{1, 1}
	got := m.MulVec(x)
	if !Equal(got, Vector{3, 7, 11}, 0) {
		t.Errorf("MulVec = %v", got)
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowDotAt(i, x) != got[i] {
			t.Errorf("RowDotAt(%d) disagrees with MulVec", i)
		}
	}
}

func TestDenseMulVecTrans(t *testing.T) {
	m := DenseFromRows([][]float64{
		{1, 2},
		{3, 4},
	})
	x := Vector{1, 2}
	y := New(2)
	m.MulVecTransTo(y, x)
	if !Equal(y, Vector{7, 10}, 0) {
		t.Errorf("MulVecTransTo = %v", y)
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	x := Vector{1, 2, 3}
	if got := m.MulVec(x); !Equal(got, x, 0) {
		t.Errorf("Identity*x = %v", got)
	}
}

func TestAtA(t *testing.T) {
	m := DenseFromRows([][]float64{
		{1, 2},
		{3, 4},
	})
	g := m.AtA()
	want := DenseFromRows([][]float64{
		{10, 14},
		{14, 20},
	})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if g.At(i, j) != want.At(i, j) {
				t.Errorf("AtA[%d][%d] = %v, want %v", i, j, g.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestInfNorms(t *testing.T) {
	m := DenseFromRows([][]float64{
		{0.5, -0.2},
		{0.1, 0.3},
	})
	if got := m.InfNorm(); math.Abs(got-0.7) > 1e-15 {
		t.Errorf("InfNorm = %v", got)
	}
}

func TestDiagonalDominance(t *testing.T) {
	m := DenseFromRows([][]float64{
		{4, -1, -1},
		{-1, 4, -1},
		{-1, -1, 4},
	})
	dd, slack := m.IsDiagonallyDominant()
	if !dd || math.Abs(slack-2) > 1e-15 {
		t.Errorf("IsDiagonallyDominant = %v slack %v", dd, slack)
	}
	m.Set(0, 0, 1)
	if dd, _ := m.IsDiagonallyDominant(); dd {
		t.Error("non-dominant matrix reported dominant")
	}
}

func TestSymEigBounds(t *testing.T) {
	m := DenseFromRows([][]float64{
		{4, -1},
		{-1, 4},
	})
	lo, hi := m.SymEigBounds()
	// Exact eigenvalues are 3 and 5; Gershgorin gives [3, 5].
	if lo > 3+1e-12 || hi < 5-1e-12 {
		t.Errorf("SymEigBounds = [%v, %v], want contains [3, 5]", lo, hi)
	}
}

func TestSolveGaussian(t *testing.T) {
	m := DenseFromRows([][]float64{
		{2, 1},
		{1, 3},
	})
	rhs := Vector{3, 5}
	x, err := m.SolveGaussian(rhs)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MulVec(x); !Equal(got, rhs, 1e-12) {
		t.Errorf("solution residual: Mx = %v, want %v", got, rhs)
	}
}

func TestSolveGaussianSingular(t *testing.T) {
	m := DenseFromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := m.SolveGaussian(Vector{1, 2}); err == nil {
		t.Error("expected singular-matrix error")
	}
}

func TestSolveGaussianRandom(t *testing.T) {
	r := NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(10)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, r.Normal())
			}
			m.Set(i, i, m.At(i, i)+float64(n)) // keep well-conditioned
		}
		want := r.NormalVector(n)
		rhs := m.MulVec(want)
		got, err := m.SolveGaussian(rhs)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want, 1e-8) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
	}
}
