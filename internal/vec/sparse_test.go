package vec

import (
	"math"
	"testing"
)

func TestCSRBasics(t *testing.T) {
	m := NewCSR(2, 3, []COOEntry{
		{0, 0, 1}, {0, 2, 2},
		{1, 1, 3},
	})
	if len(m.Val) != 3 {
		t.Fatalf("%d stored entries, want 3", len(m.Val))
	}
	x := Vector{1, 1, 1}
	got := m.MulVec(x)
	if !Equal(got, Vector{3, 3}, 0) {
		t.Errorf("MulVec = %v", got)
	}
	if m.At(0, 2) != 2 || m.At(0, 1) != 0 {
		t.Errorf("At wrong: %v %v", m.At(0, 2), m.At(0, 1))
	}
}

func TestCSRDuplicatesSummed(t *testing.T) {
	m := NewCSR(1, 1, []COOEntry{{0, 0, 1}, {0, 0, 2.5}})
	if m.At(0, 0) != 3.5 {
		t.Errorf("duplicate entries not summed: %v", m.At(0, 0))
	}
	if len(m.Val) != 1 {
		t.Errorf("%d stored entries, want 1", len(m.Val))
	}
}

func TestCSREmptyRows(t *testing.T) {
	m := NewCSR(3, 3, []COOEntry{{2, 0, 5}})
	x := Vector{1, 0, 0}
	got := m.MulVec(x)
	if !Equal(got, Vector{0, 0, 5}, 0) {
		t.Errorf("MulVec = %v", got)
	}
	if m.RowPtr[1] != m.RowPtr[0] {
		t.Errorf("empty row returned entries")
	}
}

func TestCSRMatchesDense(t *testing.T) {
	r := NewRNG(3)
	for trial := 0; trial < 30; trial++ {
		rows := 1 + r.Intn(8)
		cols := 1 + r.Intn(8)
		var entries []COOEntry
		for k := 0; k < rows*cols/2+1; k++ {
			entries = append(entries, COOEntry{r.Intn(rows), r.Intn(cols), r.Normal()})
		}
		m := NewCSR(rows, cols, entries)
		d := m.Dense()
		x := r.NormalVector(cols)
		ys, yd := m.MulVec(x), d.MulVec(x)
		if !Equal(ys, yd, 1e-12) {
			t.Fatalf("trial %d: CSR %v vs dense %v", trial, ys, yd)
		}
		for i := 0; i < rows; i++ {
			if math.Abs(m.RowDotAt(i, x)-ys[i]) > 1e-12 {
				t.Fatalf("RowDotAt(%d) mismatch", i)
			}
		}
		if math.Abs(m.InfNorm()-d.InfNorm()) > 1e-12 {
			t.Fatalf("InfNorm mismatch: %v vs %v", m.InfNorm(), d.InfNorm())
		}
	}
}

func TestCSROutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCSR(1, 1, []COOEntry{{1, 0, 1}})
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		k := r.Intn(10)
		if k < 0 || k >= 10 {
			t.Fatalf("Intn out of range: %v", k)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Normal variance = %v", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(100)
	a := r.Split()
	b := r.Split()
	equal := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("split streams look correlated: %d equal draws", equal)
	}
}

// ColSpan is the least and one past the greatest column stored in the rows,
// by brute force over the entries the matrix was built from, on every row
// range of a random matrix with empty rows among its rows (a == b there).
func TestCSRColSpan(t *testing.T) {
	const rows, cols = 24, 40
	rng := NewRNG(11)
	var entries []COOEntry
	for r := 0; r < rows; r++ {
		for k := rng.Intn(4) - 1; k > 0; k-- { // a third of the rows empty
			entries = append(entries, COOEntry{Row: r, Col: rng.Intn(cols), Val: rng.Normal()})
		}
	}
	m := NewCSR(rows, cols, entries)
	empty := 0
	for lo := 0; lo <= rows; lo++ {
		for hi := lo; hi <= rows; hi++ {
			wantA, wantB := cols, -1
			for _, e := range entries {
				if e.Row >= lo && e.Row < hi {
					wantA, wantB = min(wantA, e.Col), max(wantB, e.Col+1)
				}
			}
			a, b := m.ColSpan(lo, hi)
			if wantB < 0 {
				if a != b {
					t.Errorf("rows [%d,%d) store nothing, ColSpan = [%d,%d)", lo, hi, a, b)
				}
				if hi > lo {
					empty++
				}
			} else if a != wantA || b != wantB {
				t.Errorf("rows [%d,%d): ColSpan = [%d,%d), want [%d,%d)", lo, hi, a, b, wantA, wantB)
			}
		}
	}
	if empty == 0 {
		t.Fatal("no range of rows stores nothing: the matrix has no empty row")
	}
}
