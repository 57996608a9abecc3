package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{4, 5, 6}
	if got := Add(x, y); !Equal(got, Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(y, x); !Equal(got, Vector{3, 3, 3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(2, x); !Equal(got, Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := Dot(x, y); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	z := Clone(y)
	AXPY(2, x, z)
	if !Equal(z, Vector{6, 9, 12}, 0) {
		t.Errorf("AXPY = %v", z)
	}
}

func TestCloneIndependence(t *testing.T) {
	x := Vector{1, 2}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}

func TestNorms(t *testing.T) {
	x := Vector{3, -4}
	if got := Norm2(x); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v", got)
	}
	if got := NormInf(x); got != 4 {
		t.Errorf("NormInf = %v", got)
	}
	u := Vector{1, 2}
	if got := WeightedMaxNorm(x, u); got != 3 {
		t.Errorf("WeightedMaxNorm = %v, want 3", got)
	}
}

func TestNorm2Extreme(t *testing.T) {
	// Values whose squares overflow float64 must still produce finite norms.
	x := Vector{1e200, 1e200}
	got := Norm2(x)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
	want := 1e200 * math.Sqrt2
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Norm2 = %v, want %v", got, want)
	}
}

func TestLerp(t *testing.T) {
	x := Vector{0, 0}
	y := Vector{2, 4}
	got := New(2)
	if LerpInto(got, x, y, 0.5); !Equal(got, Vector{1, 2}, 1e-15) {
		t.Errorf("LerpInto(0.5) = %v", got)
	}
	if LerpInto(got, x, y, 0); !Equal(got, x, 0) {
		t.Errorf("LerpInto(0) = %v", got)
	}
	if LerpInto(got, x, y, 1); !Equal(got, y, 0) {
		t.Errorf("LerpInto(1) = %v", got)
	}
}

func TestDistances(t *testing.T) {
	x := Vector{1, 5}
	y := Vector{4, 1}
	if got := Dist2(x, y); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist2 = %v", got)
	}
	if got := DistInf(x, y); got != 4 {
		t.Errorf("DistInf = %v", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite(Vector{1, 2, 3}) {
		t.Error("finite vector reported non-finite")
	}
	if AllFinite(Vector{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if AllFinite(Vector{math.Inf(1)}) {
		t.Error("Inf not detected")
	}
}

func TestBlocks(t *testing.T) {
	cases := []struct {
		n, m int
		want [][2]int
	}{
		{10, 2, [][2]int{{0, 5}, {5, 10}}},
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{3, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{4, 1, [][2]int{{0, 4}}},
	}
	for _, c := range cases {
		got := Blocks(c.n, c.m)
		if len(got) != len(c.want) {
			t.Fatalf("Blocks(%d,%d) = %v, want %v", c.n, c.m, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Blocks(%d,%d)[%d] = %v, want %v", c.n, c.m, i, got[i], c.want[i])
			}
		}
	}
}

func TestBlocksCoverEverything(t *testing.T) {
	// Property: blocks are contiguous, disjoint and cover [0, n).
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%100) + 1
		m := int(mRaw%16) + 1
		bs := Blocks(n, m)
		pos := 0
		for _, b := range bs {
			if b[0] != pos || b[1] < b[0] {
				return false
			}
			pos = b[1]
		}
		return pos == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockOf(t *testing.T) {
	bs := Blocks(10, 3)
	for i := 0; i < 10; i++ {
		b := BlockOf(bs, i)
		if b < 0 || i < bs[b][0] || i >= bs[b][1] {
			t.Errorf("BlockOf(%d) = %d out of range", i, b)
		}
	}
	if BlockOf(bs, 10) != -1 {
		t.Error("BlockOf out-of-range index should be -1")
	}
}

// Property: triangle inequality and homogeneity for the weighted max norm.
func TestWeightedMaxNormAxioms(t *testing.T) {
	r := NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		x := r.NormalVector(n)
		y := r.NormalVector(n)
		u := r.RandomVector(n, 0.5, 2.0)
		nx := WeightedMaxNorm(x, u)
		ny := WeightedMaxNorm(y, u)
		nxy := WeightedMaxNorm(Add(x, y), u)
		if nxy > nx+ny+1e-12 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", nxy, nx, ny)
		}
		a := r.Range(-3, 3)
		if got, want := WeightedMaxNorm(Scale(a, x), u), math.Abs(a)*nx; math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("homogeneity violated: %v != %v", got, want)
		}
	}
}

func TestWeightedMaxNormPanicsOnBadWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nonpositive weight")
		}
	}()
	WeightedMaxNorm(Vector{1}, Vector{0})
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	Add(Vector{1}, Vector{1, 2})
}

// distInfOracle is the explicit scalar reference for both scans: the max
// of |x_i - y_i| over the differences that are not NaN (`a > m` is false
// for NaN), and the index of the first NaN of x, or -1.
func distInfOracle(x, y []float64) (m float64, bad int) {
	bad = -1
	for i := range x {
		if a := math.Abs(x[i] - y[i]); a > m {
			m = a
		}
		if bad < 0 && x[i] != x[i] {
			bad = i
		}
	}
	return m, bad
}

// checkScans fails t unless DistInfNaN(x, y) and DistInf(x, y) give the
// oracle's bits and index.
func checkScans(t *testing.T, x, y []float64) {
	t.Helper()
	wantD, wantBad := distInfOracle(x, y)
	if d, bad := DistInfNaN(x, y); !sameBits(d, wantD) || bad != wantBad {
		t.Fatalf("x=%v y=%v: DistInfNaN = (%v, %d), want (%v, %d)", x, y, d, bad, wantD, wantBad)
	}
	if d := DistInf(x, y); !sameBits(d, wantD) {
		t.Fatalf("x=%v y=%v: DistInf = %v, want %v", x, y, d, wantD)
	}
}

// scanSpecials are the values the scans' bit-order argument has to hold
// on: NaN, ±Inf, ±0, the smallest and largest subnormals and the largest
// finite values (MaxFloat64 - -MaxFloat64 overflows to +Inf).
var scanSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000F_FFFF_FFFF_FFFF), math.MaxFloat64, -math.MaxFloat64,
}

// Both scans must return the oracle's pair on every input: seeded vectors
// of every length 0–19 (each lane tail) with the specials planted in
// either argument or both, and a NaN in y alone, at any position.
func TestDistInfNaNMatchesDistInfAndFirstNaN(t *testing.T) {
	rng := NewRNG(91)
	for n := 0; n < 20; n++ {
		for trial := 0; trial < 1000; trial++ {
			x, y := rng.NormalVector(n), rng.NormalVector(n)
			for k := rng.Intn(4); k > 0 && n > 0; k-- {
				i, v := rng.Intn(n), scanSpecials[rng.Intn(len(scanSpecials))]
				switch rng.Intn(4) {
				case 0:
					x[i] = v
				case 1:
					y[i] = v
				case 2: // the same value in both: Inf − Inf is NaN
					x[i], y[i] = v, v
				default: // a NaN difference the scan must not report
					y[i] = math.NaN()
				}
			}
			checkScans(t, x, y)
		}
	}
}
