package delay

import (
	"math"
	"testing"
	"testing/quick"
)

// allModels returns one instance of every model for generic property checks.
func allModels() []Model {
	return []Model{
		Fresh{},
		Constant{D: 3},
		BoundedRandom{B: 5, Seed: 1},
		SqrtGrowth{},
		SqrtGrowth{Slow: map[int]bool{1: true}},
		LogGrowth{},
		OutOfOrder{W: 8, Seed: 2},
		PerComponent{Models: []Model{Fresh{}, Constant{D: 2}}},
		NewMonotone(OutOfOrder{W: 8, Seed: 3}),
	}
}

func TestConditionAHoldsByConstruction(t *testing.T) {
	for _, m := range allModels() {
		for j := 1; j <= 200; j++ {
			for i := 0; i < 4; i++ {
				l := m.Label(i, j)
				if l < 0 || l > j-1 {
					t.Fatalf("%s: l_%d(%d) = %d violates condition a", m.Name(), i, j, l)
				}
			}
		}
	}
}

func TestFresh(t *testing.T) {
	m := Fresh{}
	for j := 1; j < 10; j++ {
		if m.Label(0, j) != j-1 {
			t.Fatalf("Fresh label(%d) = %d", j, m.Label(0, j))
		}
	}
}

func TestConstant(t *testing.T) {
	m := Constant{D: 3}
	if m.Label(0, 10) != 7 {
		t.Errorf("Constant(3).Label(10) = %d", m.Label(0, 10))
	}
	if m.Label(0, 2) != 0 { // clamped
		t.Errorf("Constant(3).Label(2) = %d", m.Label(0, 2))
	}
}

func TestBoundedRandomDeterministicAndBounded(t *testing.T) {
	m := BoundedRandom{B: 7, Seed: 9}
	for j := 1; j <= 500; j++ {
		l1 := m.Label(2, j)
		l2 := m.Label(2, j)
		if l1 != l2 {
			t.Fatal("BoundedRandom not deterministic per (i,j)")
		}
		if d := j - l1; d > 7 && j > 7 {
			t.Fatalf("delay %d exceeds bound at j=%d", d, j)
		}
	}
	ok, i, j, d := CheckChaoticBound(m, 3, 500, 7)
	if !ok {
		t.Errorf("CheckChaoticBound failed at i=%d j=%d d=%d", i, j, d)
	}
	if ok, _, _, _ := CheckChaoticBound(m, 3, 500, 3); ok {
		t.Error("bound 3 should be violated by B=7 model")
	}
}

func TestSqrtGrowthMatchesBaudetExample(t *testing.T) {
	m := SqrtGrowth{}
	// d(j) = 1 + floor(sqrt(j)): unbounded but l(j) -> inf.
	for _, j := range []int{4, 16, 100, 10000} {
		d := j - m.Label(0, j)
		want := 1 + int(math.Floor(math.Sqrt(float64(j))))
		if d != want {
			t.Errorf("delay at j=%d is %d, want %d", j, d, want)
		}
	}
	// Ratio d(j)/sqrt(j) tends to 1.
	j := 1 << 20
	d := float64(j - m.Label(0, j))
	if r := d / math.Sqrt(float64(j)); math.Abs(r-1) > 0.01 {
		t.Errorf("d(j)/sqrt(j) = %v, want ~1", r)
	}
}

func TestSqrtGrowthSlowSet(t *testing.T) {
	m := SqrtGrowth{Slow: map[int]bool{1: true}}
	if m.Label(0, 100) != 99 {
		t.Error("fast component should read fresh value")
	}
	if m.Label(1, 100) == 99 {
		t.Error("slow component should be delayed")
	}
}

func TestConditionBProxy(t *testing.T) {
	for _, m := range allModels() {
		rep := CheckConditions(m, 3, 400)
		if !rep.AOK {
			t.Errorf("%s: condition a violated: %v", m.Name(), rep.Violations)
		}
		if !rep.BOK {
			t.Errorf("%s: condition b proxy failed: %v", m.Name(), rep.Violations)
		}
	}
}

// frozen is a pathological model whose component 0 reads x(0) forever;
// condition b fails and asynchronous convergence theory does not apply.
type frozen struct{}

func (frozen) Label(i, j int) int {
	if i == 0 {
		return 0
	}
	return j - 1
}
func (frozen) Name() string { return "frozen" }

func TestConditionBDetectsFrozenComponent(t *testing.T) {
	rep := CheckConditions(frozen{}, 2, 400)
	if rep.BOK {
		t.Error("frozen component not detected by condition b proxy")
	}
	if !rep.AOK {
		t.Error("frozen model still satisfies condition a")
	}
}

func TestOutOfOrderIsNonMonotone(t *testing.T) {
	rep := CheckConditions(OutOfOrder{W: 16, Seed: 4}, 2, 500)
	if rep.MonotoneLabels {
		t.Error("OutOfOrder produced monotone labels; expected reordering")
	}
	repFresh := CheckConditions(Fresh{}, 2, 500)
	if !repFresh.MonotoneLabels {
		t.Error("Fresh labels must be monotone")
	}
}

func TestMonotoneWrapperForcesMonotonicity(t *testing.T) {
	m := NewMonotone(OutOfOrder{W: 16, Seed: 4})
	prev := -1
	for j := 1; j <= 500; j++ {
		l := m.Label(0, j)
		if l < prev {
			t.Fatalf("monotone wrapper violated at j=%d: %d < %d", j, l, prev)
		}
		prev = l
	}
}

func TestDelaySeries(t *testing.T) {
	s := DelaySeries(Constant{D: 2}, 0, 10)
	if len(s) != 10 {
		t.Fatalf("series length %d", len(s))
	}
	if s[9] != 2 {
		t.Errorf("series tail = %d, want 2", s[9])
	}
}

func TestMeanDelayStats(t *testing.T) {
	rep := CheckConditions(Constant{D: 4}, 1, 1000)
	if rep.MaxDelay != 4 {
		t.Errorf("MaxDelay = %d, want 4", rep.MaxDelay)
	}
	// Early clamped iterations drag the mean slightly below 4.
	if rep.MeanDelay > 4 || rep.MeanDelay < 3.9 {
		t.Errorf("MeanDelay = %v", rep.MeanDelay)
	}
}

// Property: for arbitrary seeds/windows, OutOfOrder labels always satisfy
// condition a and delays stay within the window (after warmup).
func TestOutOfOrderProperties(t *testing.T) {
	f := func(seed uint64, wRaw uint8, iRaw uint8) bool {
		w := int(wRaw%32) + 1
		i := int(iRaw % 8)
		m := OutOfOrder{W: w, Seed: seed}
		for j := w + 1; j < w+200; j++ {
			l := m.Label(i, j)
			if l < 0 || l > j-1 {
				return false
			}
			if j-l > w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerComponentFallback(t *testing.T) {
	m := PerComponent{Models: []Model{Constant{D: 5}}}
	if m.Label(0, 10) != 5 {
		t.Errorf("component 0 should use Constant(5)")
	}
	if m.Label(3, 10) != 9 {
		t.Errorf("component 3 should fall back to fresh")
	}
}

func TestNames(t *testing.T) {
	for _, m := range allModels() {
		if m.Name() == "" {
			t.Error("empty model name")
		}
	}
}

// Labels is the minimum of the Label row, min(j-1, min_h l_h(j)) with the
// clamp at small j included: answered by least, without a row, by every
// model that has one — on the mask and the modulo branch of both hash
// models, with the bound above j and above n, where the scan stops at the
// floor and where it never reaches it — and by the ascending Label row,
// filled as Label fills it, by every model that has none; LabelsOf fills
// the row of the others with Label's values.
func TestLabelsEqualsLabel(t *testing.T) {
	type pair struct {
		row, ref Model // two instances: Monotone is stateful
		least    bool  // the model must answer through least
	}
	cases := func() []pair {
		var cs []pair
		for _, b := range []int{-3, 0, 1, 2, 3, 7, 8, 9, 100, 1 << 20, 1<<31 - 1} {
			cs = append(cs,
				pair{BoundedRandom{B: b, Seed: 11}, BoundedRandom{B: b, Seed: 11}, true},
				pair{OutOfOrder{W: b, Seed: 12}, OutOfOrder{W: b, Seed: 12}, true},
				pair{Constant{D: b}, Constant{D: b}, true})
		}
		rows, refs := allModels(), allModels()
		for k := range rows {
			_, has := rows[k].(leastModel)
			if s, ok := rows[k].(SqrtGrowth); ok && s.Slow != nil {
				has = false
			}
			cs = append(cs, pair{rows[k], refs[k], has})
		}
		return cs
	}
	for _, n := range []int{1, 37, 256} {
		row, all := make([]int, n), make([]int, n)
		for h := range all {
			all[h] = h
		}
		for _, c := range cases() {
			for j := 1; j <= 3000; j++ {
				for h := range row {
					row[h] = -1
				}
				got, filled := Labels(c.row, j, row)
				if filled == c.least {
					t.Fatalf("%s n=%d: Labels(j=%d) filled the row = %v", c.ref.Name(), n, j, filled)
				}
				if !filled {
					LabelsOf(c.row, j, row, all)
				}
				want := j - 1
				for h := range row {
					l := c.ref.Label(h, j)
					if row[h] != l {
						t.Fatalf("%s n=%d: row(j=%d)[%d] = %d, Label = %d", c.ref.Name(), n, j, h, row[h], l)
					}
					want = min(want, l)
				}
				if got != want {
					t.Fatalf("%s n=%d: Labels(j=%d) returned min %d, want %d", c.ref.Name(), n, j, got, want)
				}
			}
		}
	}
}

// hash64 mixes (seed, i, j) into pseudo-random 64 bits: the SplitMix64
// finalizer the hash models' labels are defined by.
func hash64(seed uint64, i, j int) uint64 {
	z := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ (uint64(j)+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// The hash models' labels are j - 1 - hash64(seed, i, j) mod B clamped to
// [0, j-1], with B < 1 read as 1: the mask the power-of-two bounds reduce
// with gives the modulo's bits, on a grid of (i, j, B) with bounds below,
// at and between powers of two and far above j.
func TestHashLabelsAreTheModuloForm(t *testing.T) {
	for _, b := range []int{-1, 0, 1, 2, 3, 5, 7, 8, 9, 12, 16, 31, 64, 100, 1000, 1 << 20, 1<<31 - 1} {
		for j := 1; j <= 600; j += 7 {
			for i := 0; i < 300; i += 13 {
				want := j - 1
				if b > 1 {
					want = clampLabel(j-1-int(hash64(21, i, j)%uint64(b)), j)
				}
				if got := (BoundedRandom{B: b, Seed: 21}).Label(i, j); got != want {
					t.Fatalf("BoundedRandom{B: %d}.Label(%d, %d) = %d, the modulo form gives %d", b, i, j, got, want)
				}
				if got := (OutOfOrder{W: b, Seed: 21}).Label(i, j); got != want {
					t.Fatalf("OutOfOrder{W: %d}.Label(%d, %d) = %d, the modulo form gives %d", b, i, j, got, want)
				}
			}
		}
	}
}
