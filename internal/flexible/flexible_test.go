package flexible

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewScheduleValid(t *testing.T) {
	s := NewSchedule(0.25, 0.5, 1.0)
	if !s.Enabled() || len(s.Fracs) != 3 {
		t.Fatalf("schedule = %v", s)
	}
}

func TestNewSchedulePanicsOnBadFracs(t *testing.T) {
	for _, fr := range [][]float64{{0}, {0.5, 0.5}, {0.7, 0.3}, {1.2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", fr)
				}
			}()
			NewSchedule(fr...)
		}()
	}
}

func TestUniform(t *testing.T) {
	s := Uniform(4)
	want := []float64{0.25, 0.5, 0.75, 1.0}
	for i, f := range s.Fracs {
		if math.Abs(f-want[i]) > 1e-15 {
			t.Fatalf("Uniform(4) = %v", s.Fracs)
		}
	}
	if None().Enabled() {
		t.Error("None should be disabled")
	}
	if Uniform(0).Enabled() {
		t.Error("Uniform(0) should be disabled")
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	if Interpolate(2, 6, 0) != 2 || Interpolate(2, 6, 1) != 6 {
		t.Error("endpoints wrong")
	}
	if Interpolate(2, 6, 0.5) != 4 {
		t.Error("midpoint wrong")
	}
}

func TestCheckConstraint3Holds(t *testing.T) {
	xstar := []float64{0, 0}
	u := []float64{1, 1}
	xlabel := []float64{1, -0.5} // rhs = 1
	xtilde := []float64{0.7, 0.2}
	rep := CheckConstraint3(xtilde, xlabel, xstar, u)
	if !rep.OK {
		t.Fatalf("constraint should hold: %+v", rep)
	}
	if math.Abs(rep.WorstRatio-0.7) > 1e-12 {
		t.Errorf("WorstRatio = %v, want 0.7", rep.WorstRatio)
	}
}

func TestCheckConstraint3Violated(t *testing.T) {
	xstar := []float64{0, 0}
	u := []float64{1, 1}
	xlabel := []float64{0.5, -0.5}
	xtilde := []float64{2, 0}
	rep := CheckConstraint3(xtilde, xlabel, xstar, u)
	if rep.OK {
		t.Fatal("constraint should be violated")
	}
	if rep.WorstComp != 0 {
		t.Errorf("WorstComp = %d, want 0", rep.WorstComp)
	}
}

func TestCheckConstraint3Weighted(t *testing.T) {
	// With u = (1, 10), a large deviation in component 1 is tolerated.
	xstar := []float64{0, 0}
	u := []float64{1, 10}
	xlabel := []float64{1, 0} // rhs = max(1/1, 0/10) = 1
	xtilde := []float64{0, 9} // lhs_1 = 9/10 = 0.9 <= 1
	rep := CheckConstraint3(xtilde, xlabel, xstar, u)
	if !rep.OK {
		t.Fatalf("weighted constraint should hold: %+v", rep)
	}
}

func TestCheckConstraint3DegenerateAtFixedPoint(t *testing.T) {
	xstar := []float64{1, 2}
	u := []float64{1, 1}
	repOK := CheckConstraint3([]float64{1, 2}, []float64{1, 2}, xstar, u)
	if !repOK.OK {
		t.Error("x~ = x* with labelled = x* must pass")
	}
	repBad := CheckConstraint3([]float64{1.1, 2}, []float64{1, 2}, xstar, u)
	if repBad.OK {
		t.Error("x~ != x* with labelled = x* must fail")
	}
}

// Property: interpolation between the labelled value and any value at
// least as close to x* always satisfies constraint (3) (scalar case,
// uniform weights).
func TestInterpolantsSatisfyConstraint(t *testing.T) {
	f := func(oldRaw, newRaw int16, fracRaw uint8) bool {
		old := float64(oldRaw) / 100
		// Newer value is a contraction of old toward 0 = x*.
		newV := old * 0.5
		frac := float64(fracRaw%101) / 100
		xt := Interpolate(old, newV, frac)
		rep := CheckConstraint3(
			[]float64{xt}, []float64{old}, []float64{0}, []float64{1})
		return rep.OK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
