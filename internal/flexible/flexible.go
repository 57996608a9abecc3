// Package flexible implements the machinery of asynchronous iterations with
// flexible communication (Definition 3 of the paper): updating phases may
// consume values x~ that are not iterate-labelled snapshots x_h(l_h(j)) but
// *partial updates* — intermediate results of an in-progress computation,
// published early via one-sided put()-style communication (hatched arrows of
// the paper's Fig. 2).
//
// The admissibility condition is the norm constraint (3): every consumed
// value must be at least as close to the fixed point as the worst labelled
// read,
//
//	||x~_i(j) - x*_i||_i / u_i  <=  ||x(l(j)) - x*||_u   for all i.
//
// Interpolating between a labelled value and any fresher iterate satisfies
// the constraint in the monotone/contracting regimes the paper targets
// (newer iterates live in smaller level sets); CheckConstraint3 verifies it
// numerically against a known fixed point in tests and experiments.
package flexible

import (
	"fmt"

	"repro/internal/vec"
)

// Schedule describes when, as fractions of an updating phase, partial
// updates are published. Fractions must be strictly increasing in (0, 1];
// the final fraction need not be 1 — the completed update is always
// published at phase end by the engines.
type Schedule struct {
	Fracs []float64
}

// NewSchedule validates and returns a publication schedule.
func NewSchedule(fracs ...float64) Schedule {
	prev := 0.0
	for _, f := range fracs {
		if f <= prev || f > 1 {
			panic(fmt.Sprintf("flexible: schedule fractions must be strictly increasing in (0,1], got %v", fracs))
		}
		prev = f
	}
	return Schedule{Fracs: fracs}
}

// Uniform returns a schedule publishing k evenly spaced partial updates,
// e.g. k=4 -> 0.25, 0.5, 0.75, 1.0.
func Uniform(k int) Schedule {
	if k < 1 {
		return Schedule{}
	}
	fr := make([]float64, k)
	for i := range fr {
		fr[i] = float64(i+1) / float64(k)
	}
	return Schedule{Fracs: fr}
}

// None is the empty schedule: plain (non-flexible) asynchronous iteration.
func None() Schedule { return Schedule{} }

// Enabled reports whether the schedule publishes any partial updates.
func (s Schedule) Enabled() bool { return len(s.Fracs) > 0 }

// Interpolate returns the partial value old + frac*(new - old) for a scalar
// component; the linear path models the progress of an iterative inner
// computation toward its result (Remark 2's operators generated by an
// iterative process traverse exactly such a path for quadratic models).
func Interpolate(old, new, frac float64) float64 {
	return old + frac*(new-old)
}

// Constraint3Report is the outcome of checking the norm constraint (3) for
// one updating phase.
type Constraint3Report struct {
	OK bool
	// WorstRatio is max_i (|x~_i - x*_i|/u_i) / ||x(l) - x*||_u; <= 1 means
	// the constraint holds (1e-12 slack is granted for roundoff).
	WorstRatio float64
	// WorstComp is the component attaining WorstRatio.
	WorstComp int
}

// CheckConstraint3 verifies constraint (3) for the values xtilde actually
// consumed at an updating phase, against the labelled snapshot xlabel =
// (x_1(l_1(j)), ..., x_n(l_n(j))), the fixed point xstar and weights u.
//
// When the labelled snapshot already sits at the fixed point the right-hand
// side is zero and the constraint degenerates: it then holds iff xtilde is
// exactly the fixed point too.
func CheckConstraint3(xtilde, xlabel, xstar, u []float64) Constraint3Report {
	if len(xtilde) != len(xlabel) || len(xtilde) != len(xstar) || len(xtilde) != len(u) {
		panic("flexible: CheckConstraint3 length mismatch")
	}
	rhs := vec.WeightedMaxDist(xlabel, xstar, u)
	rep := Constraint3Report{OK: true}
	for i := range xtilde {
		lhs := xtilde[i] - xstar[i]
		if lhs < 0 {
			lhs = -lhs
		}
		lhs /= u[i]
		var ratio float64
		switch {
		case rhs > 0:
			ratio = lhs / rhs
		case lhs == 0:
			ratio = 0
		default:
			ratio = 2 // degenerate violation: rhs == 0 but lhs > 0
		}
		if ratio > rep.WorstRatio {
			rep.WorstRatio = ratio
			rep.WorstComp = i
		}
	}
	if rep.WorstRatio > 1+1e-12 {
		rep.OK = false
	}
	return rep
}
