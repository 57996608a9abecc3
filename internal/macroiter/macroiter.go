// Package macroiter implements the macro-iteration sequence of Miellou (the
// paper's Definition 2), the Bertsekas-style strict variant used in
// convergence proofs, and — for comparison (Section IV of the paper) — the
// epoch sequence of Mishchenko, Iutzeler and Malick [30].
//
// Definition 2: with l(j) = min_h l_h(j),
//
//	j_0 = 0,
//	j_{k+1} = min_j { union of S_r over { r : j_k <= l(r) <= r <= j } = {1..n} }.
//
// Inside the window (j_k, j_{k+1}] every component is relaxed at least once
// using only information labelled >= j_k; that is what drives level-set
// ("box") convergence arguments and the per-macro-iteration contraction of
// Theorem 1.
//
// The paper additionally asserts that every update after j_{k+1} uses labels
// >= j_k. Guaranteeing that requires looking at future labels; the
// StrictBoundaries function computes, offline over a recorded run, the
// boundary sequence with that suffix guarantee (the construction underlying
// the General Convergence Theorem of Bertsekas). Under condition b) the
// strict sequence is infinite; with monotone labels it coincides with
// Definition 2 up to small shifts.
package macroiter

import "fmt"

// Tracker incrementally computes the Definition 2 macro-iteration sequence
// from an observed run. Feed Observe with strictly increasing j.
type Tracker struct {
	n          int
	start      int // j_k of the macro-iteration being built
	covered    []bool
	nCovered   int
	boundaries []int // j_1, j_2, ...
	lastJ      int
}

// NewTracker returns a tracker over n components.
func NewTracker(n int) *Tracker {
	if n < 1 {
		panic("macroiter: need n >= 1")
	}
	return &Tracker{n: n, covered: make([]bool, n)}
}

// Observe records that iteration j relaxed the components in S using values
// whose minimum label is minLabel = l(j). Iterations must be fed in
// increasing order.
func (t *Tracker) Observe(j int, S []int, minLabel int) {
	if j <= t.lastJ {
		panic(fmt.Sprintf("macroiter: Observe out of order: j=%d after %d", j, t.lastJ))
	}
	t.lastJ = j
	// Only iterations whose entire read set is labelled >= j_k count toward
	// covering the current macro-iteration.
	if minLabel >= t.start {
		for _, i := range S {
			if i >= 0 && i < t.n && !t.covered[i] {
				t.covered[i] = true
				t.nCovered++
			}
		}
	}
	if t.nCovered == t.n {
		t.boundaries = append(t.boundaries, j)
		t.start = j
		for i := range t.covered {
			t.covered[i] = false
		}
		t.nCovered = 0
	}
}

// Boundaries returns the completed boundaries j_1, j_2, ... (j_0 = 0 is
// implicit). Callers must not mutate the result.
func (t *Tracker) Boundaries() []int { return t.boundaries }

// K returns the number of completed macro-iterations.
func (t *Tracker) K() int { return len(t.boundaries) }

// KAt returns k such that j_k <= j < j_{k+1}: the number of macro-iterations
// completed by (global) iteration j.
func (t *Tracker) KAt(j int) int {
	k := 0
	for k < len(t.boundaries) && t.boundaries[k] <= j {
		k++
	}
	return k
}

// Record captures one iteration of a run for offline analysis.
type Record struct {
	J        int   // global iteration number (1-based, increasing)
	S        []int // components relaxed
	MinLabel int   // l(J) = min_h l_h(J)
	Worker   int   // machine that performed the update (for epoch analysis)
}

// Boundaries computes the Definition 2 sequence offline from records.
func Boundaries(n int, recs []Record) []int {
	t := NewTracker(n)
	for _, r := range recs {
		t.Observe(r.J, r.S, r.MinLabel)
	}
	return t.Boundaries()
}

// StrictBoundaries computes the macro-iteration sequence with the suffix
// guarantee: j_{k+1} is the smallest j such that
//
//	(i)  every component is relaxed at some r in (j_k, j] with l(r) >= j_k, and
//	(ii) every subsequent iteration r > j also has l(r) >= j_k.
//
// Inside window k and ever after, no information older than j_k is used, so
// a max-norm contraction argument gives exactly one contraction factor per
// window — the k of inequality (5).
func StrictBoundaries(n int, recs []Record) []int {
	if len(recs) == 0 {
		return nil
	}
	// suffixMin[idx] = min over records idx.. of MinLabel.
	suffixMin := make([]int, len(recs)+1)
	suffixMin[len(recs)] = int(^uint(0) >> 1)
	for i := len(recs) - 1; i >= 0; i-- {
		m := recs[i].MinLabel
		if suffixMin[i+1] < m {
			m = suffixMin[i+1]
		}
		suffixMin[i] = m
	}
	var boundaries []int
	start := 0
	covered := make([]bool, n)
	nCovered := 0
	for idx, r := range recs {
		if r.MinLabel >= start {
			for _, i := range r.S {
				if i >= 0 && i < n && !covered[i] {
					covered[i] = true
					nCovered++
				}
			}
		}
		if nCovered == n && suffixMin[idx+1] >= start {
			boundaries = append(boundaries, r.J)
			start = r.J
			for i := range covered {
				covered[i] = false
			}
			nCovered = 0
		}
	}
	return boundaries
}

// KOf returns, for a boundary sequence and an iteration j, the number of
// boundaries <= j (i.e. the macro-iteration count k at iteration j).
func KOf(boundaries []int, j int) int {
	k := 0
	for k < len(boundaries) && boundaries[k] <= j {
		k++
	}
	return k
}
