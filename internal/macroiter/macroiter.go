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

import (
	"fmt"
	"slices"
)

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
// guarantee over recorded iterations: Log.StrictBoundaries over recs.
func StrictBoundaries(n int, recs []Record) []int {
	total := 0
	for _, r := range recs {
		total += len(r.S)
	}
	l := Log{its: make([]logEntry, 0, len(recs)), comps: make([]int, 0, total)}
	for _, r := range recs {
		l.Append(r.J, r.S, r.MinLabel)
	}
	return l.StrictBoundaries(n)
}

// Log is the compact iteration log the strict sequence is computed from:
// per iteration its number, l(j) and where S_j ends in one flattened
// component array. Reset keeps every buffer, so an owner that reuses a Log
// across runs allocates nothing for it once it has grown to the longest run.
type Log struct {
	its       []logEntry
	comps     []int // S_1, S_2, ... concatenated
	suffixMin []int
	covered   []bool
}

type logEntry struct {
	j, minLabel int
	end         int // S_j is comps[previous end:end]
}

// Reset empties the log, keeping its storage.
func (l *Log) Reset() { l.its, l.comps = l.its[:0], l.comps[:0] }

// Append logs iteration j, which relaxed S using values whose minimum label
// is minLabel. S is copied, so the caller may reuse it.
func (l *Log) Append(j int, S []int, minLabel int) {
	l.comps = append(l.comps, S...)
	l.its = append(l.its, logEntry{j: j, minLabel: minLabel, end: len(l.comps)})
}

// Records expands the log into one Record per iteration, crediting each to
// the machine workerOf names for the first component of its S. The records
// share one fresh copy of the components, so they outlive a Reset.
func (l *Log) Records(workerOf func(i int) int) []Record {
	comps, recs := slices.Clone(l.comps), make([]Record, len(l.its))
	from := 0
	for k, it := range l.its {
		S := comps[from:it.end:it.end]
		recs[k] = Record{J: it.j, S: S, MinLabel: it.minLabel, Worker: workerOf(S[0])}
		from = it.end
	}
	return recs
}

// StrictBoundaries computes, over the logged iterations, the
// macro-iteration sequence with the suffix guarantee: j_{k+1} is the
// smallest j such that
//
//	(i)  every component is relaxed at some r in (j_k, j] with l(r) >= j_k, and
//	(ii) every subsequent iteration r > j also has l(r) >= j_k.
//
// Inside window k and ever after, no information older than j_k is used, so
// a max-norm contraction argument gives exactly one contraction factor per
// window — the k of inequality (5). The result is a fresh slice; the
// working buffers stay with the log.
func (l *Log) StrictBoundaries(n int) []int {
	its := l.its
	// suffixMin[idx] = min over iterations idx.. of minLabel.
	l.suffixMin = slices.Grow(l.suffixMin[:0], len(its)+1)[:len(its)+1]
	suffixMin := l.suffixMin
	suffixMin[len(its)] = int(^uint(0) >> 1)
	for i := len(its) - 1; i >= 0; i-- {
		suffixMin[i] = min(its[i].minLabel, suffixMin[i+1])
	}
	l.covered = slices.Grow(l.covered[:0], n)[:n]
	covered := l.covered
	clear(covered)
	var boundaries []int
	start, nCovered, from := 0, 0, 0
	for idx, it := range its {
		if it.minLabel >= start {
			for _, i := range l.comps[from:it.end] {
				if i >= 0 && i < n && !covered[i] {
					covered[i] = true
					nCovered++
				}
			}
		}
		from = it.end
		if nCovered == n && suffixMin[idx+1] >= start {
			boundaries = append(boundaries, it.j)
			start = it.j
			clear(covered)
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
