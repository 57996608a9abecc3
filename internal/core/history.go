// Package core implements the paper's primary contribution: an engine for
// parallel or distributed asynchronous iterations with unbounded delays,
// possible out-of-order messages, and flexible communication, together with
// the macro-iteration bookkeeping and the Theorem 1 convergence-bound
// checker.
//
// The engine in this package (ModelSim) executes the *mathematical model* of
// Definitions 1 and 3 literally: a global iteration counter j, explicit
// steering sets S_j, explicit label functions l_i(j), and full access to the
// past iterates that unbounded delays may reach back to. The systems-level
// engines (virtual-time discrete events, real goroutines) live in
// internal/des and internal/runtime and feed the same bookkeeping.
package core

import (
	"fmt"

	"repro/internal/delay"
)

// History stores the per-component update history of an asynchronous
// iteration so that any past value x_i(l) can be retrieved — the storage
// required by unbounded delays. Memory is proportional to the number of
// updates actually performed (not iterations x dimension), because a
// component's value only changes when it is relaxed. Beside the logs it
// keeps the freshest iterate, the run's update order (append-only until
// Reset: an index names the same update for the whole run) and the last
// Read's vector, which the next Read moves by walking only the entries
// newer than its oldest label and those that left that window since.
type History struct {
	iters  [][]int     // per component: strictly increasing update iterations
	vals   [][]float64 // parallel values
	latest []float64   // the freshest iterate: latest[i] is the last of vals[i]
	// order and pos are every recorded update, in the order Set saw them:
	// the k-th set component order[k] to entry pos[k] of its logs.
	order, pos []int
	// read is the last Read's vector plus one slot that takes the writes
	// Read discards. Every component without an entry in order[kept:]
	// reads latest; kept < 0 after a read of all n.
	read []float64
	kept int
}

// NewHistory starts a history at iteration 0 with initial iterate x0.
func NewHistory(x0 []float64) *History {
	h := &History{}
	h.Reset(x0)
	return h
}

// grown returns s with length n, keeping its elements and their storage.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// Reset restarts the history at iteration 0 with initial iterate x0, of
// any dimension, keeping the storage of earlier runs.
func (h *History) Reset(x0 []float64) {
	h.iters, h.vals = grown(h.iters, len(x0)), grown(h.vals, len(x0))
	for i, v := range x0 {
		h.iters[i] = append(h.iters[i][:0], 0)
		h.vals[i] = append(h.vals[i][:0], v)
	}
	h.latest = append(h.latest[:0], x0...)
	h.order, h.pos = h.order[:0], h.pos[:0]
	h.read = append(append(h.read[:0], x0...), 0)
	h.kept = 0
}

// Dim returns the number of components.
func (h *History) Dim() int { return len(h.latest) }

// Set records that component i took value v at iteration j. Iterations must
// be recorded in nondecreasing order over the whole run.
func (h *History) Set(i, j int, v float64) {
	if k := len(h.order); k > 0 && j < h.iter(k-1) {
		panic(fmt.Sprintf("core: History.Set out of order for comp %d: j=%d after %d", i, j, h.iter(k-1)))
	}
	h.latest[i] = v
	if it := h.iters[i]; j == it[len(it)-1] {
		h.vals[i][len(it)-1] = v
		k := len(h.order) - 1
		for k >= 0 && h.order[k] != i {
			k--
		}
		if k < h.kept { // the initial value, or an update Read no longer walks
			h.read[i] = v
		}
		return
	}
	h.order, h.pos = append(h.order, i), append(h.pos, len(h.iters[i]))
	h.iters[i] = append(h.iters[i], j)
	h.vals[i] = append(h.vals[i], v)
}

// iter returns the iteration of the k-th recorded update.
func (h *History) iter(k int) int { return h.iters[h.order[k]][h.pos[k]] }

// At returns x_i(l): the value component i had at iteration label l (the
// most recent update at or before l).
func (h *History) At(i, l int) float64 {
	it := h.iters[i]
	// Find the number of entries with it[idx] <= l; entry 0 is iteration 0.
	lo, hi := 1, len(it)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if it[mid] <= l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return h.vals[i][lo-1]
}

// Read returns x(l(j)), the labelled vector of iteration j under m, and
// min(j-1, min_c l_c(j)). x(l(j)) is the freshest iterate but at the
// components relaxed after that minimum, so Read moves the last read to it
// through the update order: entries that left the window since return to
// the freshest value, and each window entry resolves itself — its own value
// when at or before its component's label, else the value it replaced when
// that one was. With n window entries it looks up all n instead. walked
// lists the components Read moved (nil: maybe all n); row (length n) holds
// the labels asked. The vector is the History's until the next Read or Reset.
//
//repro:hotpath
func (h *History) Read(m delay.Model, j int, row []int) (x []float64, minLabel int, walked []int) {
	minLabel, filled := delay.Labels(m, j, row)
	n, k := len(h.latest), len(h.order)
	if k >= n && h.iter(k-n) > minLabel { // the order is sorted by iteration
		for c := range n {
			if !filled {
				row[c] = m.Label(c, j)
			}
			h.read[c] = h.At(c, row[c])
		}
		h.kept = -1
		return h.read[:n], minLabel, nil
	}
	// The window starts near the last one's start: walk from there (not
	// before k-n+1, the full read's test says).
	k = max(h.kept, k-n+1, 0)
	for k < len(h.order) && h.iter(k) <= minLabel {
		k++
	}
	for k > 0 && h.iter(k-1) > minLabel {
		k--
	}
	if h.kept < 0 {
		copy(h.read, h.latest)
	} else {
		walked = h.order[min(h.kept, k):]
		for _, c := range h.order[min(h.kept, k):k] {
			h.read[c] = h.latest[c]
		}
	}
	h.kept = k
	if !filled {
		delay.LabelsOf(m, j, row, h.order[k:])
	}
	for e, c := range h.order[k:] {
		// The last write to a component resolves it: its updates at or
		// before its label, then the first one past it; the others write
		// to read[n]. An update is entry p of its logs, p-1 the one it
		// replaced.
		it, p := h.iters[c], h.pos[k+e]
		l, dst, own := row[c], n, 0
		if it[p-1] <= l {
			dst = c
		}
		if it[p] <= l {
			own = 1
		}
		h.read[dst] = h.vals[c][p-1+own]
	}
	return h.read[:n], minLabel, walked
}

// Latest returns the most recent value of component i.
func (h *History) Latest(i int) float64 { return h.latest[i] }

// LatestSnapshot materializes the freshest iterate vector.
func (h *History) LatestSnapshot() []float64 {
	return append([]float64(nil), h.latest...)
}

// LatestSnapshotInto writes the freshest iterate vector into dst (length n)
// without allocating.
func (h *History) LatestSnapshotInto(dst []float64) { copy(dst, h.latest) }

// Updates returns the total number of recorded updates (excluding the
// initial values).
func (h *History) Updates() int { return len(h.order) }
