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
// keeps the freshest iterate densely and the run's update order, so a read
// that reaches back over few updates costs a copy plus those few lookups.
// The order is append-only within a run (Reset empties it): an index into
// it names the same update for the rest of the run, which is what lets
// Run hint the operator scratch with the components of a suffix of it, so
// a compaction of it must keep the indices or end that chain.
type History struct {
	iters  [][]int     // per component: strictly increasing update iterations
	vals   [][]float64 // parallel values
	latest []float64   // the freshest iterate: latest[i] is the last of vals[i]
	order  []update    // every recorded update, in the order Set saw them
}

// update is one entry of the update order: component i relaxed at iteration j.
type update struct{ i, j int }

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
	h.order = h.order[:0]
}

// Dim returns the number of components.
func (h *History) Dim() int { return len(h.latest) }

// Set records that component i took value v at iteration j. Iterations must
// be recorded in nondecreasing order over the whole run.
func (h *History) Set(i, j int, v float64) {
	if k := len(h.order); k > 0 && j < h.order[k-1].j {
		panic(fmt.Sprintf("core: History.Set out of order for comp %d: j=%d after %d", i, j, h.order[k-1].j))
	}
	h.latest[i] = v
	if it := h.iters[i]; j == it[len(it)-1] {
		h.vals[i][len(it)-1] = v
		return
	}
	h.iters[i] = append(h.iters[i], j)
	h.vals[i] = append(h.vals[i], v)
	h.order = append(h.order, update{i, j})
}

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

// Read fills dst with x(l(j)), the labelled vector of iteration j under m,
// and returns min(j-1, min_c l_c(j)). x(l(j)) differs from the freshest
// iterate only at components relaxed after that minimum, so Read copies
// that iterate and re-reads the components the update order names after it,
// all n once it names n; row (length n) holds their labels, asked of m one
// by one unless delay.Labels filled it for a model it must ask in order.
// from is the index of the first re-read entry of the update order (its
// length if none), or -1 when Read looked up all n.
//
//repro:hotpath
func (h *History) Read(m delay.Model, j int, row []int, dst []float64) (minLabel, from int) {
	minLabel, filled := delay.Labels(m, j, row)
	k := len(h.order)
	for k > 0 && h.order[k-1].j > minLabel {
		k--
		if len(h.order)-k >= len(dst) {
			for c := range dst {
				if !filled {
					row[c] = m.Label(c, j)
				}
				dst[c] = h.At(c, row[c])
			}
			return minLabel, -1
		}
	}
	copy(dst, h.latest)
	for _, u := range h.order[k:] {
		if !filled {
			row[u.i] = m.Label(u.i, j)
		}
		dst[u.i] = h.At(u.i, row[u.i])
	}
	return minLabel, k
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
