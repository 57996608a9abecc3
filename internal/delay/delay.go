// Package delay implements the delay/label models of the asynchronous
// iterations literature reproduced by this library.
//
// An asynchronous iteration (Definition 1 of the paper) uses, at global
// iteration j, component values x_i(l_i(j)) where the label functions
// l_i : N -> N are subject to
//
//	a) l_i(j) <= j-1                       (values come from the past),
//	b) lim_{j->inf} l_i(j) = +inf          (unbounded delays allowed, but
//	                                        arbitrarily old values are
//	                                        eventually abandoned),
//	c) every i appears infinitely often in the steering sets S_j.
//
// Chaotic relaxation (Chazan–Miranker, Miellou) instead assumes a delay
// bound: d_i(j) = j - l_i(j) <= b (condition d). Baudet's model removes the
// bound; his canonical example has the delay of one component growing like
// sqrt(j). Out-of-order message delivery corresponds to label functions that
// are not monotone in j.
//
// A Model here answers "which past iterate does component i read at
// iteration j". All stochastic models are *stateless*: the label for (i, j)
// is a pure hash of (seed, i, j), so repeated queries agree and simulations
// are reproducible.
package delay

import (
	"fmt"
	"math"
)

// Model yields the label function of an asynchronous iteration.
type Model interface {
	// Label returns l_i(j) for 1-based iteration j >= 1, clamped to
	// [0, j-1] so that condition a) holds by construction.
	Label(i, j int) int
	// Name identifies the model in traces and experiment tables.
	Name() string
}

func clampLabel(l, j int) int {
	if l > j-1 {
		l = j - 1
	}
	if l < 0 {
		l = 0
	}
	return l
}

// leastModel is a stateless Model whose least returns min(j-1, min_{h<n}
// l_h(j)) for n >= 1 without a row, or false when it cannot.
type leastModel interface{ least(j, n int) (int, bool) }

// hashModel is a model whose labels are hashLabel(seed, b, i, j).
type hashModel interface{ hash() (seed uint64, b int) }

// Labels returns min(j-1, min_h l_h(j)) over h < len(row). It fills row[h] =
// l_h(j) only for a model without least, asked through Label in ascending h,
// the call order a stateful model (Monotone) depends on.
//
//repro:hotpath
func Labels(m Model, j int, row []int) (least int, filled bool) {
	if lm, ok := m.(leastModel); ok {
		if l, ok := lm.least(j, len(row)); ok {
			return l, false
		}
	}
	least = j - 1
	for h := range row {
		l := m.Label(h, j)
		row[h] = l
		if l < least {
			least = l
		}
	}
	return least, true
}

// LabelsOf sets row[c] = l_c(j) for every c in comps, for a model Labels
// does not fill the row of: the hash models' with the j term of the hash
// hoisted, any other's through Label.
//
//repro:hotpath
func LabelsOf(m Model, j int, row, comps []int) {
	if hm, ok := m.(hashModel); ok {
		seed, b := hm.hash()
		base, ub, mask, pow2 := hashTerms(seed, b, j)
		for _, c := range comps {
			row[c] = max(j-1-lag(base^(uint64(c)+1)*hashStride, ub, mask, pow2), 0)
		}
		return
	}
	for _, c := range comps {
		row[c] = m.Label(c, j)
	}
}

// The hash models' label is l_i(j) = j - 1 - z mod b, clamped at 0, for z
// the SplitMix64 finalizer of seed ^ (i+1)*hashStride ^ (j+1)*hashJMul.
const hashStride, hashJMul = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9

// hashTerms hoists what the labels of iteration j share: base = seed ^
// (j+1)*hashJMul, and the reduction mod b >= 1, a mask when b is a power of
// two — the same bits as the modulo.
func hashTerms(seed uint64, b, j int) (base, ub, mask uint64, pow2 bool) {
	ub = uint64(b)
	return seed ^ (uint64(j)+1)*hashJMul, ub, ub - 1, ub&(ub-1) == 0
}

// lag returns the finalizer of z reduced mod b: a label's delay less one.
func lag(z, b, mask uint64, pow2 bool) int {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if pow2 {
		z &= mask
	} else {
		z %= b
	}
	return int(z)
}

// hashLabel returns l_i(j) of the hash model (seed, b).
func hashLabel(seed uint64, b, i, j int) int {
	base, ub, mask, pow2 := hashTerms(seed, b, j)
	return max(j-1-lag(base^(uint64(i)+1)*hashStride, ub, mask, pow2), 0)
}

// hashLeast is the least of the hash model's labels at iteration j over h <
// n, scanned in h up to the first that meets the floor max(0, j-b) no
// label lies below; the h term of the hash advances by its stride.
//
//repro:hotpath
func hashLeast(seed uint64, b, j, n int) int {
	base, ub, mask, pow2 := hashTerms(seed, b, j)
	floor := max(0, j-b)
	least := j - 1
	hi := uint64(0)
	for range n {
		hi += hashStride
		l := j - 1 - lag(base^hi, ub, mask, pow2)
		if l <= floor {
			return floor
		}
		least = min(least, l)
	}
	return least
}

// Fresh is the zero-delay model: every update reads the immediately
// preceding iterate, l_i(j) = j-1. This is the Gauss–Seidel-style freshest
// admissible schedule and the natural synchronous baseline.
type Fresh struct{}

func (Fresh) Label(i, j int) int { return clampLabel(j-1, j) }
func (Fresh) Name() string       { return "fresh" }

//repro:hotpath
func (Fresh) least(j, n int) (int, bool) { return clampLabel(j-1, j), true }

// Constant applies a fixed delay D >= 1: l_i(j) = j - D (clamped).
type Constant struct{ D int }

func (c Constant) Label(i, j int) int { return clampLabel(j-c.D, j) }
func (c Constant) Name() string       { return fmt.Sprintf("constant(%d)", c.D) }

//repro:hotpath
func (c Constant) least(j, n int) (int, bool) { return clampLabel(j-c.D, j), true }

// BoundedRandom draws, independently per (i, j), a delay uniform on [1, B].
// This is the chaotic-relaxation regime (condition d with bound b = B).
type BoundedRandom struct {
	B    int
	Seed uint64
}

func (m BoundedRandom) Label(i, j int) int { return hashLabel(m.Seed, max(m.B, 1), i, j) }

//repro:hotpath
func (m BoundedRandom) least(j, n int) (int, bool) { return hashLeast(m.Seed, max(m.B, 1), j, n), true }

func (m BoundedRandom) hash() (uint64, int) { return m.Seed, max(m.B, 1) }

func (m BoundedRandom) Name() string { return fmt.Sprintf("boundedRandom(B=%d)", m.B) }

// SqrtGrowth reproduces Baudet's unbounded-delay example (Section II of the
// paper): the delay of the designated slow components grows like sqrt(j)
// while fast components read fresh values. Condition b) still holds because
// l(j) = j - sqrt(j) - 1 -> +inf.
type SqrtGrowth struct {
	// Slow marks which components experience the growing delay. A nil map
	// means every component is slow.
	Slow map[int]bool
}

func (m SqrtGrowth) Label(i, j int) int {
	if m.Slow != nil && !m.Slow[i] {
		return clampLabel(j-1, j)
	}
	d := 1 + int(math.Floor(math.Sqrt(float64(j))))
	return clampLabel(j-d, j)
}

//repro:hotpath
func (m SqrtGrowth) least(j, n int) (int, bool) { return m.Label(0, j), m.Slow == nil }

func (m SqrtGrowth) Name() string { return "sqrtGrowth" }

// LogGrowth has delays growing like log2(j): a milder unbounded-delay model.
type LogGrowth struct{ Slow map[int]bool }

func (m LogGrowth) Label(i, j int) int {
	if m.Slow != nil && !m.Slow[i] {
		return clampLabel(j-1, j)
	}
	d := 1
	if j > 1 {
		d = 1 + int(math.Floor(math.Log2(float64(j))))
	}
	return clampLabel(j-d, j)
}

//repro:hotpath
func (m LogGrowth) least(j, n int) (int, bool) { return m.Label(0, j), m.Slow == nil }

func (m LogGrowth) Name() string { return "logGrowth" }

// OutOfOrder models out-of-order message delivery: within a sliding window
// of width W the label jumps around non-monotonically (a later update may
// read an older iterate than an earlier update did). Delays stay bounded by
// W so convergence theory still applies, but label monotonicity — which the
// epoch analysis of Mishchenko et al. assumes — is violated.
type OutOfOrder struct {
	W    int
	Seed uint64
}

func (m OutOfOrder) Label(i, j int) int { return hashLabel(m.Seed, max(m.W, 1), i, j) }

//repro:hotpath
func (m OutOfOrder) least(j, n int) (int, bool) { return hashLeast(m.Seed, max(m.W, 1), j, n), true }

func (m OutOfOrder) hash() (uint64, int) { return m.Seed, max(m.W, 1) }

func (m OutOfOrder) Name() string { return fmt.Sprintf("outOfOrder(W=%d)", m.W) }

// PerComponent assigns a distinct sub-model to each component; components
// beyond len(Models) fall back to Fresh. It expresses heterogeneous workers
// (one slow machine among fast ones).
type PerComponent struct{ Models []Model }

func (m PerComponent) Label(i, j int) int {
	if i >= 0 && i < len(m.Models) && m.Models[i] != nil {
		return m.Models[i].Label(i, j)
	}
	return clampLabel(j-1, j)
}

func (m PerComponent) Name() string { return "perComponent" }

// Monotone wraps a model and forces labels to be nondecreasing in j for
// each component (the Miellou / Mishchenko monotone-delay assumption).
// It is stateful and therefore not safe for concurrent use.
type Monotone struct {
	Inner Model
	last  map[int]int
}

// NewMonotone returns a monotone wrapper around inner.
func NewMonotone(inner Model) *Monotone {
	return &Monotone{Inner: inner, last: make(map[int]int)}
}

func (m *Monotone) Label(i, j int) int {
	l := m.Inner.Label(i, j)
	if prev, ok := m.last[i]; ok && l < prev {
		l = prev
	}
	m.last[i] = clampLabel(l, j)
	return m.last[i]
}

func (m *Monotone) Name() string { return "monotone(" + m.Inner.Name() + ")" }
