// Package prox implements the proximal operators of separable non-smooth
// convex regularizers g, as used by the approximate gradient-type operator G
// of the paper's Definition 4:
//
//	prox_{gamma,g}(x) = argmin_v { g(v) + 1/(2 gamma) ||v - x||^2 }.
//
// Because g is separable (g(x) = sum_i g_i(x_i)), the prox decomposes into
// independent scalar maps, which is what lets asynchronous per-component
// updates apply it locally. Every map here is nonexpansive (1-Lipschitz) in
// each coordinate — the property the max-norm contraction argument of
// Theorem 1 needs — and the test suite property-checks that.
package prox

import (
	"fmt"
	"math"
)

// Prox is a separable proximal operator. Apply returns the scalar prox of
// coordinate i at v with step gamma; Value returns g_i(v) so objective
// values can be reported.
type Prox interface {
	Apply(i int, v, gamma float64) float64
	Value(i int, v float64) float64
	Name() string
}

// Zero is g = 0: the prox is the identity and the composite problem reduces
// to smooth minimization.
type Zero struct{}

func (Zero) Apply(i int, v, gamma float64) float64 { return v }
func (Zero) Value(i int, v float64) float64        { return 0 }
func (Zero) Name() string                          { return "zero" }

// L1 is g(x) = Lambda * ||x||_1, the lasso regularizer; its prox is the
// soft-thresholding operator.
type L1 struct{ Lambda float64 }

func (p L1) Apply(i int, v, gamma float64) float64 { return softThreshold(v, gamma*p.Lambda) }

// softThreshold is the scalar L1 prox at threshold t, the one definition
// L1.Apply and the vector kernels share.
func softThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

func (p L1) Value(i int, v float64) float64 { return p.Lambda * math.Abs(v) }
func (p L1) Name() string                   { return fmt.Sprintf("l1(%g)", p.Lambda) }

// SquaredL2 is g(x) = (Lambda/2) * ||x||^2; its prox is a shrinkage.
type SquaredL2 struct{ Lambda float64 }

func (p SquaredL2) Apply(i int, v, gamma float64) float64 {
	return v / (1 + gamma*p.Lambda)
}

func (p SquaredL2) Value(i int, v float64) float64 { return 0.5 * p.Lambda * v * v }
func (p SquaredL2) Name() string                   { return fmt.Sprintf("l2sq(%g)", p.Lambda) }

// ElasticNet is g(x) = L1w*||x||_1 + (L2w/2)*||x||^2; the prox composes
// soft-thresholding and shrinkage.
type ElasticNet struct{ L1w, L2w float64 }

func (p ElasticNet) Apply(i int, v, gamma float64) float64 {
	s := L1{Lambda: p.L1w}.Apply(i, v, gamma)
	return s / (1 + gamma*p.L2w)
}

func (p ElasticNet) Value(i int, v float64) float64 {
	return p.L1w*math.Abs(v) + 0.5*p.L2w*v*v
}

func (p ElasticNet) Name() string { return fmt.Sprintf("elasticNet(%g,%g)", p.L1w, p.L2w) }

// Box is the indicator of the box [Lo_i, Hi_i]; its prox is projection.
// A nil Lo (Hi) slice means unbounded below (above). Box projection is the
// constraint mechanism of the obstacle problem and of capacitated flows.
type Box struct {
	Lo, Hi []float64
}

// NewBoxScalar returns the box [lo, hi]^n.
func NewBoxScalar(n int, lo, hi float64) Box {
	l := make([]float64, n)
	h := make([]float64, n)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return Box{Lo: l, Hi: h}
}

func (p Box) Apply(i int, v, gamma float64) float64 {
	if p.Lo != nil && v < p.Lo[i] {
		v = p.Lo[i]
	}
	if p.Hi != nil && v > p.Hi[i] {
		v = p.Hi[i]
	}
	return v
}

func (p Box) Value(i int, v float64) float64 {
	// Indicator: 0 inside (within tolerance), +inf outside.
	const eps = 1e-12
	if p.Lo != nil && v < p.Lo[i]-eps {
		return math.Inf(1)
	}
	if p.Hi != nil && v > p.Hi[i]+eps {
		return math.Inf(1)
	}
	return 0
}

func (p Box) Name() string { return "box" }

// NonNeg is the indicator of the nonnegative orthant.
type NonNeg struct{}

func (NonNeg) Apply(i int, v, gamma float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func (NonNeg) Value(i int, v float64) float64 {
	if v < -1e-12 {
		return math.Inf(1)
	}
	return 0
}

func (NonNeg) Name() string { return "nonneg" }

// ApplyVec writes prox_{gamma,g}(src) into dst, soft-thresholding L1 inline.
//
//repro:hotpath
func ApplyVec(p Prox, dst, src []float64, gamma float64) {
	if len(dst) != len(src) {
		panic("prox: ApplyVec length mismatch")
	}
	if l1, ok := p.(L1); ok {
		t := gamma * l1.Lambda
		for i, v := range src {
			dst[i] = softThreshold(v, t)
		}
		return
	}
	for i, v := range src {
		dst[i] = p.Apply(i, v, gamma)
	}
}

// ApplyAt is ApplyVec restricted to the coordinates listed in idx: it
// writes prox_{gamma,g}(src)_i into dst[i] for each i in idx and leaves the
// rest of dst as it was.
//
//repro:hotpath
func ApplyAt(p Prox, dst, src []float64, gamma float64, idx []int) {
	if l1, ok := p.(L1); ok {
		t := gamma * l1.Lambda
		for _, i := range idx {
			dst[i] = softThreshold(src[i], t)
		}
		return
	}
	for _, i := range idx {
		dst[i] = p.Apply(i, src[i], gamma)
	}
}

// TotalValue returns g(x) = sum_i g_i(x_i).
func TotalValue(p Prox, x []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += p.Value(i, v)
	}
	return s
}
