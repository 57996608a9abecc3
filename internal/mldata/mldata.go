// Package mldata generates the synthetic machine-learning workloads of the
// experiments: regression problems (ridge/lasso) with *controlled* strong
// convexity mu, smoothness L and Hessian diagonal dominance — the properties
// Theorem 1 needs to be checkable against a known solution — plus logistic
// regression for classification examples. It substitutes for the paper's
// unavailable training sets; the substitution is sound because the paper's
// claims depend only on (mu, L, operator contraction), not on specific data.
package mldata

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/operators"
	"repro/internal/vec"
)

// Regression is a synthetic linear-regression problem y = A x_true + noise.
// A, Y and Reg are fixed once NewRegression returns: the Regression keeps
// the Gram matrix it assembled from A and every Smooth() shares it.
type Regression struct {
	A     *vec.Dense // m x n design matrix
	Y     []float64  // m targets
	XTrue []float64  // generating parameter vector (sparse for lasso)
	Reg   float64    // L2 regularization of the smooth part

	// gram is (1/m) A^T A for the final A — the one assembly of a build,
	// kept from the dominance check that passed and handed read-only to
	// every Smooth(). Nil on a Regression not made by NewRegression.
	gram *vec.Dense
}

// RegressionConfig controls generation.
type RegressionConfig struct {
	// N is the number of features (model dimension).
	N int
	// Samples is the number of rows m (default 4*N).
	Samples int
	// Coupling in [0, 1) scales the off-diagonal mass of the Hessian; small
	// values give strongly diagonally dominant Hessians (max-norm
	// contraction of the gradient operator), larger values approach the
	// dominance boundary.
	Coupling float64
	// Sparsity is the fraction of zero entries in XTrue (lasso ground
	// truth); 0 gives a dense generator.
	Sparsity float64
	// Noise is the standard deviation of the target noise.
	Noise float64
	// Reg is the L2 regularization (contributes to mu).
	Reg float64
	// Seed drives generation.
	Seed uint64
}

// NewRegression generates a problem whose least-squares Hessian
// (1/m) A^T A + Reg I is strictly diagonally dominant by construction:
// the design matrix is a strong per-feature diagonal block plus Coupling-
// scaled dense Gaussian rows, rescaled until Gershgorin dominance holds.
func NewRegression(cfg RegressionConfig) (*Regression, error) {
	return NewRegressionSharded(cfg, 1)
}

// ErrNotDominant is returned when rescaling the coupling rows does not reach
// a diagonally dominant Hessian.
var ErrNotDominant = errors.New("mldata: failed to reach diagonal dominance")

// maxRescales bounds how often the coupling rows are shrunk by 0.8 before
// NewRegression gives up with ErrNotDominant.
const maxRescales = 60

// NewRegressionSharded is NewRegression with the Gram assembly behind the
// dominance check fanned out over shards concurrent lanes (bit-identical to
// serial, see operators.Gram). The Gram is assembled once per candidate A —
// once per build unless the rescale loop runs — and the one that passes the
// check is retained for Smooth().
func NewRegressionSharded(cfg RegressionConfig, shards int) (*Regression, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("mldata: N must be positive, got %d", cfg.N)
	}
	if cfg.Coupling < 0 || cfg.Coupling >= 1 {
		return nil, fmt.Errorf("mldata: Coupling %v outside [0,1)", cfg.Coupling)
	}
	n := cfg.N
	m := cfg.Samples
	if m <= 0 {
		m = 4 * n
	}
	if m < n {
		return nil, fmt.Errorf("mldata: Samples %d < N %d", m, n)
	}
	rng := vec.NewRNG(cfg.Seed)

	// Rows 0..n-1: scaled identity block giving each feature a strong
	// diagonal presence. Remaining rows: dense coupling.
	a := vec.NewDense(m, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, math.Sqrt(float64(m))*rng.Range(0.8, 1.2))
	}
	sigma := cfg.Coupling
	for i := n; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, sigma*rng.Normal())
		}
	}
	// Rescale coupling rows until the Hessian gram + Reg I is diagonally
	// dominant.
	gram := operators.Gram(a, shards)
	for rescales := 0; ; rescales++ {
		if dd, _ := gram.IsDiagonallyDominantShifted(cfg.Reg); dd {
			break
		}
		if rescales == maxRescales {
			return nil, ErrNotDominant
		}
		for i := n; i < m; i++ {
			row := a.Row(i)
			for j := range row {
				row[j] *= 0.8
			}
		}
		gram = operators.Gram(a, shards)
	}

	xt := make([]float64, n)
	for i := range xt {
		if rng.Float64() >= cfg.Sparsity {
			xt[i] = rng.Range(-2, 2)
		}
	}
	y := a.MulVec(xt)
	for i := range y {
		y[i] += cfg.Noise * rng.Normal()
	}
	return &Regression{A: a, Y: y, XTrue: xt, Reg: cfg.Reg, gram: gram}, nil
}

// Smooth returns the least-squares smooth part f in Gram form with its
// (L, mu) bounds. It shares the Regression's Gram matrix rather than
// assembling one.
func (r *Regression) Smooth() *operators.LeastSquares {
	if r.gram == nil {
		return operators.NewLeastSquares(r.A, r.Y, r.Reg)
	}
	return operators.NewLeastSquaresGram(r.A, r.Y, r.Reg, r.gram)
}

// SmoothLean returns the smooth part in the residual gradient form, which
// holds no Gram matrix — a bit-different but mathematically equivalent
// objective evaluation, see operators.NewLeastSquaresLean.
func (r *Regression) SmoothLean() *operators.LeastSquares {
	return operators.NewLeastSquaresLean(r.A, r.Y, r.Reg)
}

// MSE returns the mean squared prediction error of x on the data.
func (r *Regression) MSE(x []float64) float64 {
	pred := r.A.MulVec(x)
	s := 0.0
	for i := range pred {
		d := pred[i] - r.Y[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// Classification is a synthetic binary classification problem with labels
// in {-1, +1}.
type Classification struct {
	A     *vec.Dense
	Z     []float64 // labels
	XTrue []float64
	Reg   float64
}

// NewClassification generates linearly separable-ish data with label noise.
func NewClassification(n, samples int, flip float64, reg float64, seed uint64) *Classification {
	rng := vec.NewRNG(seed)
	a := vec.NewDense(samples, n)
	xt := rng.NormalVector(n)
	z := make([]float64, samples)
	for i := 0; i < samples; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Normal())
		}
		margin := a.RowDotAt(i, xt)
		if margin >= 0 {
			z[i] = 1
		} else {
			z[i] = -1
		}
		if rng.Float64() < flip {
			z[i] = -z[i]
		}
	}
	return &Classification{A: a, Z: z, XTrue: xt, Reg: reg}
}

// Logistic is the regularized logistic loss
//
//	f(x) = (1/m) sum_h log(1 + exp(-z_h a_h^T x)) + (Reg/2)||x||^2,
//
// an L-smooth (L <= lmax((1/4m) A^T A) + Reg), Reg-strongly convex function
// implementing operators.Smooth.
type Logistic struct {
	A     *vec.Dense
	Z     []float64
	Reg   float64
	l, mu float64
}

// NewLogistic wraps classification data as a Smooth function.
func NewLogistic(c *Classification) *Logistic {
	g := c.A.AtA()
	m := float64(c.A.Rows)
	for i := range g.Data {
		g.Data[i] /= 4 * m
	}
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+c.Reg)
	}
	_, hi := g.SymEigBounds()
	return &Logistic{A: c.A, Z: c.Z, Reg: c.Reg, l: hi, mu: c.Reg}
}

// Dim implements operators.Smooth.
func (f *Logistic) Dim() int { return f.A.Cols }

// Value implements operators.Smooth.
func (f *Logistic) Value(x []float64) float64 {
	m := f.A.Rows
	s := 0.0
	for h := 0; h < m; h++ {
		t := -f.Z[h] * f.A.RowDotAt(h, x)
		// log(1+exp(t)) computed stably.
		if t > 30 {
			s += t
		} else {
			s += math.Log1p(math.Exp(t))
		}
	}
	return s/float64(m) + 0.5*f.Reg*vec.Dot(x, x)
}

// Grad implements operators.Smooth.
func (f *Logistic) Grad(dst, x []float64) {
	for j := range dst {
		dst[j] = f.Reg * x[j]
	}
	m := f.A.Rows
	for h := 0; h < m; h++ {
		t := -f.Z[h] * f.A.RowDotAt(h, x)
		sig := 1 / (1 + math.Exp(-t)) // sigma(t)
		coef := -f.Z[h] * sig / float64(m)
		row := f.A.Row(h)
		for j := range row {
			dst[j] += coef * row[j]
		}
	}
}

// GradComponent implements operators.Smooth. The per-sample coefficient is
// formed exactly as in Grad/GradRange (coef = -z*sigma/m, then coef*a), so
// the three evaluation granularities are bit-identical.
func (f *Logistic) GradComponent(i int, x []float64) float64 {
	g := f.Reg * x[i]
	m := f.A.Rows
	for h := 0; h < m; h++ {
		t := -f.Z[h] * f.A.RowDotAt(h, x)
		sig := 1 / (1 + math.Exp(-t))
		coef := -f.Z[h] * sig / float64(m)
		g += coef * f.A.At(h, i)
	}
	return g
}

// GradRange implements operators.RangeGradSmooth: the m margins and sigmoid
// coefficients — the part of every logistic gradient that does not depend
// on which component is asked for — are computed ONCE per call (O(m*n)) and
// each component in [lo, hi) then costs one m-length column pass. The
// per-component path pays the full O(m*n) margin pass per component, so a
// b-component block drops from O(b*m*n) to O(m*n + b*m). Uses Aux slot 1
// (slot 0 is reserved for ResidualWith).
func (f *Logistic) GradRange(scr *operators.Scratch, dst, x []float64, lo, hi int) {
	m := f.A.Rows
	var coef []float64
	if scr != nil {
		coef = scr.Aux(1, m)
	} else {
		coef = make([]float64, m)
	}
	for h := 0; h < m; h++ {
		t := -f.Z[h] * f.A.RowDotAt(h, x)
		sig := 1 / (1 + math.Exp(-t))
		coef[h] = -f.Z[h] * sig / float64(m)
	}
	for c := lo; c < hi; c++ {
		g := f.Reg * x[c]
		for h := 0; h < m; h++ {
			g += coef[h] * f.A.At(h, c)
		}
		dst[c-lo] = g
	}
}

// LMu implements operators.Smooth.
func (f *Logistic) LMu() (float64, float64) { return f.l, f.mu }

// Accuracy returns the fraction of correctly classified samples.
func (c *Classification) Accuracy(x []float64) float64 {
	correct := 0
	for h := 0; h < c.A.Rows; h++ {
		margin := c.A.RowDotAt(h, x)
		if (margin >= 0 && c.Z[h] > 0) || (margin < 0 && c.Z[h] < 0) {
			correct++
		}
	}
	return float64(correct) / float64(c.A.Rows)
}
