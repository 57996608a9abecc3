package operators

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/vec"
)

// Smooth is an L-smooth, mu-strongly convex differentiable function f, the
// smooth part of problem (4) in the paper: min f(x) + g(x).
type Smooth interface {
	Dim() int
	// Value returns f(x).
	Value(x []float64) float64
	// Grad writes the full gradient into dst.
	Grad(dst, x []float64)
	// GradComponent returns (grad f(x))_i.
	GradComponent(i int, x []float64) float64
	// LMu returns the smoothness constant L and strong convexity constant
	// mu used to pick the fixed step gamma in (0, 2/(mu+L)].
	LMu() (l, mu float64)
}

// MaxStep returns the paper's largest admissible fixed step 2/(mu+L).
func MaxStep(f Smooth) float64 {
	l, mu := f.LMu()
	return 2 / (mu + l)
}

// Quadratic is f(x) = 1/2 x^T Q x - b^T x + c with symmetric positive
// definite Q. Gradient: Qx - b. Its Hessian is constant, so L and mu are
// the extreme eigenvalues (estimated via Gershgorin bounds, optionally
// sharpened by power iteration).
type Quadratic struct {
	Q      *vec.Dense
	B      []float64
	C      float64
	l, mu  float64
	bounds bool
}

// NewQuadratic builds the function and precomputes (L, mu) bounds. mu is
// the Gershgorin lower bound; callers requiring exactness should construct
// problems whose Gershgorin bounds are tight (diagonal-plus-dominance
// designs do exactly that; see the mldata package).
func NewQuadratic(q *vec.Dense, b []float64, c float64) *Quadratic {
	if q.Rows != q.Cols || q.Rows != len(b) {
		panic("operators: NewQuadratic dimension mismatch")
	}
	lo, hi := q.SymEigBounds()
	if lo <= 0 {
		// Keep going — callers may still use the function — but record a
		// conservative tiny mu so steps remain defined.
		lo = 1e-12
	}
	return &Quadratic{Q: q, B: b, C: c, l: hi, mu: lo, bounds: true}
}

func (f *Quadratic) Dim() int { return len(f.B) }

func (f *Quadratic) Value(x []float64) float64 {
	qx := f.Q.MulVec(x)
	return 0.5*vec.Dot(x, qx) - vec.Dot(f.B, x) + f.C
}

func (f *Quadratic) Grad(dst, x []float64) {
	f.Q.MulVecTo(dst, x)
	for i := range dst {
		dst[i] -= f.B[i]
	}
}

func (f *Quadratic) GradComponent(i int, x []float64) float64 {
	return f.Q.RowDotAt(i, x) - f.B[i]
}

func (f *Quadratic) LMu() (float64, float64) { return f.l, f.mu }

// SetLMu overrides the (L, mu) estimates when sharper constants are known
// analytically (e.g. separable or specially constructed problems).
func (f *Quadratic) SetLMu(l, mu float64) { f.l, f.mu = l, mu }

// Minimizer solves Qx = b directly (reference solution for experiments).
func (f *Quadratic) Minimizer() ([]float64, error) { return f.Q.SolveGaussian(f.B) }

// Separable is f(x) = sum_i (a_i/2)(x_i - t_i)^2: the fully separable
// strongly convex model the paper's Section V statement assumes ("f is
// separable"). Each coordinate is independent, the Hessian is diagonal, and
// L = max a_i, mu = min a_i hold exactly.
type Separable struct {
	A, T []float64
}

// NewSeparable builds sum_i (a_i/2)(x_i - t_i)^2; all a_i must be positive.
func NewSeparable(a, t []float64) *Separable {
	if len(a) != len(t) {
		panic("operators: NewSeparable length mismatch")
	}
	for _, v := range a {
		if v <= 0 {
			panic("operators: NewSeparable requires positive curvatures")
		}
	}
	return &Separable{A: a, T: t}
}

func (f *Separable) Dim() int { return len(f.A) }

func (f *Separable) Value(x []float64) float64 {
	s := 0.0
	for i := range x {
		d := x[i] - f.T[i]
		s += 0.5 * f.A[i] * d * d
	}
	return s
}

func (f *Separable) Grad(dst, x []float64) {
	for i := range x {
		dst[i] = f.A[i] * (x[i] - f.T[i])
	}
}

func (f *Separable) GradComponent(i int, x []float64) float64 {
	return f.A[i] * (x[i] - f.T[i])
}

func (f *Separable) LMu() (float64, float64) {
	l, mu := f.A[0], f.A[0]
	for _, v := range f.A[1:] {
		if v > l {
			l = v
		}
		if v < mu {
			mu = v
		}
	}
	return l, mu
}

// LeastSquares is f(x) = 1/(2m) ||Ax - y||^2 + (reg/2)||x||^2, the smooth
// part of ridge/lasso regression. Hessian: (1/m) A^T A + reg I (constant).
// In Gram form the matrix (1/m) A^T A is held so per-component gradients
// cost one row dot product, matching what an asynchronous coordinate worker
// would do. The operator never assembles it twice and never writes to it:
// NewLeastSquares assembles it once through Gram, NewLeastSquaresGram takes
// the one its caller already has (mldata.NewRegression keeps the Gram whose
// dominance check passed and hands that same matrix to every Smooth()), so
// a Gram may be shared read-only by any number of operators and solves.
type LeastSquares struct {
	A     *vec.Dense // m x n design matrix
	Y     []float64  // m targets
	Reg   float64    // Tikhonov term
	gram  *vec.Dense // (1/m) A^T A; shared, read-only
	aty   []float64  // (1/m) A^T y
	l, mu float64
}

// NewLeastSquares assembles the Gram matrix (serially) and builds the Gram
// form on it.
func NewLeastSquares(a *vec.Dense, y []float64, reg float64) *LeastSquares {
	return NewLeastSquaresGram(a, y, reg, Gram(a, 1))
}

// NewLeastSquaresGram builds the Gram form on gram = Gram(a, ·), which the
// caller has already assembled and must not modify afterwards, and reads
// the Gershgorin (L, mu) bounds of the Hessian gram + reg I off it.
func NewLeastSquaresGram(a *vec.Dense, y []float64, reg float64, gram *vec.Dense) *LeastSquares {
	if a.Rows != len(y) {
		panic("operators: NewLeastSquares rows != len(y)")
	}
	if gram.Rows != a.Cols || gram.Cols != a.Cols {
		panic(fmt.Sprintf("operators: NewLeastSquaresGram gram is %dx%d, want %dx%d",
			gram.Rows, gram.Cols, a.Cols, a.Cols))
	}
	m := float64(a.Rows)
	aty := make([]float64, a.Cols)
	a.MulVecTransTo(aty, y)
	for i := range aty {
		aty[i] /= m
	}
	lo, hi := gram.SymEigBoundsShifted(reg)
	if lo <= 0 {
		lo = reg
		if lo <= 0 {
			lo = 1e-12
		}
	}
	return &LeastSquares{A: a, Y: y, Reg: reg, gram: gram, aty: aty, l: hi, mu: lo}
}

// Gram assembles (1/m) A^T A, the data part of the least-squares Hessian,
// fanning Gram-row shards out over the lane executor when shards > 1.
// Shards write disjoint elements in the same per-element sample order (see
// vec.AtAShard), so the result is bit-identical for any shard count.
func Gram(a *vec.Dense, shards int) *vec.Dense {
	n := a.Cols
	g := vec.NewDense(n, n)
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		a.AtAShard(g, 0, n)
	} else {
		cuts := triangleCuts(n, shards)
		var wg sync.WaitGroup
		for k := 1; k+1 < len(cuts); k++ {
			lo, hi := cuts[k], cuts[k+1]
			wg.Add(1)
			submitLane(func() {
				defer wg.Done()
				a.AtAShard(g, lo, hi)
			})
		}
		a.AtAShard(g, cuts[0], cuts[1])
		wg.Wait()
	}
	m := float64(a.Rows)
	for i := range g.Data {
		g.Data[i] /= m
	}
	return g
}

// triangleCuts splits Gram rows [0, n) into at most shards contiguous
// ranges cuts[k]..cuts[k+1] of near-equal work: a shard fills the upper-
// triangle elements of its rows, n-r of them in row r, so equal row counts
// would give the first shard most of the triangle.
func triangleCuts(n, shards int) []int {
	cuts := []int{0}
	total := n * (n + 1) / 2
	done := 0
	for r := 0; r < n; r++ {
		done += n - r
		if k := len(cuts); k < shards && done*shards >= k*total {
			cuts = append(cuts, r+1)
		}
	}
	if cuts[len(cuts)-1] != n {
		cuts = append(cuts, n)
	}
	return cuts
}

// NewLeastSquaresLean builds the same objective WITHOUT precomputing the
// n x n Gram matrix: gradients run in residual form,
//
//	grad f(x)_c = reg*x_c + sum_h coef_h A_hc,  coef_h = ((Ax)_h - y_h)/m,
//
// so memory stays O(m·n) and a gradient range costs O(m·(b+n)) instead of
// the Gram path's O(n·b). L comes from power iteration on the implicit
// Hessian (with a 5% safety margin) and mu = reg, so the step size — and
// therefore the trajectory — differs from the Gram-precomputed form; within
// lean mode, full, range and componentwise gradients remain mutually
// bit-identical. Prefer this when n is large enough that the n^2 Gram is
// the memory bottleneck; note the per-component fallback path recomputes
// the full residual per component, so lean mode wants block evaluation.
func NewLeastSquaresLean(a *vec.Dense, y []float64, reg float64) *LeastSquares {
	if a.Rows != len(y) {
		panic("operators: NewLeastSquares rows != len(y)")
	}
	mu := reg
	if mu <= 0 {
		mu = 1e-12
	}
	l := 1.05 * leanLmax(a, reg, 60)
	if l < mu {
		l = mu
	}
	return &LeastSquares{A: a, Y: y, Reg: reg, l: l, mu: mu}
}

// leanLmax estimates the top eigenvalue of (1/m)A^T A + reg I by power
// iteration on the implicit Hessian (no Gram materialization).
func leanLmax(a *vec.Dense, reg float64, iters int) float64 {
	n := a.Cols
	if n == 0 || a.Rows == 0 {
		return reg
	}
	m := float64(a.Rows)
	x := vec.Constant(n, 1/math.Sqrt(float64(n)))
	// Slight asymmetry so we do not start orthogonal to the top eigenvector.
	for i := range x {
		x[i] *= 1 + 1e-3*float64(i%7)
	}
	r := vec.New(a.Rows)
	y := vec.New(n)
	lambda := 0.0
	for k := 0; k < iters; k++ {
		a.MulVecTo(r, x)
		a.MulVecTransTo(y, r)
		for i := range y {
			y[i] = y[i]/m + reg*x[i]
		}
		nrm := vec.Norm2(y)
		if nrm == 0 {
			return reg
		}
		for i := range x {
			x[i] = y[i] / nrm
		}
		lambda = nrm
	}
	return lambda
}

// Lean reports whether f runs in residual (Gram-free) form.
func (f *LeastSquares) Lean() bool { return f.gram == nil }

// leanCoef fills coef[h] = ((Ax)_h - y_h)/m, the shared residual pass of the
// lean gradient form.
func (f *LeastSquares) leanCoef(coef, x []float64) {
	m := float64(f.A.Rows)
	for h := range coef {
		coef[h] = (f.A.RowDotAt(h, x) - f.Y[h]) / m
	}
}

// leanGradAt returns the lean-form gradient component c given the residual
// coefficients: reg*x_c first, then the sample terms in ascending h — the
// one order all three lean gradient granularities share (vec.DotStrideAcc's
// seeded sequential chain).
func (f *LeastSquares) leanGradAt(coef, x []float64, c int) float64 {
	return vec.DotStrideAcc(f.Reg*x[c], coef, f.A.Data, c, f.A.Cols)
}

// leanGradRange is GradRange in residual form: one shared residual pass,
// then the per-component column accumulation (lane-parallel per the
// scratch's tuning; components are independent, so fan-out changes no bits).
func (f *LeastSquares) leanGradRange(scr *Scratch, dst, x []float64, lo, hi int) {
	var coef []float64
	if scr != nil {
		coef = scr.Aux(1, f.A.Rows)
	} else {
		coef = make([]float64, f.A.Rows)
	}
	f.leanCoef(coef, x)
	if scr == nil || !scr.fanOut((hi-lo)*f.A.Rows) {
		for c := lo; c < hi; c++ {
			dst[c-lo] = f.leanGradAt(coef, x, c)
		}
		return
	}
	scr.parallelRows(lo, hi, func(l, h int) {
		for c := l; c < h; c++ {
			dst[c-lo] = f.leanGradAt(coef, x, c)
		}
	})
}

func (f *LeastSquares) Dim() int { return f.A.Cols }

func (f *LeastSquares) Value(x []float64) float64 {
	m := float64(f.A.Rows)
	r := f.A.MulVec(x)
	s := 0.0
	for i := range r {
		d := r[i] - f.Y[i]
		s += d * d
	}
	return s/(2*m) + 0.5*f.Reg*vec.Dot(x, x)
}

func (f *LeastSquares) Grad(dst, x []float64) {
	if f.gram == nil {
		coef := make([]float64, f.A.Rows)
		f.leanCoef(coef, x)
		for c := range dst {
			dst[c] = f.leanGradAt(coef, x, c)
		}
		return
	}
	f.gram.MulVecTo(dst, x)
	for i := range dst {
		// Same association order as GradComponent: (s + reg*x_i) - aty_i,
		// so full, range and componentwise gradients are bit-identical.
		dst[i] = dst[i] + f.Reg*x[i] - f.aty[i]
	}
}

func (f *LeastSquares) GradComponent(i int, x []float64) float64 {
	if f.gram == nil {
		coef := make([]float64, f.A.Rows)
		f.leanCoef(coef, x)
		return f.leanGradAt(coef, x, i)
	}
	return f.gram.RowDotAt(i, x) + f.Reg*x[i] - f.aty[i]
}

func (f *LeastSquares) LMu() (float64, float64) { return f.l, f.mu }

// Hessian returns the (constant) Hessian (1/m)A^T A + reg I. In lean mode
// the Gram matrix is materialized on demand (diagnostic/Newton use only).
func (f *LeastSquares) Hessian() *vec.Dense {
	var h *vec.Dense
	if f.gram == nil {
		h = Gram(f.A, 1)
	} else {
		h = f.gram.Clone()
	}
	for i := 0; i < h.Rows; i++ {
		h.Set(i, i, h.At(i, i)+f.Reg)
	}
	return h
}

// GradOp is the gradient-descent fixed-point operator F(x) = x - gamma
// grad f(x); its fixed points are the minimizers of f. When the Hessian is
// diagonally dominant the operator contracts in the max norm with factor
// <= 1 - gamma*mu for gamma <= 2/(mu+L) (Remark 1's contraction property).
type GradOp struct {
	F     Smooth
	Gamma float64
}

// NewGradOp builds the operator; gamma must be positive.
func NewGradOp(f Smooth, gamma float64) *GradOp {
	if gamma <= 0 {
		panic("operators: NewGradOp gamma must be positive")
	}
	return &GradOp{F: f, Gamma: gamma}
}

func (g *GradOp) Dim() int { return g.F.Dim() }

func (g *GradOp) Component(i int, x []float64) float64 {
	return x[i] - g.Gamma*g.F.GradComponent(i, x)
}

func (g *GradOp) Name() string { return fmt.Sprintf("grad(gamma=%.4g)", g.Gamma) }
