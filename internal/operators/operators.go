// Package operators defines the fixed-point operators F (and their
// approximations G) relaxed by the asynchronous iteration engines: affine
// contractions x -> Ax + b, gradient and proximal-gradient operators for the
// composite convex problem min f(x) + g(x) of Section V of the paper, and
// the approximate operators "generated via an iterative process" of
// Remark 2.
//
// The convergence theory of the paper applies to operators that contract in
// a weighted maximum norm; ContractionFactor / EstimateContraction certify
// or estimate that property.
package operators

import (
	"errors"
	"fmt"

	"repro/internal/vec"
)

// Operator is a fixed-point map F: R^n -> R^n evaluated componentwise —
// exactly the granularity at which asynchronous iterations relax.
// Implementations must be safe for concurrent read-only use: Component must
// not mutate shared state (the runtime engines call it from many
// goroutines).
//
// Component is the definition of F and the reference every test compares
// against. An operator whose components share work (a prox vector, a
// gradient pass) also implements BlockScratchOperator (block.go); that is
// the only other way an operator is ever evaluated.
type Operator interface {
	// Dim returns n.
	Dim() int
	// Component returns F_i(x). x has length Dim and must not be mutated.
	Component(i int, x []float64) float64
	// Name identifies the operator in traces and tables.
	Name() string
}

// FullApplier is implemented by nothing and asserted on by nothing in this
// module outside benchmark/, whose decorator and harness test still name it;
// it goes with the next change that may edit benchmark/ (ROADMAP 7).
type FullApplier interface {
	Apply(dst, x []float64)
}

// Apply evaluates F(x) into dst: ApplyInto with a scratch of its own.
func Apply(op Operator, dst, x []float64) { ApplyInto(op, NewScratch(), dst, x) }

// ErrDiverged is matched (errors.Is) by the error every engine returns when
// an evaluation produces NaN: each tests the block it evaluated before
// installing it (vec.DistInfNaN, fused into the worker loop's displacement
// scan, or vec.FirstNaN). +Inf is a legal value (routing starts from it).
var ErrDiverged = errors.New("iterate diverged to NaN")

// DivergedError is the ErrDiverged of the worker-based engines: Worker's
// updating phase Phase (1-based) evaluated NaN at Component.
type DivergedError struct{ Worker, Phase, Component int }

func (e *DivergedError) Error() string {
	return fmt.Sprintf("%v: worker %d, phase %d, component %d", ErrDiverged, e.Worker, e.Phase, e.Component)
}

func (e *DivergedError) Unwrap() error { return ErrDiverged }

// FixedPoint iterates F synchronously until ||F(x)-x||_inf <= tol or
// maxIter sweeps, returning the final iterate and whether it converged. It
// is the reference solver used to compute x* for experiments. All sweeps
// after the first are allocation-free (one internal Scratch is reused).
func FixedPoint(op Operator, x0 []float64, tol float64, maxIter int) ([]float64, bool) {
	n := op.Dim()
	x := make([]float64, n)
	copy(x, x0)
	y := make([]float64, n)
	scr := NewScratch()
	for it := 0; it < maxIter; it++ {
		ApplyInto(op, scr, y, x)
		if vec.DistInf(x, y) <= tol {
			copy(x, y)
			return x, true
		}
		x, y = y, x
	}
	return x, false
}

// Residual returns ||F(x) - x||_inf, the standard fixed-point residual:
// ResidualWith with a scratch of its own.
func Residual(op Operator, x []float64) float64 { return ResidualWith(op, NewScratch(), x) }

// Linear is the affine operator F(x) = Ax + b. When ||A||_u < 1 for some
// positive weight vector u it is a ||.||_u contraction and all asynchronous
// convergence results apply.
type Linear struct {
	A    *vec.Dense
	B    []float64
	name string
}

// NewLinear wraps A and b.
func NewLinear(a *vec.Dense, b []float64) *Linear {
	if a.Rows != a.Cols || a.Rows != len(b) {
		panic("operators: NewLinear needs square A matching b")
	}
	return &Linear{A: a, B: b, name: fmt.Sprintf("linear(n=%d)", len(b))}
}

func (l *Linear) Dim() int { return len(l.B) }

func (l *Linear) Component(i int, x []float64) float64 {
	return l.A.RowDotAt(i, x) + l.B[i]
}

func (l *Linear) Name() string { return l.name }

// ContractionFactor returns ||A||_inf (u = ones), the exact max-norm
// Lipschitz constant of the affine map.
func (l *Linear) ContractionFactor() float64 { return l.A.InfNorm() }

// SparseLinear is the CSR-backed affine operator for grid/graph systems.
type SparseLinear struct {
	A *vec.CSR
	B []float64
}

// NewSparseLinear wraps a sparse A and b.
func NewSparseLinear(a *vec.CSR, b []float64) *SparseLinear {
	if a.Rows != a.Cols || a.Rows != len(b) {
		panic("operators: NewSparseLinear needs square A matching b")
	}
	return &SparseLinear{A: a, B: b}
}

func (l *SparseLinear) Dim() int { return len(l.B) }

func (l *SparseLinear) Component(i int, x []float64) float64 {
	return l.A.RowDotAt(i, x) + l.B[i]
}

func (l *SparseLinear) Name() string { return fmt.Sprintf("sparseLinear(n=%d)", len(l.B)) }

// ContractionFactor returns ||A||_inf.
func (l *SparseLinear) ContractionFactor() float64 { return l.A.InfNorm() }

// JacobiFromSystem builds the Jacobi fixed-point operator for the linear
// system M z = rhs: F(x) = D^{-1}(rhs - (M - D)x), whose fixed point is the
// solution. For strictly diagonally dominant M the iteration matrix has
// ||A||_inf < 1 — the classical setting of chaotic relaxation.
func JacobiFromSystem(m *vec.Dense, rhs []float64) *Linear {
	n := m.Rows
	if m.Cols != n || len(rhs) != n {
		panic("operators: JacobiFromSystem dimension mismatch")
	}
	a := vec.NewDense(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		d := m.At(i, i)
		if d == 0 {
			panic("operators: JacobiFromSystem zero diagonal")
		}
		for j := 0; j < n; j++ {
			if j != i {
				a.Set(i, j, -m.At(i, j)/d)
			}
		}
		b[i] = rhs[i] / d
	}
	return NewLinear(a, b)
}

// Relaxed wraps an operator with a relaxation parameter omega in (0, 1]:
// F_omega(x) = (1-omega) x + omega F(x). Under-relaxation (omega < 1) trades
// speed for robustness; it is also how partial progress is modelled in some
// flexible-communication analyses.
type Relaxed struct {
	Inner Operator
	Omega float64
}

func (r *Relaxed) Dim() int { return r.Inner.Dim() }

func (r *Relaxed) Component(i int, x []float64) float64 {
	return (1-r.Omega)*x[i] + r.Omega*r.Inner.Component(i, x)
}

func (r *Relaxed) Name() string {
	return fmt.Sprintf("relaxed(%s,omega=%g)", r.Inner.Name(), r.Omega)
}
