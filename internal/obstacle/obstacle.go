// Package obstacle implements the discretized obstacle problem, the
// numerical-simulation workload the paper cites from [26] (MPI sub-domain
// methods on the IBM SP4, studying several data-exchange frequencies):
//
//	find u >= psi on a grid, -Laplace(u) >= f, u = 0 on the boundary,
//	with complementarity (u - psi) * (-Laplace(u) - f) = 0,
//
// solved by projected relaxation: the fixed-point map is the 5-point Jacobi
// step clipped at the obstacle,
//
//	F_i(u) = max(psi_i, (sum of neighbours + h^2 f_i) / 4).
//
// The map is monotone (an M-function setting, El Baz [4]); asynchronous
// relaxation converges from a supersolution regardless of delays, and
// flexible communication is admissible because iterates decrease
// monotonically.
package obstacle

import (
	"errors"
	"fmt"
	"math"
)

// Problem is a discretized obstacle problem on an N x N interior grid of
// the unit square (h = 1/(N+1)).
type Problem struct {
	N   int
	H   float64
	F   []float64 // load, length N*N
	Psi []float64 // obstacle, length N*N
}

// New builds a problem with the given load and obstacle functions sampled
// at interior grid points (x, y) in (0,1)^2.
func New(n int, load, obstacle func(x, y float64) float64) (*Problem, error) {
	if n < 1 {
		return nil, errors.New("obstacle: grid must have at least one interior point")
	}
	h := 1.0 / float64(n+1)
	p := &Problem{N: n, H: h, F: make([]float64, n*n), Psi: make([]float64, n*n)}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			x := float64(c+1) * h
			y := float64(r+1) * h
			i := r*n + c
			p.F[i] = load(x, y)
			ps := obstacle(x, y)
			p.Psi[i] = ps
		}
	}
	// The boundary condition u = 0 requires psi <= 0 near the boundary to
	// be feasible; we do not enforce it but the canonical instances satisfy
	// it.
	return p, nil
}

// Membrane returns the canonical test instance: constant downward load and
// a spherical-cap obstacle pushing up in the middle of the domain.
func Membrane(n int) *Problem {
	p, _ := New(n,
		func(x, y float64) float64 { return -8 },
		func(x, y float64) float64 {
			dx, dy := x-0.5, y-0.5
			r2 := dx*dx + dy*dy
			return 0.3 - 3*r2 // positive cap near the centre, negative outside
		})
	return p
}

// Dim returns the number of unknowns.
func (p *Problem) Dim() int { return p.N * p.N }

// Name implements operators.Operator.
func (p *Problem) Name() string { return fmt.Sprintf("obstacle(%dx%d)", p.N, p.N) }

// Component implements operators.Operator: the projected Jacobi step at
// grid point i.
func (p *Problem) Component(i int, u []float64) float64 {
	n := p.N
	r, c := i/n, i%n
	s := 0.0
	if r > 0 {
		s += u[i-n]
	}
	if r < n-1 {
		s += u[i+n]
	}
	if c > 0 {
		s += u[i-1]
	}
	if c < n-1 {
		s += u[i+1]
	}
	v := (s + p.H*p.H*p.F[i]) * 0.25
	if v < p.Psi[i] {
		v = p.Psi[i]
	}
	return v
}

// Supersolution returns a starting point above the solution (required for
// monotone decreasing convergence): the unconstrained harmonic bound plus
// the obstacle maximum.
func (p *Problem) Supersolution() []float64 {
	top := 0.0
	for _, v := range p.Psi {
		if v > top {
			top = v
		}
	}
	u0 := make([]float64, p.Dim())
	for i := range u0 {
		u0[i] = top + 1
	}
	return u0
}

// Complementarity reports the worst violations of the three KKT conditions
// at u: feasibility (u >= psi), supersolution residual (-Lap u - f >= 0
// wherever u > psi), and complementary slackness.
type Complementarity struct {
	MinGap            float64 // min(u - psi): feasibility if >= 0 (tolerance)
	WorstResidual     float64 // most negative (-Lap u - f) on untouched set
	WorstSlackProduct float64 // max (u-psi)*|residual| over contact set
}

// CheckComplementarity evaluates the discrete KKT system.
func (p *Problem) CheckComplementarity(u []float64) Complementarity {
	n := p.N
	rep := Complementarity{MinGap: math.Inf(1)}
	h2 := p.H * p.H
	for i := range u {
		gap := u[i] - p.Psi[i]
		if gap < rep.MinGap {
			rep.MinGap = gap
		}
		r, c := i/n, i%n
		s := 0.0
		if r > 0 {
			s += u[i-n]
		}
		if r < n-1 {
			s += u[i+n]
		}
		if c > 0 {
			s += u[i-1]
		}
		if c < n-1 {
			s += u[i+1]
		}
		// -Lap u - f at i, scaled by h^2: 4u_i - sum(neighbours) - h^2 f_i.
		resid := 4*u[i] - s - h2*p.F[i]
		if gap > 1e-8 { // u above obstacle: residual must be ~ 0
			if v := math.Abs(resid); v > rep.WorstSlackProduct {
				rep.WorstSlackProduct = v
			}
		} else { // contact: residual must be >= 0
			if resid < rep.WorstResidual {
				rep.WorstResidual = resid
			}
		}
	}
	if math.IsInf(rep.MinGap, 1) {
		rep.MinGap = 0
	}
	return rep
}

// ContactSet returns the indices where the solution touches the obstacle.
func (p *Problem) ContactSet(u []float64, tol float64) []int {
	var out []int
	for i := range u {
		if u[i]-p.Psi[i] <= tol {
			out = append(out, i)
		}
	}
	return out
}
