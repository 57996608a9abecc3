package operators

import (
	"repro/internal/vec"
)

// EstimateContraction samples random pairs (x, F(x)) against a known fixed
// point xstar and returns the largest observed ratio
//
//	||F(x) - x*||_u / ||x - x*||_u,
//
// an empirical lower bound on the ||.||_u Lipschitz constant of F around
// x*. For affine operators this converges to ||A||_u; for nonlinear
// contractions it certifies the factor used in Theorem 1 checks.
func EstimateContraction(op Operator, xstar, u []float64, trials int, radius float64, rng *vec.RNG) float64 {
	n := op.Dim()
	worst := 0.0
	fx := make([]float64, n)
	scr := NewScratch()
	for t := 0; t < trials; t++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = xstar[i] + radius*(2*rng.Float64()-1)
		}
		den := vec.WeightedMaxDist(x, xstar, u)
		if den == 0 {
			continue
		}
		ApplyInto(op, scr, fx, x)
		num := vec.WeightedMaxDist(fx, xstar, u)
		if r := num / den; r > worst {
			worst = r
		}
	}
	return worst
}

// Ones returns the uniform weight vector (the plain max norm).
func Ones(n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = 1
	}
	return u
}

// TheoreticalRho returns rho = gamma*mu, the per-macro-iteration contraction
// of inequality (5) in the paper.
func TheoreticalRho(f Smooth, gamma float64) float64 {
	_, mu := f.LMu()
	return gamma * mu
}
