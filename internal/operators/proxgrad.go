package operators

import (
	"fmt"

	"repro/internal/prox"
)

// ProxGradBF is the approximate gradient-type operator G of the paper's
// Definition 4, taken literally (backward–forward splitting):
//
//	G_i(x) = [prox_{gamma,g}(x)]_i - gamma * d f(prox_{gamma,g}(x)) / d x_i.
//
// Writing p = prox_{gamma,g}(x), G(x) = p - gamma*grad f(p). If y* is the
// fixed point of G then p* = prox_{gamma,g}(y*) satisfies the standard
// forward–backward fixed-point equation, i.e. p* minimizes f + g; recover
// the model parameters with Primal.
//
// Because g is separable its prox is componentwise nonexpansive and the
// gradient step contracts (factor 1 - gamma*mu in max norm when the Hessian
// is diagonally dominant and gamma <= 2/(mu+L)), so G is a max-norm
// contraction — the property Theorem 1 rests on (Remark 1).
type ProxGradBF struct {
	F     Smooth
	G     prox.Prox
	Gamma float64
	// tag names the operator to a Scratch's prox-point memo, which holds
	// the tag and so never keeps the operator alive; nil (a struct
	// literal) never memoizes.
	tag *byte
}

// NewProxGradBF builds the Definition 4 operator.
func NewProxGradBF(f Smooth, g prox.Prox, gamma float64) *ProxGradBF {
	if gamma <= 0 {
		panic("operators: NewProxGradBF gamma must be positive")
	}
	return &ProxGradBF{F: f, G: g, Gamma: gamma, tag: new(byte)}
}

func (o *ProxGradBF) Dim() int { return o.F.Dim() }

// Component evaluates G_i(x). The gradient at the prox point couples all
// coordinates, so the prox vector is materialized (and allocated) for the
// one component; EvalBlockScratch shares it across a block.
func (o *ProxGradBF) Component(i int, x []float64) float64 {
	p := make([]float64, len(x))
	prox.ApplyVec(o.G, p, x, o.Gamma)
	return p[i] - o.Gamma*o.F.GradComponent(i, p)
}

// Primal maps a governing iterate x to the primal point prox_{gamma,g}(x);
// at the fixed point this is the minimizer of f + g.
func (o *ProxGradBF) Primal(x []float64) []float64 {
	p := make([]float64, len(x))
	prox.ApplyVec(o.G, p, x, o.Gamma)
	return p
}

func (o *ProxGradBF) Name() string {
	return fmt.Sprintf("proxGradBF(gamma=%.4g,%s)", o.Gamma, o.G.Name())
}

// ProxGradFB is the standard forward–backward proximal-gradient operator
//
//	G(x) = prox_{gamma,g}(x - gamma*grad f(x)),
//
// provided as the conventional alternative to Definition 4; its fixed point
// is directly the minimizer of f + g.
type ProxGradFB struct {
	F     Smooth
	G     prox.Prox
	Gamma float64
}

// NewProxGradFB builds the forward–backward operator.
func NewProxGradFB(f Smooth, g prox.Prox, gamma float64) *ProxGradFB {
	if gamma <= 0 {
		panic("operators: NewProxGradFB gamma must be positive")
	}
	return &ProxGradFB{F: f, G: g, Gamma: gamma}
}

func (o *ProxGradFB) Dim() int { return o.F.Dim() }

func (o *ProxGradFB) Component(i int, x []float64) float64 {
	v := x[i] - o.Gamma*o.F.GradComponent(i, x)
	return o.G.Apply(i, v, o.Gamma)
}

func (o *ProxGradFB) Name() string {
	return fmt.Sprintf("proxGradFB(gamma=%.4g,%s)", o.Gamma, o.G.Name())
}

// InnerIterated is the Remark 2 construction: an approximate operator
// generated by an iterative process. It applies the prox once and then K
// fixed-step gradient iterations:
//
//	G_K(x): p <- prox_{gamma,g}(x); repeat K times: p <- p - gamma*grad f(p).
//
// K = 1 is exactly Definition 4; larger K yields tighter approximations of
// the underlying fixed point map with contraction factor ~ (1-gamma*mu)^K
// per application. Flexible communication lets workers publish the
// intermediate p's as partial updates.
type InnerIterated struct {
	F     Smooth
	G     prox.Prox
	Gamma float64
	K     int
}

// NewInnerIterated builds the K-step approximate operator (K >= 1).
func NewInnerIterated(f Smooth, g prox.Prox, gamma float64, k int) *InnerIterated {
	if gamma <= 0 {
		panic("operators: NewInnerIterated gamma must be positive")
	}
	if k < 1 {
		k = 1
	}
	return &InnerIterated{F: f, G: g, Gamma: gamma, K: k}
}

func (o *InnerIterated) Dim() int { return o.F.Dim() }

// ApplyWithTrail evaluates the operator and additionally returns every
// intermediate iterate (after the prox and after each gradient step); the
// flexible-communication engines publish those as partial updates x~.
func (o *InnerIterated) ApplyWithTrail(x []float64) (out []float64, trail [][]float64) {
	n := len(x)
	p := make([]float64, n)
	prox.ApplyVec(o.G, p, x, o.Gamma)
	trail = append(trail, clone(p))
	grad := make([]float64, n)
	for k := 0; k < o.K; k++ {
		o.F.Grad(grad, p)
		for i := range p {
			p[i] -= o.Gamma * grad[i]
		}
		trail = append(trail, clone(p))
	}
	return p, trail
}

func (o *InnerIterated) Component(i int, x []float64) float64 {
	out, _ := o.ApplyWithTrail(x)
	return out[i]
}

func (o *InnerIterated) Name() string {
	return fmt.Sprintf("innerIterated(K=%d,gamma=%.4g)", o.K, o.Gamma)
}

func clone(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}
