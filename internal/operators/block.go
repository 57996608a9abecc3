package operators

import "repro/internal/prox"

// The one rule of operator evaluation: implement Component; implement
// EvalBlockScratch as well when components share work. The paper's
// iterations update one worker's whole block per phase (Definition 1
// relaxes "the components of S_j"), but a componentwise contract forces
// coupled operators to redo their shared work (the prox vector, the gradient
// pass, the inner iterations) once per component: a b-component phase of
// ProxGradBF costs O(b*n) while one shared pass costs O(n + b *
// per-component-work). EvalBlock is the only dispatcher — every engine
// phase calls it, and EvalComponent, ApplyInto, ResidualWith, Apply and
// Residual are EvalBlock on [i, i+1) or [0, n) — and BlockScratchOperator is
// the only optional interface it asserts on.
//
// Contract: EvalBlockScratch must produce componentwise bit-identical
// results to Component — the deterministic engines rely on identical
// trajectories whichever path runs (TestScratchEvaluationMatchesPlain,
// block_test.go and the root blockpath_test.go pin this). Implementations
// must stay read-only on x and on shared operator state; the scratch is the
// only mutable memory.
//
// Scratch-slot budget (Vec slots): ProxGradBF 1 (its prox point, kept
// across evaluations for a hinted next one: Scratch.Hint), InnerIterated 2,
// ProxGradFB 0, GradOp 0, Linear/SparseLinear 0; Relaxed consumes no slots
// and forwards the scratch to its inner operator. RangeGradSmooth
// implementations may additionally use Aux slots >= 1 (Aux slot 0 is
// reserved for ResidualWith's full-application buffer).
type BlockScratchOperator interface {
	Operator
	// EvalBlockScratch writes F_c(x) for c in [lo, hi) into out[c-lo]
	// (len(out) == hi-lo), using scr for temporaries.
	EvalBlockScratch(scr *Scratch, lo, hi int, x, out []float64)
}

// EvalBlock evaluates the component range [lo, hi) of F at x into out:
// through EvalBlockScratch when the operator has it and scr is non-nil, as
// the Component loop otherwise.
//
//repro:hotpath
func EvalBlock(op Operator, scr *Scratch, lo, hi int, x, out []float64) {
	if len(out) != hi-lo {
		panic("operators: EvalBlock out length does not match [lo, hi)")
	}
	evalBlock(op, scr, lo, hi, x, out)
	if scr != nil {
		scr.settle()
	}
}

// evalBlock is EvalBlock's dispatch without the settle, for an operator
// that forwards its block to an inner one (Relaxed): the inner operator
// sees the caller's hint, and its memo survives the outer settle.
//
//repro:hotpath
func evalBlock(op Operator, scr *Scratch, lo, hi int, x, out []float64) {
	if bo, ok := op.(BlockScratchOperator); ok && scr != nil {
		bo.EvalBlockScratch(scr, lo, hi, x, out)
		return
	}
	for c := lo; c < hi; c++ {
		out[c-lo] = op.Component(c, x)
	}
}

// RangeGradSmooth is an optional fast path on Smooth: GradRange writes
// (grad f(x))_c for c in [lo, hi) into dst[c-lo], computing whatever whole-
// gradient work is shareable (the Gram/Hessian row slab, the residual and
// sigmoid pass of logistic regression) once per call instead of once per
// component. Implementations must be componentwise bit-identical to
// GradComponent and may use scratch Aux slots >= 1; scr may be nil, in
// which case the implementation either works without temporaries or
// allocates.
type RangeGradSmooth interface {
	GradRange(scr *Scratch, dst, x []float64, lo, hi int)
}

// gradRange evaluates the gradient range through the fast path when f
// supports it, falling back to per-component evaluation.
//
//repro:hotpath
func gradRange(f Smooth, scr *Scratch, dst, x []float64, lo, hi int) {
	if rg, ok := f.(RangeGradSmooth); ok {
		rg.GradRange(scr, dst, x, lo, hi)
		return
	}
	for c := lo; c < hi; c++ {
		dst[c-lo] = f.GradComponent(c, x)
	}
}

// EvalBlockScratch implements BlockScratchOperator (1 scratch slot): the
// prox vector is materialized ONCE for the whole block, then the gradient
// range shares its pass through gradRange — O(n + block gradient) instead
// of the Component loop's O(b*n) prox work alone. The prox point stays in
// the slot: when the scratch holds a hint and the previous EvalBlock on it
// left this operator's point at this dimension, only the hinted components
// are re-applied (O(k), same bits); otherwise all n are.
func (o *ProxGradBF) EvalBlockScratch(scr *Scratch, lo, hi int, x, out []float64) {
	p, key := scr.Vec(0, len(x)), proxKey{o.tag, len(x)}
	if scr.hinted && o.tag != nil && scr.memo == key {
		prox.ApplyAt(o.G, p, x, o.Gamma, scr.hint)
	} else {
		prox.ApplyVec(o.G, p, x, o.Gamma)
	}
	scr.next = key
	gradRange(o.F, scr, out, p, lo, hi)
	for i := range out {
		out[i] = p[lo+i] - o.Gamma*out[i]
	}
}

// EvalBlockScratch implements BlockScratchOperator (0 scratch slots): one
// shared gradient-range pass, then the componentwise prox.
func (o *ProxGradFB) EvalBlockScratch(scr *Scratch, lo, hi int, x, out []float64) {
	gradRange(o.F, scr, out, x, lo, hi)
	for i := range out {
		out[i] = o.G.Apply(lo+i, x[lo+i]-o.Gamma*out[i], o.Gamma)
	}
}

// EvalBlockScratch implements BlockScratchOperator (2 scratch slots): the
// prox + K full gradient iterations run ONCE for the whole block instead of
// once per component — the largest single win of the block contract — with
// no trail kept. The K gradients go through gradRange, so the scratch's
// tuning reaches them; GradRange over the full range is contractually
// bit-identical to the Grad that Component's ApplyWithTrail uses.
func (o *InnerIterated) EvalBlockScratch(scr *Scratch, lo, hi int, x, out []float64) {
	p, grad := scr.Vec(0, len(x)), scr.Vec(1, len(x))
	prox.ApplyVec(o.G, p, x, o.Gamma)
	for k := 0; k < o.K; k++ {
		gradRange(o.F, scr, grad, p, 0, len(p))
		for i := range p {
			p[i] -= o.Gamma * grad[i]
		}
	}
	copy(out, p[lo:hi])
}

// EvalBlockScratch implements BlockScratchOperator by delegating the block
// (and the whole scratch slot space) to the inner operator.
func (r *Relaxed) EvalBlockScratch(scr *Scratch, lo, hi int, x, out []float64) {
	evalBlock(r.Inner, scr, lo, hi, x, out)
	for i := range out {
		out[i] = (1-r.Omega)*x[lo+i] + r.Omega*out[i]
	}
}

// EvalBlockScratch implements BlockScratchOperator via the row-slab matvec
// (lane-parallel per the scratch's tuning).
func (l *Linear) EvalBlockScratch(scr *Scratch, lo, hi int, x, out []float64) {
	denseSlab(scr, l.A, out, x, lo, hi)
	for i := range out {
		out[i] += l.B[lo+i]
	}
}

// EvalBlockScratch implements BlockScratchOperator via the affine sparse
// row slab, offset folded in (lane-parallel per the scratch's tuning).
func (l *SparseLinear) EvalBlockScratch(scr *Scratch, lo, hi int, x, out []float64) {
	csrSlab(scr, l.A, out, x, l.B, lo, hi)
}

// EvalBlockScratch implements BlockScratchOperator (0 scratch slots): one
// shared gradient-range pass, then the explicit step.
func (g *GradOp) EvalBlockScratch(scr *Scratch, lo, hi int, x, out []float64) {
	gradRange(g.F, scr, out, x, lo, hi)
	for i := range out {
		out[i] = x[lo+i] - g.Gamma*out[i]
	}
}

// GradRange implements RangeGradSmooth via the Hessian row slab
// (lane-parallel per the scratch's tuning).
func (f *Quadratic) GradRange(scr *Scratch, dst, x []float64, lo, hi int) {
	denseSlab(scr, f.Q, dst, x, lo, hi)
	for i := range dst {
		dst[i] -= f.B[lo+i]
	}
}

// GradRange implements RangeGradSmooth via the Gram row slab
// (lane-parallel per the scratch's tuning), or the shared residual pass in
// lean mode.
func (f *LeastSquares) GradRange(scr *Scratch, dst, x []float64, lo, hi int) {
	if f.gram == nil {
		f.leanGradRange(scr, dst, x, lo, hi)
		return
	}
	denseSlab(scr, f.gram, dst, x, lo, hi)
	for i := range dst {
		// Same association order as GradComponent: (s + reg*x_i) - aty_i.
		dst[i] = dst[i] + f.Reg*x[lo+i] - f.aty[lo+i]
	}
}

// GradRange implements RangeGradSmooth; each coordinate is independent.
func (f *Separable) GradRange(scr *Scratch, dst, x []float64, lo, hi int) {
	for c := lo; c < hi; c++ {
		dst[c-lo] = f.A[c] * (x[c] - f.T[c])
	}
}
