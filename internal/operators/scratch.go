package operators

import "repro/internal/vec"

// Scratch is a bundle of reusable work vectors. The asynchronous engines
// evaluate operators like ProxGradBF millions of times on their hot paths;
// without scratch every evaluation that needs a temporary (the prox point,
// a gradient) would allocate. Each worker owns one Scratch and threads it
// through EvalBlock (and EvalComponent / ApplyInto / ResidualWith, which
// are EvalBlock on [i, i+1) and [0, n)), making steady-state evaluation
// allocation-free.
//
// A Scratch is NOT safe for concurrent use: it embodies exactly the
// "per-worker buffer" idea, so give each goroutine its own instance (the
// engines do). The zero value is ready to use; buffers are created lazily
// on first request and reused afterwards, so a warmed-up Scratch never
// allocates again for the same shape.
type Scratch struct {
	bufs [][]float64
	aux  [][]float64
	one  [1]float64 // EvalComponent's block-of-one output
	tun  Tuning
	// hint is the caller's one-shot promise about the next EvalBlock's x
	// (Hint), hinted whether one is pending; memo names the ProxGradBF whose
	// prox point at the previous EvalBlock's x Vec slot 0 holds, and next is
	// what the running EvalBlock leaves there. EvalBlock's settle moves next
	// into memo and consumes the hint.
	hint       []int
	hinted     bool
	memo, next proxKey
}

// NewScratch returns an empty Scratch. Buffers grow on demand, so one
// Scratch can be reused across operators and solves of any shape (repeated
// solves of the same shape allocate only on the first).
func NewScratch() *Scratch { return &Scratch{} }

// Vec returns the scratch vector registered under slot, resized to length n.
// Contents are unspecified on entry (callers overwrite). Distinct slots are
// distinct buffers; an operator's documentation states how many slots it
// consumes so composed operators can partition the slot space.
//
//repro:hotpath
func (s *Scratch) Vec(slot, n int) []float64 {
	for len(s.bufs) <= slot {
		s.bufs = append(s.bufs, nil) //repro:alloc-ok warm-up growth; TestScratchEvaluationAllocationFree pins a warmed Scratch at 0
	}
	if cap(s.bufs[slot]) < n {
		s.bufs[slot] = make([]float64, n) //repro:alloc-ok warm-up growth; TestScratchEvaluationAllocationFree pins a warmed Scratch at 0
	}
	return s.bufs[slot][:n]
}

// Aux returns the harness-side scratch vector registered under slot, resized
// to length n. Aux slots live in a slot space separate from Vec, so helpers
// that wrap an operator evaluation (ResidualWith's full-application buffer,
// RangeGradSmooth temporaries) can never collide with the slots the operator
// itself consumes. Slot 0 is reserved for ResidualWith; RangeGradSmooth
// implementations use slots >= 1.
//
//repro:hotpath
func (s *Scratch) Aux(slot, n int) []float64 {
	for len(s.aux) <= slot {
		s.aux = append(s.aux, nil) //repro:alloc-ok warm-up growth; TestScratchEvaluationAllocationFree pins a warmed Scratch at 0
	}
	if cap(s.aux[slot]) < n {
		s.aux[slot] = make([]float64, n) //repro:alloc-ok warm-up growth; TestScratchEvaluationAllocationFree pins a warmed Scratch at 0
	}
	return s.aux[slot][:n]
}

// proxKey identifies a memoized prox point: the ProxGradBF's tag and the
// dimension. The zero key names nothing.
type proxKey struct {
	tag *byte
	n   int
}

// Hint promises that the x of the next EvalBlock on s differs from the x
// of the previous EvalBlock on s at most at the components listed in
// changed (none: the same x; a component may repeat). The next EvalBlock
// consumes it, whichever path it takes; an EvalBlock without a hint is a
// full evaluation. A coupled operator may use the hint to redo only the
// work those components touch (ProxGradBF re-applies its prox there).
func (s *Scratch) Hint(changed []int) { s.hint, s.hinted = changed, true }

// settle ends an EvalBlock on s: the hint is spent, and the prox point is
// memoized only if this evaluation left one.
//
//repro:hotpath
func (s *Scratch) settle() {
	s.memo, s.next, s.hint, s.hinted = s.next, proxKey{}, nil, false
}

// ScratchOperator is implemented by nothing and asserted on by nothing in
// this module outside benchmark/, whose decorator and harness test still
// name it; it goes with the next change that may edit benchmark/ (ROADMAP 7).
type ScratchOperator interface {
	Operator
	ComponentScratch(scr *Scratch, i int, x []float64) float64
	ApplyScratch(scr *Scratch, dst, x []float64)
}

// EvalComponent evaluates F_i(x) as a block of one, into a one-element
// buffer scr owns; a nil scr means Component.
//
//repro:hotpath
func EvalComponent(op Operator, scr *Scratch, i int, x []float64) float64 {
	if scr == nil {
		return op.Component(i, x)
	}
	EvalBlock(op, scr, i, i+1, x, scr.one[:])
	return scr.one[0]
}

// ApplyInto evaluates F(x) into dst (len(dst) == Dim) as the block [0, n).
//
//repro:hotpath
func ApplyInto(op Operator, scr *Scratch, dst, x []float64) {
	EvalBlock(op, scr, 0, len(dst), x, dst)
}

// ResidualWith returns ||F(x) - x||_inf: one application into the Aux
// buffer reserved for it, plus a subtract. scr must not be nil; Residual is
// the form that brings its own.
//
//repro:hotpath
func ResidualWith(op Operator, scr *Scratch, x []float64) float64 {
	fx := scr.Aux(0, op.Dim())
	ApplyInto(op, scr, fx, x)
	return vec.DistInf(fx, x)
}
