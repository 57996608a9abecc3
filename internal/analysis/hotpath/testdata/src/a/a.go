// Package a exercises the hotpath analyzer: every allocating construct in
// an annotated function, propagation through small helpers, the zeroing
// and pointer-boxing exemptions and the alloc-ok suppression.
package a

import "fmt"

type pair struct{ x, y float64 }

type sink interface{ put(v interface{}) }

// hot is an annotated root: every allocating construct below must be
// flagged.
//
//repro:hotpath
func hot(dst []float64, m map[int]float64, s sink) {
	q := &pair{1, 2} // want `composite literal allocates`
	_ = q
	sl := []float64{1} // want `composite literal allocates`
	_ = sl
	buf := make([]float64, 4) // want `make allocates`
	_ = buf
	p := new(pair) // want `new allocates`
	_ = p
	dst = append(dst, 1) // want `append may grow its backing array`
	f := func() {}       // want `closure allocates`
	f()
	fmt.Println("x")   // want `fmt.Println call allocates`
	for k := range m { // want `map iteration`
		_ = k
	}
	var i interface{}
	i = dst[0] // want `assignment boxes a concrete value into an interface`
	_ = i
	s.put(3) // want `argument boxes a concrete value into an interface parameter`
	small(dst)
	big(dst)
}

// Zeroing stores copy a struct value into existing memory; nothing
// escapes, nothing allocates, nothing is flagged.
//
//repro:hotpath
func reset(ps []pair, pp *pair) {
	ps[0] = pair{}
	*pp = pair{3, 4}
	var t pair
	t = pair{5, 6}
	_ = t
	for i := range ps { // slice iteration has no hidden iterator
		ps[i].x = 0
	}
}

// pointers boxes only pointer-shaped values, which an interface holds
// directly: nothing is flagged.
//
//repro:hotpath
func pointers(pp *pair, m map[int]float64, s sink) {
	s.put(pp)
	s.put(m)
	var i interface{}
	i = pp
	_ = i
	_ = interface{}(m)
}

// warm demonstrates the suppression: a guarded one-time lazy init may
// carry an alloc-ok reason.
//
//repro:hotpath
func warm(s *store) []float64 {
	if s.buf == nil {
		s.buf = make([]float64, 8) //repro:alloc-ok one-time lazy init on the guarded branch
	}
	return s.buf
}

type store struct{ buf []float64 }

// small is under the inline budget, so hot's annotation reaches it.
func small(dst []float64) {
	tmp := make([]float64, 1) // want `reached from`
	dst[0] = tmp[0]
}

// big exceeds the inline budget: the annotation must NOT propagate, so its
// allocation goes unflagged.
func big(dst []float64) {
	tmp := make([]float64, 1)
	dst[0] = tmp[0]
	dst[0] = 1
	dst[0] = 2
	dst[0] = 3
	dst[0] = 4
	dst[0] = 5
	dst[0] = 6
	dst[0] = 7
	dst[0] = 8
	dst[0] = 9
	dst[0] = 10
	dst[0] = 11
	dst[0] = 12
	dst[0] = 13
	dst[0] = 14
	dst[0] = 15
	dst[0] = 16
}

// cold is unannotated: nothing here is flagged.
func cold() []float64 {
	return append(make([]float64, 1), 2)
}
