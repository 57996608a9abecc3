package main

import (
	"sync/atomic"
	"time"

	"repro/internal/operators"
)

// opStats accumulates what the operator layer did during the solves of one
// traced round. The engines call operators from several goroutines, hence
// the atomics.
type opStats struct {
	busyNs, calls, comps atomic.Int64
}

func (s *opStats) add(since time.Time, comps int) {
	s.busyNs.Add(int64(time.Since(since)))
	s.calls.Add(1)
	s.comps.Add(int64(comps))
}

// traced times every evaluation of the operator it wraps. The engines pick
// an evaluation path by asserting on three optional interfaces
// (ScratchOperator, BlockScratchOperator, FullApplier), so the wrapper
// handed to Solve must implement exactly those its inner operator does:
// one more and a call panics, one fewer and the traced pass measures the
// fallback path, which is a different program. Go fixes a type's method
// set at compile time, hence one struct per combination below.
type traced struct {
	inner operators.Operator
	st    *opStats
}

func (t traced) Dim() int     { return t.inner.Dim() }
func (t traced) Name() string { return t.inner.Name() }
func (t traced) Component(i int, x []float64) float64 {
	defer t.st.add(time.Now(), 1)
	return t.inner.Component(i, x)
}

type scratchPath struct {
	so operators.ScratchOperator
	st *opStats
}

func (p scratchPath) ComponentScratch(scr *operators.Scratch, i int, x []float64) float64 {
	defer p.st.add(time.Now(), 1)
	return p.so.ComponentScratch(scr, i, x)
}

func (p scratchPath) ApplyScratch(scr *operators.Scratch, dst, x []float64) {
	defer p.st.add(time.Now(), len(dst))
	p.so.ApplyScratch(scr, dst, x)
}

type blockPath struct {
	bo operators.BlockScratchOperator
	st *opStats
}

func (p blockPath) EvalBlockScratch(scr *operators.Scratch, lo, hi int, x, out []float64) {
	defer p.st.add(time.Now(), hi-lo)
	p.bo.EvalBlockScratch(scr, lo, hi, x, out)
}

type fullPath struct {
	fa operators.FullApplier
	st *opStats
}

func (p fullPath) Apply(dst, x []float64) {
	defer p.st.add(time.Now(), len(dst))
	p.fa.Apply(dst, x)
}

type (
	tracedS struct {
		traced
		scratchPath
	}
	tracedB struct {
		traced
		blockPath
	}
	tracedF struct {
		traced
		fullPath
	}
	tracedSB struct {
		traced
		scratchPath
		blockPath
	}
	tracedSF struct {
		traced
		scratchPath
		fullPath
	}
	tracedBF struct {
		traced
		blockPath
		fullPath
	}
	tracedSBF struct {
		traced
		scratchPath
		blockPath
		fullPath
	}
)

// wrap returns op decorated to report into st.
func wrap(op operators.Operator, st *opStats) operators.Operator {
	t := traced{op, st}
	so, isS := op.(operators.ScratchOperator)
	bo, isB := op.(operators.BlockScratchOperator)
	fa, isF := op.(operators.FullApplier)
	s, b, f := scratchPath{so, st}, blockPath{bo, st}, fullPath{fa, st}
	switch {
	case isS && isB && isF:
		return tracedSBF{t, s, b, f}
	case isS && isB:
		return tracedSB{t, s, b}
	case isS && isF:
		return tracedSF{t, s, f}
	case isB && isF:
		return tracedBF{t, b, f}
	case isS:
		return tracedS{t, s}
	case isB:
		return tracedB{t, b}
	case isF:
		return tracedF{t, f}
	}
	return t
}
