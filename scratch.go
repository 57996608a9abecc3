package repro

// Solve-level buffer reuse. A Scratch owns the allocation-heavy state the
// engines need per run — operator-evaluation temporaries, the model
// engine's history — so repeated Solves of the same shape (parameter sweeps,
// benchmark loops, serving the same problem for many right-hand sides)
// stop paying the per-solve allocation tax:
//
//	scr := repro.NewScratch()
//	for _, seed := range seeds {
//		res, _ := repro.Solve(spec, repro.WithSeed(seed), repro.WithScratch(scr))
//		...
//	}
//
// A Scratch adapts to whatever engine uses it: the model engine draws its
// single-threaded RunScratch, the simulated and goroutine engines draw one
// operator scratch per worker. Buffers grow to the largest shape seen and
// are reused thereafter.
//
// A Scratch must not be shared by concurrent Solve calls; give each
// goroutine its own (the per-worker scratches inside one solve are handled
// by the engines themselves).

import (
	"repro/internal/core"
	"repro/internal/operators"
)

// Scratch is reusable solver state for repeated Solves. The zero value is
// not usable; call NewScratch.
type Scratch struct {
	model   *core.RunScratch
	workers []*operators.Scratch
}

// NewScratch returns an empty Scratch whose buffers are created on first
// use and reused across Solves.
func NewScratch() *Scratch {
	return &Scratch{model: core.NewRunScratch()}
}

// modelScratch returns the model engine's reusable run state.
func (s *Scratch) modelScratch() *core.RunScratch {
	if s == nil {
		return nil
	}
	return s.model
}

// workerScratches returns p per-worker operator scratches, growing the pool
// as needed so the same workers keep the same buffers across Solves.
func (s *Scratch) workerScratches(p int) []*operators.Scratch {
	if s == nil {
		return nil
	}
	for len(s.workers) < p {
		s.workers = append(s.workers, operators.NewScratch())
	}
	return s.workers[:p]
}
