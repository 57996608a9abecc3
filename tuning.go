package repro

import (
	"time"

	"repro/internal/dist"
	"repro/internal/operators"
)

// Tuning is the unified kernel-performance knob group. The zero value is
// the default everywhere: serial, Gram precomputed. IntraParallelism is
// bit-identical to the scalar reference — parallel lanes write disjoint
// output rows — so it never changes a trajectory. GramPrecompute selects
// between two internally consistent gradient forms for LeastSquares
// scenarios and is the one knob that does change bits (it changes the math
// that runs, not its evaluation order).
//
// Tuning, like the Faults group, is declared once in the knob table (see
// KnobTable): the CLI flags, the server's /v1/solve JSON fields and the
// load generator all derive from the same entries.
type Tuning struct {
	// IntraParallelism fans a block evaluation of at least
	// operators.ParallelWork (2^19) multiply-adds out over this many
	// goroutine lanes (0 or 1 = serial). Helps when blocks are that large
	// and cores are otherwise idle.
	IntraParallelism int
	// GramPrecompute selects the LeastSquares gradient form at scenario
	// build: nil or true precomputes the n x n Gram matrix (the default,
	// O(n·b) gradient slabs); false runs the lean residual form (no n^2
	// memory, O(m·(b+n)) slabs). Only consulted by scenario builders.
	GramPrecompute *bool
}

// DefaultTuning returns the default knobs; it is the zero value, spelled
// out for call sites that want to say so.
func DefaultTuning() Tuning { return Tuning{} }

// GramPrecomputed reports the effective GramPrecompute setting (nil means
// true).
func (t Tuning) GramPrecomputed() bool { return t.GramPrecompute == nil || *t.GramPrecompute }

// operatorTuning maps the public knobs onto the kernel-level settings every
// worker scratch carries.
func (t Tuning) operatorTuning() operators.Tuning {
	return operators.Tuning{Parallelism: t.IntraParallelism}
}

// WithTuning replaces the whole tuning knob group.
func WithTuning(t Tuning) Option { return func(s *Spec) { s.Tuning = t } }

// WithIntraParallelism fans large block evaluations out over p goroutine
// lanes (0 or 1 = serial).
func WithIntraParallelism(p int) Option { return func(s *Spec) { s.Tuning.IntraParallelism = p } }

// WithGramPrecompute selects the LeastSquares gradient form for scenario
// builds: true precomputes the Gram matrix (default), false runs the lean
// residual form. See Tuning.GramPrecompute.
func WithGramPrecompute(precompute bool) Option {
	return func(s *Spec) { s.Tuning.GramPrecompute = &precompute }
}

// Faults groups the fault-injection knobs of the lossy engines (asynchronous
// simulator and dist): message loss, reordering and injected transit delay.
// WithFaults replaces the whole group, so the three knobs read and write as
// one coherent unit.
type Faults struct {
	// DropProb is the iid probability a message is lost in transit.
	DropProb float64
	// ReorderProb is the iid probability a relayed block is held back long
	// enough for later messages to overtake it (dist engine).
	ReorderProb float64
	// MaxLinkDelay adds a uniform random transit delay in [0, MaxLinkDelay]
	// to every relayed block (dist engine).
	MaxLinkDelay time.Duration
}

// WithFaults replaces the fault-injection knob group.
func WithFaults(f Faults) Option {
	return func(s *Spec) {
		s.DropProb = f.DropProb
		s.ReorderProb = f.ReorderProb
		s.MaxLinkDelay = f.MaxLinkDelay
	}
}

// Faults reads the current fault-injection knob group back from the spec.
func (e *Execution) Faults() Faults {
	return Faults{DropProb: e.DropProb, ReorderProb: e.ReorderProb, MaxLinkDelay: e.MaxLinkDelay}
}

// Elastic groups the dist engine's elasticity knobs. Every dist run
// re-shards around a lost worker and lets a restarted one rejoin; the group
// only paces that: HeartbeatEvery picks how silence is detected (zero: by
// the link failing), CheckpointEvery how fresh a rejoiner's warm start is,
// MaxRejoinWait how long a restarted worker retries, CheckpointPath where
// the coordinator persists its iterate. It is declared once, in the dist
// engine, and set on every surface through the knob table (group
// "elastic"). The other engines ignore it.
type Elastic = dist.Elastic

// WithElastic replaces the dist engine's elasticity knob group.
func WithElastic(e Elastic) Option { return func(s *Spec) { s.Elastic = e } }
