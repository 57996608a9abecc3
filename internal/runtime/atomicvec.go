// Package runtime executes asynchronous iterations with real concurrency.
// It holds the ONE worker loop every concurrent engine runs (loop.go:
// Worker.Run, the active/passive protocol and its policies for
// passivation, reactivation and budget exhaustion) and the Transport
// interface that loop is written against. A transport moves block values
// between workers and makes state transitions visible; it decides nothing.
// Four exist, mirroring the paper's data-exchange settings:
//
//   - shared memory with per-coordinate atomic cells (shared.go: the
//     one-sided put()/get() SHMEM style of [10]; flexible communication
//     publishes partial values mid-phase),
//   - message passing over channels (message.go: the distributed-memory
//     setting of [6],[9], with the supervisor-based termination detection
//     of [22]), and
//   - TCP, through a coordinator's relay or over a worker-to-worker mesh
//     (internal/dist, which imports this package for the loop).
//
// All of them decide termination with the two-phase double-collect
// quiescence protocol of quiescence.go: a stop is broadcast only after two
// identical observations of "every worker parked, nothing in flight"
// bracketing an optional re-certification, with workers publishing
// reactivation before they acknowledge the input that caused it. See the
// quiescence.go comment for the protocol and its soundness argument.
//
// Real schedulers are nondeterministic, so the engine tests assert
// invariants (convergence, termination, race freedom) rather than exact
// traces; the loop itself is tested deterministically against a scripted
// transport (loop_test.go), and the deterministic studies live in
// internal/core and internal/des.
package runtime

import (
	"math"
	"sync/atomic"
)

// AtomicVector is a float64 vector with atomic per-coordinate access: the
// shared iterate of Hogwild-style asynchronous relaxation. Coordinates are
// stored as uint64 bit patterns.
type AtomicVector struct {
	bits []atomic.Uint64
}

// NewAtomicVector initializes the vector to x0.
func NewAtomicVector(x0 []float64) *AtomicVector {
	v := &AtomicVector{bits: make([]atomic.Uint64, len(x0))}
	for i, x := range x0 {
		v.bits[i].Store(math.Float64bits(x))
	}
	return v
}

// Len returns the dimension.
func (v *AtomicVector) Len() int { return len(v.bits) }

// Load atomically reads coordinate i.
func (v *AtomicVector) Load(i int) float64 {
	return math.Float64frombits(v.bits[i].Load())
}

// Store atomically writes coordinate i.
func (v *AtomicVector) Store(i int, x float64) {
	v.bits[i].Store(math.Float64bits(x))
}

// Snapshot copies the vector into dst (coordinatewise atomic; the snapshot
// is not a consistent cut, which is exactly the asynchronous reading model).
func (v *AtomicVector) Snapshot(dst []float64) {
	for i := range dst {
		dst[i] = v.Load(i)
	}
}

// Copy returns a freshly allocated snapshot.
func (v *AtomicVector) Copy() []float64 {
	dst := make([]float64, len(v.bits))
	v.Snapshot(dst)
	return dst
}
