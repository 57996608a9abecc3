// Fixture for the determinism analyzer: repro/internal/core is a
// result-affecting package, so ambient reads and order-dependent
// accumulation must be flagged.
package core

import (
	"math/rand"
	"os"
	"runtime"
	"time"
)

// globalRand uses the process-shared source.
func globalRand() float64 {
	return rand.Float64() // want `global math/rand\.Float64 reads process-shared state`
}

// seededRandOK threads an explicit source: deterministic, no diagnostic.
func seededRandOK(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// envRead reads the environment outside the tuning gate.
func envRead() string {
	return os.Getenv("REPRO_MODE") // want `os\.Getenv reads ambient environment`
}

// cpuShape makes results depend on the machine.
func cpuShape() int {
	return runtime.NumCPU() // want `runtime\.NumCPU makes results depend on machine shape`
}

// poolSize observes machine shape legitimately: its doc carries the
// tuning-gate directive, because the lane count provably never changes a
// trajectory.
//
//repro:tuning-gate lane-pool sizing only; lanes write disjoint rows
func poolSize() int {
	n := runtime.NumCPU()
	if n > 16 {
		n = 16
	}
	return n
}

// suppressedRead documents a justified exception inline.
func suppressedRead() string {
	//repro:nondet-ok debug knob, read once at init, never touches iterates
	return os.Getenv("REPRO_DEBUG")
}

// clockEscape turns a wall-clock reading into a plain integer.
func clockEscape() uint64 {
	return uint64(time.Now().UnixNano()) // want `clock-derived value escapes the time domain via UnixNano`
}

// clockSeed seeds a rand source from the clock: both the escape and the
// seeding are reported.
func clockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `escapes the time domain via UnixNano` `rand source seeded from the clock`
}

// measurementOK keeps clock readings inside the time domain: durations,
// deadlines and comparisons never escape to numerics.
func measurementOK(budget time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(budget)
	for time.Now().Before(deadline) {
		break
	}
	return time.Since(start)
}

// taintThroughBranch: the clock value flows into x on one branch only,
// and the escape after the join must still be caught.
func taintThroughBranch(useClock bool, ref time.Time) int64 {
	var x time.Time
	if useClock {
		x = time.Now()
	} else {
		x = ref
	}
	return x.Unix() // want `clock-derived value escapes the time domain via Unix`
}

// killOnAllPaths: the clock value is overwritten with a parameter on every
// path before the escape. Taint is never cleared, so a variable that ever
// held a clock reading stays tainted: the escape is reported.
func killOnAllPaths(flip bool, a, b time.Time) int64 {
	x := time.Now()
	if flip {
		x = a
	} else {
		x = b
	}
	return x.Unix() // want `clock-derived value escapes the time domain via Unix`
}

// loopCarried: the clock value is assigned at the bottom of the loop body
// and escapes at the top of the next pass.
func loopCarried(n int) int64 {
	var last time.Time
	var sum int64
	for i := 0; i < n; i++ {
		sum += last.UnixNano() // want `clock-derived value escapes the time domain via UnixNano`
		last = time.Now()
	}
	return sum
}

// capturedClock: a closure turns a reading of the enclosing function into
// a plain integer.
func capturedClock() func() int64 {
	t := time.Now()
	return func() int64 {
		return t.UnixNano() // want `clock-derived value escapes the time domain via UnixNano`
	}
}

// varDeclared: a reading bound by a var declaration is tracked like one
// bound by an assignment.
func varDeclared() int64 {
	var start = time.Now()
	return start.UnixNano() // want `clock-derived value escapes the time domain via UnixNano`
}

// closureMeasureOK: a captured reading that stays a duration is a
// measurement, not an escape.
func closureMeasureOK() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// mapAccumulate folds map values in iteration order into a float.
func mapAccumulate(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v // want `float accumulation depends on map iteration order`
	}
	return s
}

// mapLongHand spells the same accumulation without the compound token.
func mapLongHand(m map[int]float64) float64 {
	s := 0.0
	for _, v := range m {
		s = s + v // want `float accumulation depends on map iteration order`
	}
	return s
}

// mapCountOK: integer counters are order-independent.
func mapCountOK(m map[int]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// sliceAccumulateOK: slices iterate in index order.
func sliceAccumulateOK(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}
