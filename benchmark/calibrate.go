package main

import (
	"math"
	"time"
)

// Machine-speed calibration.
//
// The sizing box (a 2-vCPU microVM on a shared host) runs the same
// deterministic solve 1.3x to 1.9x slower for minutes at a time, so that
// whole 12 s runs fall into one state or another and no choice of samples
// inside a run escapes it: ten runs of one workload spread by 15-30 %, and
// the median of ten moved by 40 % between two sets taken an hour apart.
//
// A fixed kernel of the harness's own, timed between the operations of a
// round, slows down in the same seconds: pointer chasing and map updates
// over a working set that fits the L2 cache (a streaming floating-point
// kernel does not track the solves). The kernel is the most sensitive
// kind of code, the workloads mix it with code that is not: over sets of
// ten runs per workload, latency went as the kernel's time to the power
// 0.5 to 0.65 (0.8 on serve-mix). Every timing is therefore divided by
//
//	speed = (kernel's median time in the window / calNominal) ^ calExponent
//
// which is the timing the machine would have given in the state where the
// kernel takes calNominal. The correction left 4-9 % of spread where the
// raw timings had 9-32 % (README.md has the table). Both sides of a
// comparison get the same correction, so it cannot favour a commit; a
// change that makes the program more or less sensitive to a noisy machine
// than the kernel is shows as noise, not as a gain.

const (
	// calNominal is the kernel's time on the sizing box in its quiet state.
	calNominal = 85 * time.Microsecond
	// calExponent is the fitted sensitivity of the workloads relative to
	// the kernel; one value for all workloads, so that it cannot be tuned
	// to any one of them.
	calExponent = 0.7
)

// calEvery is the least time between two calibration samples of a round:
// at one kernel run per calEvery the kernel takes under 1% of the round.
const calEvery = 10 * time.Millisecond

type calNode struct {
	next *calNode
	val  [6]float64
}

var (
	calPool = make([]calNode, 4000)
	calMap  = map[int]int{}
	calSink float64
)

// calibrate runs the kernel once and returns how long it took. It allocates
// nothing after its first run, so it leaves the allocation counts alone.
func calibrate() time.Duration {
	t0 := time.Now()
	var head *calNode
	for i := range calPool {
		n := &calPool[(i*2654435761)%len(calPool)]
		n.next = head
		n.val[i%6] = float64(i)
		head = n
		calMap[i*7919%1024] += i
	}
	s := 0.0
	for n, k := head, 0; n != nil && k < len(calPool); n, k = n.next, k+1 {
		s += n.val[3]
	}
	calSink = s + float64(len(calMap))
	return time.Since(t0)
}

// speedOf turns the kernel's times (ns) into the machine's speed relative
// to nominal: above 1 when the machine is slower. No samples, no correction.
func speedOf(kernelNs []float64) float64 {
	if len(kernelNs) == 0 {
		return 1
	}
	return math.Pow(median(kernelNs)/float64(calNominal), calExponent)
}

// setupCalRuns is how many kernel runs bracket a set-up on each side.
const setupCalRuns = 10

func calibrateN(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(calibrate())
	}
	return out
}
