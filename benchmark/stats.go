package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// the nearest-rank rule: the smallest element with at least q of the
// samples at or below it. An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// sample is one successful operation: when it completed, measured from the
// start of its round's timed loop, and how long it took.
type sample struct {
	at, wall time.Duration
}

// window is one fixed-length stretch of a round's timed loop: the latencies
// (ms) of the operations that completed inside it, and the machine's speed
// there (see calibrate.go; 1 is nominal, above 1 is slower).
type window struct {
	seconds float64
	ms      []float64
	speed   float64
}

// cut splits one round's samples into k equal windows by completion time,
// and reads each window's speed off the calibration kernel's runs inside
// it (off the whole round's, should a window hold none). An operation that
// overran the round's deadline counts in the last window.
func cut(samples, kernel []sample, roundLen time.Duration, k int) []window {
	ws := make([]window, k)
	each := roundLen / time.Duration(k)
	index := func(s sample) int {
		if i := int(s.at / each); i < k {
			return i
		}
		return k - 1
	}
	for _, s := range samples {
		w := &ws[index(s)]
		w.ms = append(w.ms, float64(s.wall)/1e6)
	}
	inWindow := make([][]float64, k)
	var inRound []float64
	for _, s := range kernel {
		inWindow[index(s)] = append(inWindow[index(s)], float64(s.wall))
		inRound = append(inRound, float64(s.wall))
	}
	for i := range ws {
		ws[i].seconds = each.Seconds()
		if len(inWindow[i]) == 0 {
			inWindow[i] = inRound
		}
		ws[i].speed = speedOf(inWindow[i])
	}
	return ws
}

// timing is what a set of windows says about latency and rate.
type timing struct {
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	PerSecond float64 `json:"per_s"`
	Samples   int     `json:"samples"`
}

// pool merges windows: percentiles over all their samples, rate as
// operations per window-second. With normalise set, every window is first
// brought to nominal machine speed: a window measured at speed 1.5 holds
// latencies 1.5 times too long, over seconds that count for 1.5 times less.
func pool(ws []window, normalise bool) timing {
	var all []float64
	secs := 0.0
	for _, w := range ws {
		speed := 1.0
		if normalise {
			speed = w.speed
		}
		for _, ms := range w.ms {
			all = append(all, ms/speed)
		}
		secs += w.seconds / speed
	}
	sort.Float64s(all)
	t := timing{P50Ms: percentile(all, 0.5), P90Ms: percentile(all, 0.9), Samples: len(all)}
	if secs > 0 {
		t.PerSecond = float64(len(all)) / secs
	}
	return t
}

// quietFrac is the share of windows the timing metrics are computed from.
// The correction for machine speed handles a state that lasts; a burst of
// interference shorter than a window it cannot follow, and enough bursts
// drag a pooled p90 into them. Ranked by corrected median latency, the
// quieter half of the windows leaves the bursts out: over two sets of ten
// runs per workload the widest spread of a p90 fell from 23 % to 14 %.
const quietFrac = 0.5

// quietest returns the ceil(quietFrac*n) windows with the lowest median
// latency at nominal speed, among the n windows in which anything
// completed.
func quietest(ws []window) []window {
	type ranked struct {
		w   window
		p50 float64
	}
	var rs []ranked
	for _, w := range ws {
		if len(w.ms) > 0 {
			rs = append(rs, ranked{w, median(w.ms) / w.speed})
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].p50 < rs[j].p50 })
	out := make([]window, int(math.Ceil(quietFrac*float64(len(rs)))))
	for i := range out {
		out[i] = rs[i].w
	}
	return out
}

// medianSpeed is the median machine speed over the windows that hold
// samples (1, no correction, when none does).
func medianSpeed(ws []window) float64 {
	var speeds []float64
	for _, w := range ws {
		if len(w.ms) > 0 {
			speeds = append(speeds, w.speed)
		}
	}
	if len(speeds) == 0 {
		return 1
	}
	return median(speeds)
}
