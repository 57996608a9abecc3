package macroiter

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/vec"
)

// randomRun builds a random admissible record stream: every component is
// relaxed infinitely often (cyclic backbone plus random extras) and labels
// satisfy condition a).
func randomRun(rng *vec.RNG, n, horizon, maxDelay int) []Record {
	recs := make([]Record, 0, horizon)
	for j := 1; j <= horizon; j++ {
		comp := (j - 1) % n
		s := []int{comp}
		if rng.Float64() < 0.3 {
			s = append(s, rng.Intn(n))
		}
		d := 1 + rng.Intn(maxDelay)
		l := j - d
		if l < 0 {
			l = 0
		}
		recs = append(recs, Record{J: j, S: s, MinLabel: l, Worker: comp})
	}
	return recs
}

// Property battery over random admissible runs.
func TestRandomRunProperties(t *testing.T) {
	rng := vec.NewRNG(201)
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		maxDelay := 1 + rng.Intn(20)
		recs := randomRun(rng, n, 400, maxDelay)

		def2 := Boundaries(n, recs)
		strict := StrictBoundaries(n, recs)

		// Both sequences strictly increase and stay within the horizon.
		check := func(name string, bs []int) {
			prev := 0
			for _, b := range bs {
				if b <= prev || b > 400 {
					t.Fatalf("trial %d: %s boundary %d invalid", trial, name, b)
				}
				prev = b
			}
		}
		check("def2", def2)
		check("strict", strict)

		// Strict is never denser than Definition 2.
		if len(strict) > len(def2) {
			t.Fatalf("trial %d: strict %d > def2 %d", trial, len(strict), len(def2))
		}

		// Strict suffix guarantee holds by construction.
		for k, b := range strict {
			start := 0
			if k > 0 {
				start = strict[k-1]
			}
			for _, r := range recs {
				if r.J > b && r.MinLabel < start {
					t.Fatalf("trial %d: strict suffix violated", trial)
				}
			}
		}
		// Strict windows admit no pre-previous-window staleness.
		if v := EpochStaleness(strict, recs); v != 0 {
			t.Fatalf("trial %d: strict staleness %d", trial, v)
		}

		// Within each Definition 2 window, every component is relaxed at
		// least once by an update whose labels reach into the window.
		for k, b := range def2 {
			start := 0
			if k > 0 {
				start = def2[k-1]
			}
			covered := make([]bool, n)
			for _, r := range recs {
				if r.J > start && r.J <= b && r.MinLabel >= start {
					for _, i := range r.S {
						covered[i] = true
					}
				}
			}
			for i, c := range covered {
				if !c {
					t.Fatalf("trial %d: window (%d,%d] does not cover component %d",
						trial, start, b, i)
				}
			}
		}
	}
}

// Property: with bounded delay d and a cyclic backbone, Definition 2
// boundaries are spaced at most n + d + slack apart once past the warmup.
func TestBoundarySpacingBounded(t *testing.T) {
	n, d := 5, 7
	recs := cyclicRecords(n, 600, d)
	bs := Boundaries(n, recs)
	if len(bs) < 4 {
		t.Fatalf("too few boundaries: %v", bs)
	}
	for k := 2; k < len(bs); k++ {
		gap := bs[k] - bs[k-1]
		if gap > n+d+n {
			t.Fatalf("boundary gap %d too large (n=%d d=%d)", gap, n, d)
		}
	}
}

// Property: epochs are invariant to labels — two runs differing only in
// MinLabel give identical epoch sequences (the paper's Section IV point
// that epochs ignore message ordering).
func TestEpochsIgnoreLabels(t *testing.T) {
	rng := vec.NewRNG(202)
	recsA := randomRun(rng, 4, 300, 5)
	recsB := make([]Record, len(recsA))
	copy(recsB, recsA)
	for i := range recsB {
		recsB[i].MinLabel = 0 // maximally stale labels
	}
	ea := EpochBoundaries(4, recsA)
	eb := EpochBoundaries(4, recsB)
	if len(ea) != len(eb) {
		t.Fatalf("epoch counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("epoch boundaries differ at %d", i)
		}
	}
	// Macro-iterations, by contrast, do react to labels.
	ma := Boundaries(4, recsA)
	mb := Boundaries(4, recsB)
	if len(mb) >= len(ma) {
		t.Fatalf("macro boundaries should collapse under stale labels: %d vs %d",
			len(mb), len(ma))
	}
}

// strictReference is the record-slice strict computation the Log replaced,
// kept as the oracle for it.
func strictReference(n int, recs []Record) []int {
	var boundaries []int
	start, nCovered := 0, 0
	covered := make([]bool, n)
	for idx, r := range recs {
		if r.MinLabel >= start {
			for _, i := range r.S {
				if i >= 0 && i < n && !covered[i] {
					covered[i] = true
					nCovered++
				}
			}
		}
		suffixOK := true
		for _, later := range recs[idx+1:] {
			suffixOK = suffixOK && later.MinLabel >= start
		}
		if nCovered == n && suffixOK {
			boundaries = append(boundaries, r.J)
			start = r.J
			covered = make([]bool, n)
			nCovered = 0
		}
	}
	return boundaries
}

// TestLogStrictBoundariesMatchReference: one Log, Reset between random runs
// of varying dimension and length, gives the reference strict sequence
// every time, so does the record adapter, and the log expands back into the
// records it was filled from.
func TestLogStrictBoundariesMatchReference(t *testing.T) {
	rng := vec.NewRNG(409)
	var l Log
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(9)
		recs := randomRun(rng, n, 20+rng.Intn(300), 1+rng.Intn(25))
		l.Reset()
		for _, r := range recs {
			l.Append(r.J, r.S, r.MinLabel)
		}
		want := strictReference(n, recs)
		if got := l.StrictBoundaries(n); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, %d records): log gives %v, reference %v", trial, n, len(recs), got, want)
		}
		if back := l.Records(func(i int) int { return i }); !reflect.DeepEqual(back, recs) {
			t.Fatalf("trial %d: the log does not give back its records", trial)
		}
		if got := StrictBoundaries(n, recs); !slices.Equal(got, want) {
			t.Fatalf("trial %d: adapter gives %v, reference %v", trial, got, want)
		}
	}
}
