package repro_test

// Tests of the regression scenarios' build: a trajectory golden — the
// lasso/ridge model-engine trajectories, hashed, as they were before the
// Gram kernel was rewritten (upper triangle, tiled, mirrored) and the Gram
// moved from the operator to the Regression; every iterate is a function of
// the Gram's bits, so a kernel change that reorders one element's sample
// accumulation moves these hashes — and a count of the Gram assemblies a
// build performs.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro"
)

// trajectoryHash folds the final iterate's bits and the iteration count of
// one model-engine solve into h.
func trajectoryHash(t *testing.T, scenario string, n int, seed uint64, tun repro.Tuning) uint64 {
	t.Helper()
	inst, err := repro.BuildScenarioTuned(scenario, n, seed, tun)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repro.Solve(inst.Spec,
		repro.WithEngine(repro.EngineModel),
		repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("%s n=%d seed=%d did not converge", scenario, n, seed)
	}
	h := fnv.New64a()
	put := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, v := range rep.X {
		put(math.Float64bits(v))
	}
	put(uint64(rep.Iterations))
	return h.Sum64()
}

// Captured on commit d95eb62 (three Gram assemblies per build, full-square
// kernel); must never move.
var trajectoryGolden = map[string]uint64{
	"lasso/7/1":   0x540a8f4151d677be,
	"lasso/7/2":   0x1970fae2c03529ce,
	"lasso/7/3":   0xc276d42f8bb8b0ea,
	"lasso/64/1":  0x21636c7d5a11595b,
	"lasso/64/2":  0x2aa6ba120f62ad99,
	"lasso/64/3":  0xb304d7e210f50d25,
	"lasso/256/1": 0xbcb40d06e27240bf,
	"lasso/256/2": 0x834f95c63da7dd94,
	"lasso/256/3": 0x0cf2dfe37308f6b7,
	"ridge/7/1":   0x6f1bff64d79fb0de,
	"ridge/7/2":   0x92adcd5b2c5003af,
	"ridge/7/3":   0xb8d70f089c9bf7d4,
	"ridge/64/1":  0xb4fe34335ec8dfef,
	"ridge/64/2":  0x91d4aa67ca61723a,
	"ridge/64/3":  0xaffd11df90327944,
	"ridge/256/1": 0x0bd23cf79e81a4f2,
	"ridge/256/2": 0xbd00cc8049a13e41,
	"ridge/256/3": 0xfaf3f2dfeece1b20,
}

// The lean residual form (GramPrecompute off), captured before the model
// engine's read kept its vector between iterations; must never move. Its
// gradient sums the residual in RowDotAt's order, which these pin.
var leanTrajectoryGolden = map[string]uint64{
	"lasso/64/1": 0x21e41489b2d3cf08,
	"lasso/64/2": 0x3cd861dba3cb7bc3,
	"lasso/64/3": 0xc9b20393a34419dd,
	"ridge/64/1": 0xaf45d582301ed51e,
	"ridge/64/2": 0x7cfa0b8faddb15b2,
	"ridge/64/3": 0x7a5ad7f722bd0da5,
}

func TestTrajectoryGolden(t *testing.T) {
	for _, scenario := range []string{"lasso", "ridge"} {
		for _, n := range []int{7, 64, 256} {
			for seed := uint64(1); seed <= 3; seed++ {
				key := fmt.Sprintf("%s/%d/%d", scenario, n, seed)
				got := trajectoryHash(t, scenario, n, seed, repro.Tuning{})
				if want := trajectoryGolden[key]; got != want {
					t.Errorf("%q: trajectory hash %#016x, golden %#016x", key, got, want)
				}
			}
		}
	}
	lean := repro.Tuning{GramPrecompute: new(bool)}
	for _, scenario := range []string{"lasso", "ridge"} {
		for seed := uint64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/64/%d", scenario, seed)
			if got, want := trajectoryHash(t, scenario, 64, seed, lean), leanTrajectoryGolden[key]; got != want {
				t.Errorf("lean %q: trajectory hash %#016x, golden %#016x", key, got, want)
			}
		}
	}
}

// The sharded assembly (IntraParallelism > 1) must land on the same golden:
// shards write disjoint Gram elements in the same per-element sample order.
func TestTrajectoryGoldenSharded(t *testing.T) {
	for _, shards := range []int{2, 3} {
		got := trajectoryHash(t, "lasso", 64, 1, repro.Tuning{IntraParallelism: shards})
		if want := trajectoryGolden["lasso/64/1"]; got != want {
			t.Errorf("%d shards: trajectory hash %#016x, golden %#016x", shards, got, want)
		}
	}
}

// A lasso or ridge build assembles the Gram exactly once (no registered
// scenario enters the rescale loop): counted in n x n float64 allocations.
// The design matrix is 4n x n, the Gram n x n, everything else O(n), so a
// build allocates 5n^2 floats and a second assembly would make it 6n^2.
func TestRegressionBuildAssemblesOneGram(t *testing.T) {
	const n = 256
	lean := false
	for _, tc := range []struct {
		scenario string
		tun      repro.Tuning
	}{
		{"lasso", repro.Tuning{}},
		{"ridge", repro.Tuning{}},
		{"lasso", repro.Tuning{IntraParallelism: 2}},
		{"lasso", repro.Tuning{GramPrecompute: &lean}},
	} {
		best := math.Inf(1)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := repro.BuildScenarioTuned(tc.scenario, n, 1, tc.tun); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = math.Min(best, float64(after.TotalAlloc-before.TotalAlloc))
		}
		grams := best/(8*n*n) - 4 // n x n matrices beyond the design matrix
		if grams < 1 || grams >= 1.5 {
			t.Errorf("%s %+v: build allocated %.2f Gram-sized matrices beyond A, want 1", tc.scenario, tc.tun, grams)
		}
	}
}
