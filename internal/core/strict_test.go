package core

import (
	"slices"
	"testing"

	"repro/internal/delay"
	"repro/internal/macroiter"
	"repro/internal/steering"
)

// strictMatchesRecords runs cfg twice, once keeping only the iteration log
// (through scr) and once also keeping Records, and checks the two runs are
// the same trajectory and that the strict boundaries Run computes from its
// log equal macroiter.StrictBoundaries over the records.
func strictMatchesRecords(t *testing.T, name string, scr *RunScratch, cfg func() Config) {
	t.Helper()
	logged := cfg()
	logged.Scratch = scr
	plain, err := Run(logged)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	recorded := cfg()
	recorded.KeepRecords = true
	rec, err := Run(recorded)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if plain.Records != nil {
		t.Errorf("%s: %d records kept unasked", name, len(plain.Records))
	}
	if len(rec.Records) != rec.Iterations || plain.Iterations != rec.Iterations ||
		plain.Cancelled != rec.Cancelled || !slices.Equal(plain.X, rec.X) {
		t.Fatalf("%s: keeping records changed the run: %d/%d iterations, %d records",
			name, plain.Iterations, rec.Iterations, len(rec.Records))
	}
	want := macroiter.StrictBoundaries(cfg().Op.Dim(), rec.Records)
	if len(want) == 0 && !rec.Cancelled {
		t.Fatalf("%s: no strict boundary in %d iterations; the case checks nothing", name, rec.Iterations)
	}
	if !slices.Equal(plain.StrictBoundaries, want) || !slices.Equal(rec.StrictBoundaries, want) {
		t.Fatalf("%s: strict boundaries from the log %v / %v, from the records %v",
			name, plain.StrictBoundaries, rec.StrictBoundaries, want)
	}
}

// TestStrictBoundariesFromTheLogMatchRecords: over steering (contiguous,
// block, non-contiguous random, residual-aware) x delay (fresh, bounded,
// out of order, unbounded) x theta, plus a cancelled run, the log-based
// strict sequence equals the record-based one; one pooled RunScratch serves
// every run, across dimensions larger then smaller, so a stale log tail
// would show.
func TestStrictBoundariesFromTheLogMatchRecords(t *testing.T) {
	const n = 12
	op, _ := testSystem(t, n)
	steerings := []func() steering.Policy{
		func() steering.Policy { return steering.NewCyclic(n) },
		func() steering.Policy { return steering.NewBlockCyclic(n, 3) },
		func() steering.Policy { return steering.NewRandomSubset(n, 4, 7) },
		func() steering.Policy { return steering.NewFair(steering.NewGaussSouthwell(n), n, 2*n) },
	}
	delays := []delay.Model{
		delay.Fresh{},
		delay.BoundedRandom{B: 9, Seed: 5},
		delay.OutOfOrder{W: 16, Seed: 8},
		delay.SqrtGrowth{Slow: map[int]bool{1: true, 7: true}},
	}
	scr := NewRunScratch()
	for _, pol := range steerings {
		for _, dm := range delays {
			for _, theta := range []float64{0, 0.5} {
				name := pol().Name() + "/" + dm.Name()
				strictMatchesRecords(t, name, scr, func() Config {
					return Config{Op: op, Steering: pol(), Delay: dm, Theta: theta, MaxIter: 1500}
				})
			}
		}
	}

	done := make(chan struct{})
	close(done)
	strictMatchesRecords(t, "cancelled", scr, func() Config {
		return Config{Op: op, Delay: delay.BoundedRandom{B: 4, Seed: 2}, MaxIter: 5000, Done: done}
	})

	for _, dim := range []int{96, 24, 64} {
		op, _ := testSystem(t, dim)
		strictMatchesRecords(t, "pooled", scr, func() Config {
			return Config{Op: op, Delay: delay.BoundedRandom{B: 8, Seed: 3}, MaxIter: 20 * dim}
		})
	}
}
