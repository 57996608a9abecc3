package des

import (
	"math"
	"testing"

	"repro/internal/core"
)

// schedule is a recorded asynchronous run as Definition 1 states it: S[j-1]
// is the block phase j relaxed and labels[j-1] the version vector of the
// view it read, so it is both the steering and the delay model of a replay.
type schedule struct{ S, labels [][]int }

func (r *schedule) Select(j int) []int { return r.S[j-1] }
func (r *schedule) Label(i, j int) int { return r.labels[j-1][i] }
func (r *schedule) Name() string       { return "recorded" }

// record runs cfg on the asynchronous schedule and returns its result, the
// schedule of its committed phases and the block each installed.
func record(t *testing.T, cfg Config) (*Result, *schedule, [][]float64) {
	t.Helper()
	s, err := newSim(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// A worker has one phase in flight at a time and commits its phases in
	// the order it began them, so its k-th publish is its k-th record.
	type begun struct {
		vals   []float64
		labels []int
	}
	pending := make([][]begun, len(s.ports))
	s.onPublish = func(w int, vals []float64, version []int) {
		pending[w] = append(pending[w], begun{append([]float64(nil), vals...), append([]int(nil), version...)})
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	sch, installed := &schedule{}, make([][]float64, 0, len(res.Records))
	for _, r := range res.Records {
		b := pending[r.Worker][0]
		pending[r.Worker] = pending[r.Worker][1:]
		sch.S, sch.labels = append(sch.S, r.S), append(sch.labels, b.labels)
		installed = append(installed, b.vals)
	}
	return res, sch, installed
}

// TestVirtualReplay pins the simulator to the model it simulates: every
// phase the asynchronous schedule commits is a Definition 1 step. Its
// recorded steering and labels drive core.Run, which must install every
// block and end on the final X bit for bit. Flexible partials are LerpInto
// emulations, not Definition 1 reads, so flexible configurations sit out.
func TestVirtualReplay(t *testing.T) {
	for _, tc := range goldenConfigs(t) {
		if tc.cfg.Flexible.Enabled() {
			continue
		}
		res, sch, installed := record(t, tc.cfg)
		scr := core.NewRunScratch()
		rep, err := core.Run(core.Config{Op: tc.cfg.Op, X0: tc.cfg.X0, Steering: sch, Delay: sch,
			MaxIter: len(sch.S), Scratch: scr})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := scr.History()
		for j, S := range sch.S {
			for k, c := range S {
				if got, want := h.At(c, j+1), installed[j][k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: phase %d installs x_%d = %v, the replay %v", tc.name, j+1, c, want, got)
				}
			}
		}
		for i, v := range res.X {
			if math.Float64bits(rep.X[i]) != math.Float64bits(v) {
				t.Fatalf("%s: final x_%d = %v, the replay %v", tc.name, i, v, rep.X[i])
			}
		}
	}
}
