package des

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/flexible"
	"repro/internal/macroiter"
	"repro/internal/mldata"
	"repro/internal/obstacle"
	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// bitHash folds values into an FNV-64a hash by their raw bits, so two runs
// hash alike only when every float agrees to the last bit.
type bitHash struct{ h hash.Hash64 }

func (b bitHash) u(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.h.Write(buf[:])
}
func (b bitHash) i(v int)     { b.u(uint64(v)) }
func (b bitHash) f(v float64) { b.u(math.Float64bits(v)) }
func (b bitHash) flag(v bool) {
	if v {
		b.i(1)
	} else {
		b.i(0)
	}
}
func (b bitHash) fs(v []float64) {
	b.i(len(v))
	for _, x := range v {
		b.f(x)
	}
}
func (b bitHash) is(v []int) {
	b.i(len(v))
	for _, x := range v {
		b.i(x)
	}
}
func (b bitHash) records(rs []macroiter.Record) {
	b.i(len(rs))
	for _, r := range rs {
		b.i(r.J)
		b.i(r.MinLabel)
		b.i(r.Worker)
		b.is(r.S)
	}
}
func (b bitHash) errors(es []TimedError) {
	b.i(len(es))
	for _, e := range es {
		b.f(e.Time)
		b.f(e.Error)
	}
}

func sum(v []int) (s int) {
	for _, x := range v {
		s += x
	}
	return s
}

// hashResult hashes every field of an asynchronous result and the events
// of its trace.
func hashResult(r *Result, lg *trace.Log) uint64 {
	b := bitHash{fnv.New64a()}
	b.fs(r.X)
	b.f(r.Time)
	b.i(sum(r.UpdatesPerWorker))
	b.flag(r.Converged)
	b.f(r.FinalError)
	b.records(r.Records)
	b.is(r.Boundaries)
	b.is(r.StrictBoundaries)
	b.is(r.Epochs)
	b.i(int(r.MessagesSent))
	b.i(int(r.MessagesDropped))
	b.i(int(r.MessagesStale))
	b.is(r.UpdatesPerWorker)
	b.errors(r.ErrorTrace)
	b.flag(r.Cancelled)
	b.i(len(lg.Events))
	for _, e := range lg.Events {
		b.i(int(e.Kind))
		b.i(e.Worker)
		b.i(e.Peer)
		b.f(e.Start)
		b.f(e.End)
		b.i(e.Iter)
		b.i(e.Comp)
		b.f(e.Frac)
	}
	return b.h.Sum64()
}

// hashSync hashes every field of a barrier-synchronous result but those of
// the embedded runtime.Result that only it reports (its per-worker counts
// and split, which TestVirtualTimeSplit checks, and its message counters).
func hashSync(r *SyncResult) uint64 {
	b := bitHash{fnv.New64a()}
	b.fs(r.X)
	b.f(r.Time)
	b.i(r.Rounds)
	b.flag(r.Converged)
	b.f(r.FinalError)
	b.errors(r.ErrorTrace)
	b.records(r.Records)
	b.flag(r.Cancelled)
	return b.h.Sum64()
}

// goldenConfigs spans the simulator's configuration surface: cost and
// latency models, loss, flexible partials, stale application, a restricted
// topology, the time bound, more workers than components and one worker,
// and the lasso and ridge operators in the lean residual form (no Gram),
// whose gradient sums the residual in RowDotAt's order.
func goldenConfigs(t *testing.T) []struct {
	name string
	cfg  Config
} {
	op, xstar := contractingOp(t, 12, 40)
	membrane := obstacle.Membrane(10)
	ustar, ok := operators.FixedPoint(membrane, membrane.Supersolution(), 1e-11, 2000000)
	if !ok {
		t.Fatal("membrane reference failed")
	}
	x0 := x0For(xstar)
	reg, err := mldata.NewRegression(mldata.RegressionConfig{
		N: 64, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	lean := reg.SmoothLean()
	lasso := operators.NewProxGradBF(lean, prox.L1{Lambda: 0.02}, operators.MaxStep(lean))
	ridge := operators.NewGradOp(lean, operators.MaxStep(lean))
	baudet := func(w, k int) float64 {
		if w == 0 {
			return 1
		}
		return float64(k)
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{
			Config:  runtime.Config{Op: op, Workers: 4, X0: x0, Tol: 1e-9},
			XStar:   xstar,
			Cost:    UniformCost(1),
			Latency: FixedLatency(0.3),
			Seed:    1,
		}},
		{"heterogeneous-jitter", Config{
			Config:  runtime.Config{Op: op, Workers: 4, X0: x0, Tol: 1e-9},
			XStar:   xstar,
			Cost:    HeterogeneousCost([]float64{1, 2.5, 0.7, 1.3}),
			Latency: JitterLatency(0.1, 3),
			Seed:    2,
		}},
		{"baudet", Config{
			Config:  runtime.Config{Op: op, Workers: 2, X0: x0, MaxUpdatesPerWorker: 200},
			XStar:   xstar,
			Cost:    baudet,
			Latency: FixedLatency(0.01),
			Seed:    3,
		}},
		{"drop", Config{
			Config:   runtime.Config{Op: op, Workers: 4, X0: x0, Tol: 1e-9},
			XStar:    xstar,
			DropProb: 0.3,
			Latency:  JitterLatency(0.1, 0.5),
			Seed:     4,
		}},
		{"flexible", Config{
			Config:  runtime.Config{Op: op, Workers: 4, X0: x0, Tol: 1e-9, Flexible: flexible.Uniform(4)},
			XStar:   xstar,
			Cost:    HeterogeneousCost([]float64{4, 3, 4, 5}),
			Latency: FixedLatency(0.05),
			Seed:    5,
		}},
		{"apply-stale", Config{
			Config:     runtime.Config{Op: op, Workers: 4, X0: x0, Tol: 1e-9},
			XStar:      xstar,
			Latency:    JitterLatency(0.1, 4),
			ApplyStale: true,
			Seed:       6,
		}},
		{"chain", Config{
			Config:    runtime.Config{Op: membrane, Workers: 5, X0: membrane.Supersolution(), Tol: 1e-7},
			XStar:     ustar,
			Neighbors: ChainNeighbors(5),
			DropProb:  0.1,
			Latency:   JitterLatency(0.2, 0.4),
			Seed:      7,
		}},
		{"max-time", Config{
			Config:  runtime.Config{Op: op, Workers: 3, X0: x0},
			XStar:   xstar,
			Cost:    HeterogeneousCost([]float64{1, 1.5, 2}),
			MaxTime: 37.5,
			Seed:    8,
		}},
		{"workers-over-n", Config{
			Config:  runtime.Config{Op: op, Workers: 20, X0: x0, Tol: 1e-9},
			XStar:   xstar,
			Latency: JitterLatency(0.05, 0.2),
			Seed:    9,
		}},
		{"one-worker", Config{Config: runtime.Config{Op: op, Workers: 1, X0: x0, Tol: 1e-9}, XStar: xstar, Seed: 10}},
		{"lean-lasso", Config{
			Config:  runtime.Config{Op: lasso, Workers: 4, MaxUpdatesPerWorker: 500},
			Latency: JitterLatency(0.1, 0.5),
			Seed:    11,
		}},
		{"lean-ridge", Config{
			Config: runtime.Config{Op: ridge, Workers: 4, MaxUpdatesPerWorker: 500, Flexible: flexible.Uniform(4)},
			Seed:   12,
		}},
	}
}

// TestSimTrajectoryGolden pins the simulator's trajectories bit for bit:
// every field of Run's Result (and its trace) and of RunSync's SyncResult,
// on each golden configuration, hashes to the value recorded here. A
// change to either driver that moves a single bit of any run fails it.
func TestSimTrajectoryGolden(t *testing.T) {
	want := map[string][2]uint64{
		"uniform":              {0x1bbd33e9f8a95adf, 0x193f5ba6d25fe4b4},
		"heterogeneous-jitter": {0x09e0a9d1a9b4c5d1, 0x06010b071ecb7a29},
		"baudet":               {0x2b46f25f50eaa7f5, 0x62d77e2f7de220f8},
		"drop":                 {0xf7a4278a0a6c1d29, 0xe9a28b3d9b685108},
		"flexible":             {0xfac1094c61a1cd1b, 0x285702e68a50f2ea},
		"apply-stale":          {0x3a8c6c24459bc629, 0x4fa935b2dfff79c8},
		"chain":                {0x8d59c3efe75e01e5, 0xe59799f991bc2b4f},
		"max-time":             {0xc45bbe7bcab5dcac, 0x935656306e41d24f},
		"workers-over-n":       {0x3a88657739d2ea90, 0x3e13dd5e21a570b5},
		"one-worker":           {0x89e446b5f3bba7d3, 0x028aa19691302332},
		"lean-lasso":           {0x125e1215954d7218, 0xf2a13e1e6dadef6c},
		"lean-ridge":           {0x30ba1ce510fc68de, 0x0d05735cb3357272},
	}
	for _, tc := range goldenConfigs(t) {
		cfg := tc.cfg
		lg := &trace.Log{}
		cfg.Trace = lg
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg.Trace = nil
		sres, err := RunSync(cfg)
		if err != nil {
			t.Fatalf("%s sync: %v", tc.name, err)
		}
		if got := hashResult(res, lg); got != want[tc.name][0] {
			t.Errorf("%s: Run hashes to %#016x, want %#016x", tc.name, got, want[tc.name][0])
		}
		if got := hashSync(sres); got != want[tc.name][1] {
			t.Errorf("%s: RunSync hashes to %#016x, want %#016x", tc.name, got, want[tc.name][1])
		}
	}
}
