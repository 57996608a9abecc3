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

// hashResult hashes every field of an asynchronous result and the events
// of its trace.
func hashResult(r *Result, lg *trace.Log) uint64 {
	b := bitHash{fnv.New64a()}
	b.fs(r.X)
	b.f(r.Time)
	b.i(r.Updates)
	b.flag(r.Converged)
	b.f(r.FinalError)
	b.records(r.Records)
	b.is(r.Boundaries)
	b.is(r.StrictBoundaries)
	b.is(r.Epochs)
	b.i(r.MessagesSent)
	b.i(r.MessagesDropped)
	b.i(r.MessagesStale)
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

// hashSync hashes every field of a barrier-synchronous result.
func hashSync(r *SyncResult) uint64 {
	b := bitHash{fnv.New64a()}
	b.fs(r.X)
	b.f(r.Time)
	b.i(r.Rounds)
	b.flag(r.Converged)
	b.f(r.FinalError)
	b.fs(r.IdleTime)
	b.fs(r.ComputeTime)
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
		{"uniform", Config{Op: op, Workers: 4, X0: x0, XStar: xstar, Tol: 1e-9,
			Cost: UniformCost(1), Latency: FixedLatency(0.3), Seed: 1}},
		{"heterogeneous-jitter", Config{Op: op, Workers: 4, X0: x0, XStar: xstar, Tol: 1e-9,
			Cost: HeterogeneousCost([]float64{1, 2.5, 0.7, 1.3}), Latency: JitterLatency(0.1, 3), Seed: 2}},
		{"baudet", Config{Op: op, Workers: 2, X0: x0, XStar: xstar, MaxUpdates: 400,
			Cost: baudet, Latency: FixedLatency(0.01), Seed: 3}},
		{"drop", Config{Op: op, Workers: 4, X0: x0, XStar: xstar, Tol: 1e-9, DropProb: 0.3,
			Latency: JitterLatency(0.1, 0.5), Seed: 4}},
		{"flexible", Config{Op: op, Workers: 4, X0: x0, XStar: xstar, Tol: 1e-9,
			Cost: HeterogeneousCost([]float64{4, 3, 4, 5}), Latency: FixedLatency(0.05),
			Flexible: flexible.Uniform(4), Seed: 5}},
		{"apply-stale", Config{Op: op, Workers: 4, X0: x0, XStar: xstar, Tol: 1e-9,
			Latency: JitterLatency(0.1, 4), ApplyStale: true, Seed: 6}},
		{"chain", Config{Op: membrane, Workers: 5, X0: membrane.Supersolution(), XStar: ustar, Tol: 1e-7,
			Neighbors: ChainNeighbors(5), DropProb: 0.1, Latency: JitterLatency(0.2, 0.4), Seed: 7}},
		{"max-time", Config{Op: op, Workers: 3, X0: x0, XStar: xstar,
			Cost: HeterogeneousCost([]float64{1, 1.5, 2}), MaxTime: 37.5, Seed: 8}},
		{"workers-over-n", Config{Op: op, Workers: 20, X0: x0, XStar: xstar, Tol: 1e-9,
			Latency: JitterLatency(0.05, 0.2), Seed: 9}},
		{"one-worker", Config{Op: op, Workers: 1, X0: x0, XStar: xstar, Tol: 1e-9, Seed: 10}},
		{"lean-lasso", Config{Op: lasso, Workers: 4, MaxUpdates: 2000,
			Latency: JitterLatency(0.1, 0.5), Seed: 11}},
		{"lean-ridge", Config{Op: ridge, Workers: 4, MaxUpdates: 2000,
			Flexible: flexible.Uniform(4), Seed: 12}},
	}
}

// TestSimTrajectoryGolden pins the simulator's trajectories bit for bit:
// every field of Run's Result (and its trace) and of RunSync's SyncResult,
// on each golden configuration, hashes to the value recorded here. A
// change to either driver that moves a single bit of any run fails it.
func TestSimTrajectoryGolden(t *testing.T) {
	want := map[string][2]uint64{
		"uniform":              {0x15442b9420334c15, 0x72fe16c5dc9caf1c},
		"heterogeneous-jitter": {0xcdd840640b3deebc, 0x267f80a111ecd85f},
		"baudet":               {0x6df13fc0ef9fb6f9, 0x3c218d9ab7c1e090},
		"drop":                 {0x6da6a0afcab5e2d4, 0x4f36fc9f01099482},
		"flexible":             {0xc75413bcfac6ce0b, 0x2865dddfb19ff5ca},
		"apply-stale":          {0xe93f7257af86e294, 0x52440dc466531d5f},
		"chain":                {0x5d6ad33c5a47ab9f, 0x29c3865e15fd26b3},
		"max-time":             {0xc45bbe7bcab5dcac, 0x46deed5858f6b0d9},
		"workers-over-n":       {0x49ef85f653894bfb, 0xa30024b82e33fe78},
		"one-worker":           {0xe29c3c8d2846c31b, 0x67f8233e36628cf5},
		"lean-lasso":           {0x0ea7336c464b41c3, 0x121c571b309e9fb4},
		"lean-ridge":           {0xbc7bff542b3ae653, 0xd814f38b443b82d2},
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
