package des

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/flexible"
	"repro/internal/operators"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/vec"
)

// contractingOp builds a diagonally dominant Jacobi operator with known
// fixed point.
func contractingOp(t *testing.T, n int, seed uint64) (*operators.Linear, []float64) {
	t.Helper()
	rng := vec.NewRNG(seed)
	m := vec.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 0.4*rng.Normal())
			}
		}
	}
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(m.At(i, j))
			}
		}
		m.Set(i, i, 1.6*off+1)
	}
	rhs := rng.NormalVector(n)
	op := operators.JacobiFromSystem(m, rhs)
	xstar, err := m.SolveGaussian(rhs)
	if err != nil {
		t.Fatal(err)
	}
	return op, xstar
}

func x0For(xstar []float64) []float64 {
	x0 := make([]float64, len(xstar))
	for i := range x0 {
		x0[i] = xstar[i] + 10
	}
	return x0
}

func TestAsyncRunConverges(t *testing.T) {
	op, xstar := contractingOp(t, 8, 1)
	res, err := Run(Config{
		Config:  runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 50000},
		XStar:   xstar,
		Cost:    UniformCost(1),
		Latency: FixedLatency(0.3),
		Seed:    9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge; final error %v after %d updates", res.FinalError, len(res.Records))
	}
	if res.Time <= 0 {
		t.Error("no virtual time elapsed")
	}
	if len(res.Boundaries) == 0 {
		t.Error("no macro-iterations formed")
	}
	if res.MessagesSent == 0 {
		t.Error("no messages sent")
	}
	total := 0
	for _, u := range res.UpdatesPerWorker {
		total += u
	}
	if total != len(res.Records) {
		t.Errorf("per-worker updates %d != records %d", total, len(res.Records))
	}
}

func TestAsyncDeterministicUnderSeed(t *testing.T) {
	op, xstar := contractingOp(t, 6, 2)
	cfg := Config{
		Config:  runtime.Config{Op: op, Workers: 3, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 33333},
		XStar:   xstar,
		Latency: JitterLatency(0.1, 0.5),
		Seed:    4,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) || a.Time != b.Time || a.MessagesSent != b.MessagesSent {
		t.Errorf("same seed diverged: %+v vs %+v", len(a.Records), len(b.Records))
	}
}

func TestJitterCausesStaleDeliveries(t *testing.T) {
	op, xstar := contractingOp(t, 8, 3)
	res, err := Run(Config{
		Config:  runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 50000},
		XStar:   xstar,
		Cost:    UniformCost(0.5),
		Latency: JitterLatency(0.1, 5.0), // heavy jitter -> overtaking
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge under jitter")
	}
	if res.MessagesStale == 0 {
		t.Error("expected stale (out-of-order) deliveries under heavy jitter")
	}
}

func TestDropsToleratedByLaterMessages(t *testing.T) {
	op, xstar := contractingOp(t, 8, 4)
	res, err := Run(Config{
		Config:   runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 100000},
		XStar:    xstar,
		DropProb: 0.3,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge with 30% message loss")
	}
	if res.MessagesDropped == 0 {
		t.Error("no drops recorded at 30% drop probability")
	}
}

func TestSyncRunConverges(t *testing.T) {
	op, xstar := contractingOp(t, 8, 6)
	res, err := RunSync(Config{
		Config:  runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 100000},
		XStar:   xstar,
		Cost:    UniformCost(1),
		Latency: FixedLatency(0.3),
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sync run did not converge; error %v", res.FinalError)
	}
	if res.Rounds == 0 || res.Time <= 0 {
		t.Error("no rounds executed")
	}
}

func TestSyncIdleTimeUnderImbalance(t *testing.T) {
	op, xstar := contractingOp(t, 8, 8)
	costs := []float64{1, 1, 1, 4} // worker 3 is 4x slower
	res, err := RunSync(Config{
		Config:  runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 100000, PerWorker: true},
		XStar:   xstar,
		Cost:    HeterogeneousCost(costs),
		Latency: FixedLatency(0.1),
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Fast workers idle ~3 units + latency per round; the slow one only the
	// latency.
	idle := func(w int) time.Duration { return res.PerWorker[w].Elapsed - res.PerWorker[w].Compute }
	if idle(0) <= idle(3) {
		t.Errorf("fast worker idle %v should exceed slow worker idle %v", idle(0), idle(3))
	}
}

func TestAsyncBeatsSyncUnderImbalance(t *testing.T) {
	// The paper's Section II claim: asynchronous iterations suppress
	// synchronization idle time and cope with load imbalance.
	op, xstar := contractingOp(t, 16, 9)
	costs := []float64{1, 1, 1, 6}
	base := Config{
		Config:  runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 250000},
		XStar:   xstar,
		Cost:    HeterogeneousCost(costs),
		Latency: FixedLatency(0.2),
		Seed:    10,
	}
	syncRes, err := RunSync(base)
	if err != nil {
		t.Fatal(err)
	}
	asyncRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !syncRes.Converged || !asyncRes.Converged {
		t.Fatalf("convergence: sync %v async %v", syncRes.Converged, asyncRes.Converged)
	}
	if asyncRes.Time >= syncRes.Time {
		t.Errorf("async time %v should beat sync %v under imbalance",
			asyncRes.Time, syncRes.Time)
	}
}

func TestFlexiblePartialsAreSentAndHelp(t *testing.T) {
	op, xstar := contractingOp(t, 12, 12)
	base := Config{
		Config:  runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 250000},
		XStar:   xstar,
		Cost:    UniformCost(4),     // long phases
		Latency: FixedLatency(0.05), // fast links
		Seed:    13,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	flexCfg := base
	flexCfg.Flexible = flexible.Uniform(4)
	lg := &trace.Log{}
	flexCfg.Trace = lg
	flex, err := Run(flexCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !flex.Converged {
		t.Fatal("runs did not converge")
	}
	partials := 0
	for _, e := range lg.Events {
		if e.Kind == trace.PartialSend {
			partials++
		}
	}
	if partials == 0 {
		t.Fatal("no partial updates were sent in flexible mode")
	}
	if flex.Time > plain.Time*1.05 {
		t.Errorf("flexible time %v notably worse than plain %v", flex.Time, plain.Time)
	}
}

func TestTraceGanttRenders(t *testing.T) {
	op, xstar := contractingOp(t, 2, 14)
	lg := &trace.Log{}
	_, err := Run(Config{
		Config:  runtime.Config{Op: op, Workers: 2, X0: x0For(xstar), MaxUpdatesPerWorker: 5},
		XStar:   xstar,
		Cost:    HeterogeneousCost([]float64{1, 1.7}),
		Latency: FixedLatency(0.2),
		Seed:    15,
		Trace:   lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := trace.RenderGantt(lg, 72)
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Errorf("Gantt missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "──>") {
		t.Errorf("Gantt missing messages:\n%s", out)
	}
}

func TestBaudetCostUnboundedDelayShape(t *testing.T) {
	// Reproduce the paper's Section II example: P0 updates in unit time,
	// P1's k-th phase takes k units. The label delay of P1's component as
	// seen in the global sequence grows ~ sqrt(j).
	op, xstar := contractingOp(t, 2, 16)
	res, err := Run(Config{
		Config: runtime.Config{Op: op, Workers: 2, X0: x0For(xstar), MaxUpdatesPerWorker: 1500},
		XStar:  xstar,
		Cost: func(w, k int) float64 {
			if w == 0 {
				return 1
			}
			return float64(k)
		},
		Latency: FixedLatency(0.01),
		Seed:    17,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Delay observed by worker 0's late phases: j - minLabel grows without
	// bound but sublinearly.
	var lastDelay float64
	for _, r := range res.Records {
		if r.Worker == 0 && r.J > 2 {
			lastDelay = float64(r.J - r.MinLabel)
		}
	}
	if lastDelay < 10 {
		t.Errorf("expected growing delay, got %v", lastDelay)
	}
	j := float64(res.Records[len(res.Records)-1].J)
	if lastDelay > j/2 {
		t.Errorf("delay %v not sublinear in j=%v", lastDelay, j)
	}
}

func TestRunValidation(t *testing.T) {
	op, _ := contractingOp(t, 4, 18)
	if _, err := Run(Config{}); err == nil {
		t.Error("expected error without operator")
	}
	if _, err := Run(Config{Config: runtime.Config{Op: op, Workers: 0}}); err == nil {
		t.Error("expected error for zero workers")
	}
}

func TestMaxTimeBound(t *testing.T) {
	op, xstar := contractingOp(t, 4, 19)
	res, err := Run(Config{
		Config:  runtime.Config{Op: op, Workers: 2, X0: x0For(xstar), MaxUpdatesPerWorker: 500000},
		MaxTime: 50,
		Cost:    UniformCost(1),
		Seed:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time > 51 {
		t.Errorf("virtual time %v exceeded MaxTime", res.Time)
	}
}

func TestApplyStaleRegressesViews(t *testing.T) {
	op, xstar := contractingOp(t, 8, 21)
	cfg := Config{
		Config:     runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), Tol: 1e-8, MaxUpdatesPerWorker: 125000},
		XStar:      xstar,
		Latency:    JitterLatency(0.1, 4.0),
		Seed:       22,
		ApplyStale: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge with stale application (totally async regime)")
	}
}
