package dist

// Chaos tests: every run must survive scheduled worker churn — kills that
// close sockets mid-solve, replacements that rejoin through the accept loop
// and warm-start from checkpoints — and still converge to the same
// tolerance, on both data planes, under drop/reorder/delay faults, with or
// without heartbeats. And the other direction: with heartbeats and
// checkpoints on but zero churn, nothing about the trajectory may change.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/operators"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// slowOp stretches every component evaluation so a small test problem's
// solve spans the churn schedule instead of finishing before the first
// kill. It deliberately implements only the base Operator interface, so
// EvalBlock takes the componentwise path and the delay applies per
// component.
type slowOp struct {
	op    operators.Operator
	delay time.Duration
}

func (s slowOp) Dim() int { return s.op.Dim() }
func (s slowOp) Component(i int, x []float64) float64 {
	time.Sleep(s.delay)
	return s.op.Component(i, x)
}
func (s slowOp) Name() string { return "slow(" + s.op.Name() + ")" }

// TestChaosConvergesUnderChurn is the acceptance scenario: an 8-worker
// solve on each topology, under drop+reorder+delay fault injection, with 2
// workers killed mid-solve and restarted shortly after. The run must
// converge to tolerance anyway, and the report must show both the losses
// and the rejoins.
func TestChaosConvergesUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos schedule")
	}
	for _, topo := range []string{"star", "mesh"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			op, xstar := contractingOp(t, 64, 5)
			tol := 1e-9
			ckptDir := t.TempDir()
			ckptPath := filepath.Join(ckptDir, "chaos.ckpt")
			res, err := RunChaos(Config{
				Config:   runtime.Config{Op: slowOp{op: op, delay: 2 * time.Millisecond}, Workers: 8, Tol: tol},
				Topology: topo,
				Fault: Fault{
					DropProb:    0.05,
					ReorderProb: 0.05,
					MaxDelay:    200 * time.Microsecond,
					Seed:        11,
				},
				Elastic: Elastic{
					HeartbeatEvery: 20 * time.Millisecond,
					CheckpointPath: ckptPath,
				},
				Timeout: 2 * time.Minute,
			}, ChaosPlan{Events: []ChaosEvent{
				{Worker: 1, KillAfter: 80 * time.Millisecond, RestartAfter: 100 * time.Millisecond},
				{Worker: 5, KillAfter: 140 * time.Millisecond, RestartAfter: 100 * time.Millisecond},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("chaos run did not converge")
			}
			if r := operators.Residual(op, res.X); r > 1.01*tol {
				t.Errorf("declared quiescent with residual %.3e > 1.01*tol %.1e", r, tol)
			}
			if e := vec.DistInf(res.X, xstar); e > 1e-5 {
				t.Errorf("error %v too large", e)
			}
			if res.WorkersLost < 2 {
				t.Errorf("WorkersLost = %d, want >= 2 (two scheduled kills)", res.WorkersLost)
			}
			if res.WorkersRejoined < 2 {
				t.Errorf("WorkersRejoined = %d, want >= 2 (both kills restarted)", res.WorkersRejoined)
			}
			// Every loss and rejoin starts a reshard attempt; one that lands
			// on an empty membership waits for a rejoiner instead — so the
			// count is >= 1, not one per event.
			if res.Resharding < 1 {
				t.Errorf("Resharding = %d, want >= 1", res.Resharding)
			}
			if fi, err := os.Stat(ckptPath); err != nil || fi.Size() == 0 {
				t.Errorf("coordinator checkpoint file missing or empty (err=%v)", err)
			}
		})
	}
}

// TestElasticZeroChurnBitIdentical pins the regression guarantee: with
// heartbeats and checkpoints on but no churn, the trajectory is
// byte-for-byte the one without them. A single worker makes the schedule
// deterministic, so the comparison can demand exact equality of the
// iterate and the update counts on both topologies.
func TestElasticZeroChurnBitIdentical(t *testing.T) {
	for _, topo := range []string{"star", "mesh"} {
		topo := topo
		t.Run(topo, func(t *testing.T) {
			op, _ := contractingOp(t, 24, 3)
			base := Config{
				Config:   runtime.Config{Op: op, Workers: 1, Tol: 1e-11, MaxUpdatesPerWorker: 1 << 18},
				Topology: topo,
			}
			quiet, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			beating := base
			beating.Elastic = Elastic{HeartbeatEvery: 5 * time.Millisecond}
			el, err := Run(beating)
			if err != nil {
				t.Fatal(err)
			}
			if !quiet.Converged || !el.Converged {
				t.Fatalf("converged: without heartbeats %v, with %v", quiet.Converged, el.Converged)
			}
			if !reflect.DeepEqual(quiet.X, el.X) {
				t.Error("zero-churn X with heartbeats differs from the run without")
			}
			if !reflect.DeepEqual(quiet.UpdatesPerWorker, el.UpdatesPerWorker) {
				t.Errorf("updates per worker drifted: without heartbeats %v, with %v",
					quiet.UpdatesPerWorker, el.UpdatesPerWorker)
			}
			if el.WorkersLost != 0 || el.WorkersRejoined != 0 || el.Resharding != 0 {
				t.Errorf("churn counters on a churn-free run: lost=%d rejoined=%d reshardings=%d",
					el.WorkersLost, el.WorkersRejoined, el.Resharding)
			}
		})
	}
}

// TestElasticZeroChurnMultiWorker: heartbeats and checkpoints across many
// workers must not perturb a healthy solve — it converges normally and the
// churn counters stay zero.
func TestElasticZeroChurnMultiWorker(t *testing.T) {
	op, xstar := contractingOp(t, 48, 7)
	res, err := Run(Config{
		Config:   runtime.Config{Op: op, Workers: 6, Tol: 1e-10, MaxUpdatesPerWorker: 1 << 18},
		Topology: "mesh",
		Elastic:  Elastic{HeartbeatEvery: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("elastic zero-churn run did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-6 {
		t.Errorf("error %v too large", e)
	}
	if res.WorkersLost != 0 || res.WorkersRejoined != 0 || res.Resharding != 0 {
		t.Errorf("churn counters on a churn-free run: lost=%d rejoined=%d reshardings=%d",
			res.WorkersLost, res.WorkersRejoined, res.Resharding)
	}
}

// stallOnce sleeps once, inside its stallAt-th evaluation of one component:
// the worker owning that component goes silent mid-phase (heartbeats are
// paced from the compute goroutine) exactly like a descheduled process.
type stallOnce struct {
	operators.Operator
	component int
	stallAt   int64
	calls     atomic.Int64
	stall     time.Duration
}

func (s *stallOnce) Component(i int, x []float64) float64 {
	if i == s.component && s.calls.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return s.Operator.Component(i, x)
}

// TestElasticCasualtyIsNotARunError: a Run with no churn plan whose
// coordinator evicted a worker on heartbeat silence, re-sharded over the
// survivors and converged returns that result. The evicted worker wakes to
// a closed link and fails; with WorkersLost > 0 that is an expected
// casualty, not the run's error.
func TestElasticCasualtyIsNotARunError(t *testing.T) {
	op, xstar := contractingOp(t, 32, 9)
	tol := 1e-10
	// Component 20 is in worker 2's shard of 4 x 8; the stall outlasts the
	// 200 ms floor of the silence deadline.
	stalled := &stallOnce{Operator: op, component: 20, stallAt: 4, stall: 400 * time.Millisecond}
	res, err := Run(Config{
		Config:  runtime.Config{Op: stalled, Workers: 4, Tol: tol, MaxUpdatesPerWorker: 1 << 18},
		Elastic: Elastic{HeartbeatEvery: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("run with an evicted worker failed: %v", err)
	}
	if !res.Converged {
		t.Fatal("run did not converge over the survivors")
	}
	if res.WorkersLost < 1 {
		t.Fatalf("WorkersLost = %d, want >= 1 (the stalled worker)", res.WorkersLost)
	}
	if r := operators.Residual(op, res.X); r > 1.01*tol {
		t.Errorf("declared quiescent with residual %.3e > 1.01*tol %.1e", r, tol)
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-6 {
		t.Errorf("error %v too large", e)
	}
}

// TestRunChaosWithoutHeartbeats: with the elasticity knobs at zero a kill is
// still a lost worker — its severed link fails the coordinator's read — so
// the survivors are re-sharded, the replacement rejoins, and the run
// converges, on both data planes.
func TestRunChaosWithoutHeartbeats(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedule")
	}
	for _, topo := range []string{TopologyStar, TopologyMesh} {
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			op, xstar := contractingOp(t, 32, 13)
			tol := 1e-9
			res, err := RunChaos(Config{
				Config:   runtime.Config{Op: slowOp{op: op, delay: 2 * time.Millisecond}, Workers: 4, Tol: tol},
				Topology: topo,
				Timeout:  time.Minute,
			}, ChaosPlan{Events: []ChaosEvent{{Worker: 2, KillAfter: 60 * time.Millisecond, RestartAfter: 60 * time.Millisecond}}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("run did not converge across the kill")
			}
			if e := vec.DistInf(res.X, xstar); e > 1e-6 {
				t.Errorf("error %v too large", e)
			}
			if res.WorkersLost < 1 || res.WorkersRejoined < 1 || res.Resharding < 1 {
				t.Errorf("lost=%d rejoined=%d reshardings=%d, want each >= 1",
					res.WorkersLost, res.WorkersRejoined, res.Resharding)
			}
		})
	}
}

// TestOnlyLinkLossIsACasualty: Run forgives a worker the loss of its link —
// the coordinator re-sharded around it — but not a failure of its own.
func TestOnlyLinkLossIsACasualty(t *testing.T) {
	srv, _ := tcpPair(t)
	srv.Close()
	_, writeErr := srv.Write([]byte{0})
	ws := &workerState{id: 3}
	lost := getFrame()
	lost.lost(io.EOF)
	handleErr := ws.handle(lost)
	for _, err := range []error{writeErr, fmt.Errorf("dist: worker 3 status: %w", writeErr), handleErr} {
		if err == nil || !linkLost(err) {
			t.Errorf("%v: not a lost link", err)
		}
	}
	bad := blockFrame(0, 1, 9, 99, 1) // out of bounds for n = 0
	if err := ws.handle(bad); err == nil || linkLost(err) {
		t.Errorf("bad block frame: %v, want a worker failure", err)
	}
}
