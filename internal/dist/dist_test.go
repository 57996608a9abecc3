package dist

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	gort "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/operators"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// contractingOp builds a diagonally dominant Jacobi operator with known
// fixed point (the same construction the runtime tests use).
func contractingOp(t testing.TB, n int, seed uint64) (*operators.Linear, []float64) {
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
		m.Set(i, i, 2*off+1)
	}
	rhs := rng.NormalVector(n)
	op := operators.JacobiFromSystem(m, rhs)
	xstar, err := m.SolveGaussian(rhs)
	if err != nil {
		t.Fatal(err)
	}
	return op, xstar
}

// TestRunConverges is the default star run, and the same run with tiny
// heartbeat and checkpoint cadences: the uplink's writer goroutine shares
// the control link with every control write (heartbeats, checkpoints,
// statuses, the final), which -race checks and a torn frame would fail.
func TestRunConverges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		elastic Elastic
	}{
		{"star", Elastic{}},
		{"star-heartbeat", Elastic{HeartbeatEvery: time.Millisecond, CheckpointEvery: 2 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op, xstar := contractingOp(t, 32, 1)
			tol := 1e-10
			res, err := Run(Config{
				Config:  runtime.Config{Op: op, Workers: 4, Tol: tol, MaxUpdatesPerWorker: 1 << 18},
				Elastic: tc.elastic,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("distributed run did not converge")
			}
			if e := vec.DistInf(res.X, xstar); e > 1e-6 {
				t.Errorf("error %v too large", e)
			}
			if r := operators.Residual(op, res.X); r > tol*4 {
				t.Errorf("declared quiescent with residual %.3e > tol %.1e", r, tol)
			}
			if res.MessagesSent == 0 {
				t.Error("no messages sent over TCP")
			}
			if res.BytesSent == 0 || res.BytesReceived == 0 {
				t.Error("byte counters not populated")
			}
			if res.ProbeRounds == 0 {
				t.Error("no probe rounds recorded")
			}
			for w, u := range res.UpdatesPerWorker {
				if u == 0 {
					t.Errorf("worker %d performed no updates", w)
				}
			}
			// A certified-quiescent churn-free run has nothing pending,
			// whatever the uplinks and the relay shed on the way: the books
			// balance exactly.
			if res.WorkersLost != 0 {
				t.Fatalf("%d workers lost in a churn-free run", res.WorkersLost)
			}
			if got := res.MessagesSent - res.MessagesDelivered - res.MessagesDropped -
				res.MessagesReordered - res.MessagesDuplicate; got != 0 {
				t.Errorf("message accounting does not balance: %d frames unaccounted", got)
			}
			if res.MessagesStale != 0 {
				t.Errorf("%d superseded frames reached receivers", res.MessagesStale)
			}
			var relayed int64
			for _, row := range res.LinkBytes {
				for _, b := range row {
					relayed += b
				}
			}
			if relayed == 0 || res.BytesSent < relayed {
				t.Errorf("BytesSent %d does not cover the %d bytes the relay shipped", res.BytesSent, relayed)
			}
		})
	}
}

// TestStarRelaySheds: the star data plane sheds in two places, both the same
// newest-wins sender a mesh worker runs — each worker's uplink leg, ahead of
// its control link, and the relay's leg to each destination, ahead of its
// control link. Workers that publish faster than a socket
// drains — a run to budget with no tolerance to stop at — have their
// overtaken frames discarded there (reported as reordered with no fault
// configured) instead of queued.
func TestStarRelaySheds(t *testing.T) {
	op, _ := contractingOp(t, 32, 12)
	res, err := Run(Config{
		Config:  runtime.Config{Op: op, Workers: 4, MaxUpdatesPerWorker: 5000},
		Timeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("a run without Tol reported convergence")
	}
	if res.MessagesReordered == 0 {
		t.Errorf("relay shed nothing over %d sends", res.MessagesSent)
	}
}

func TestRunSingleWorker(t *testing.T) {
	op, xstar := contractingOp(t, 8, 2)
	res, err := Run(Config{Config: runtime.Config{Op: op, Workers: 1, Tol: 1e-12, MaxUpdatesPerWorker: 1 << 18}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("single worker did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-9 {
		t.Errorf("error %v", e)
	}
}

// TestRunFaultInjection is the unbounded-delay / out-of-order / lossy-link
// regime on a real network path: drops, reordering holds and transit
// jitter must not break convergence or termination, and the injection
// counters must show the faults actually happened.
func TestRunFaultInjection(t *testing.T) {
	op, xstar := contractingOp(t, 64, 3)
	res, err := Run(Config{
		Config:  runtime.Config{Op: op, Workers: 8, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 18},
		Timeout: 60 * time.Second,
		Fault: Fault{
			DropProb:    0.3,
			ReorderProb: 0.5,
			MaxDelay:    300 * time.Microsecond,
			Seed:        11,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("faulty-link run did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-5 {
		t.Errorf("error %v too large", e)
	}
	if res.MessagesDropped == 0 {
		t.Error("drop injection never fired")
	}
	if res.MessagesReordered == 0 {
		t.Error("reorder injection never produced a link-filtered out-of-order frame")
	}
	// Superseded frames are discarded at the link, never delivered: the
	// receiver-side stale counter must stay zero (it is defense in depth).
	if res.MessagesStale != 0 {
		t.Errorf("link filter leaked %d superseded frames to receivers", res.MessagesStale)
	}
	if got := res.MessagesSent - res.MessagesDelivered - res.MessagesDropped -
		res.MessagesReordered - res.MessagesDuplicate; got != 0 {
		t.Errorf("message accounting does not balance: %d frames unaccounted", got)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	op, _ := contractingOp(t, 8, 4)
	res, err := Run(Config{
		Config:  runtime.Config{Op: op, Workers: 4, Tol: 1e-30 /* unreachable */, MaxUpdatesPerWorker: 50},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("unreachable tolerance should not converge")
	}
}

func TestRunNoTol(t *testing.T) {
	op, _ := contractingOp(t, 8, 5)
	res, err := Run(Config{
		Config:  runtime.Config{Op: op, Workers: 2, MaxUpdatesPerWorker: 20},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("should not report convergence without Tol")
	}
	for w, u := range res.UpdatesPerWorker {
		if u != 20 {
			t.Errorf("worker %d updates = %d, want 20", w, u)
		}
	}
}

func TestRunWorkersClampedToDim(t *testing.T) {
	op, _ := contractingOp(t, 3, 6)
	res, err := Run(Config{Config: runtime.Config{Op: op, Workers: 16, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UpdatesPerWorker) != 3 {
		t.Errorf("workers not clamped: %d", len(res.UpdatesPerWorker))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("expected error without operator")
	}
	op, _ := contractingOp(t, 4, 7)
	if _, err := Run(Config{Config: runtime.Config{Op: op}}); err == nil {
		t.Error("expected error for zero workers")
	}
	if _, err := Run(Config{Config: runtime.Config{Op: op, Workers: 2, X0: []float64{1}}}); err == nil {
		t.Error("expected error for bad X0")
	}
	if _, err := Run(Config{Config: runtime.Config{Op: op, Workers: 2}, Fault: Fault{DropProb: 1.5}}); err == nil {
		t.Error("expected error for DropProb outside [0, 1)")
	}
	if _, err := Run(Config{Config: runtime.Config{Op: op, Workers: 2}, Fault: Fault{ReorderProb: 1}}); err == nil {
		t.Error("expected error for ReorderProb outside [0, 1)")
	}
	if _, err := Run(Config{Config: runtime.Config{Op: op, Workers: 2}, Fault: Fault{MaxDelay: -1}}); err == nil {
		t.Error("expected error for negative MaxDelay")
	}
	// Durations whose multiples (the 4x reorder hold, the 6x silence
	// window, the 4x checkpoint default) or the delay draw would overflow.
	const largest = time.Duration(1<<63 - 1)
	for _, cfg := range []Config{
		{Fault: Fault{MaxDelay: largest}},
		{Fault: Fault{MaxDelay: largest / 4}},
		{Elastic: Elastic{HeartbeatEvery: 1 << 61}},
		{Elastic: Elastic{HeartbeatEvery: largest}},
		{Elastic: Elastic{HeartbeatEvery: time.Millisecond, CheckpointEvery: largest}},
		{Elastic: Elastic{MaxRejoinWait: largest}},
	} {
		cfg.Config = runtime.Config{Op: op, Workers: 2}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%+v %+v: expected error for an overflowing duration", cfg.Fault, cfg.Elastic)
		}
	}
	if _, err := Run(Config{Config: runtime.Config{Op: op, Workers: 2}, Topology: "ring"}); err == nil {
		t.Error("expected error for unknown topology")
	}
	if _, err := Run(Config{Config: runtime.Config{Op: op, Workers: 2}, DeltaThreshold: -1e-9}); err == nil {
		t.Error("expected error for negative DeltaThreshold")
	}
	// Checkpoints ride the heartbeat pacing.
	for _, e := range []Elastic{{CheckpointPath: "ckpt"}, {CheckpointEvery: time.Millisecond}} {
		if _, err := Run(Config{Config: runtime.Config{Op: op, Workers: 2}, Elastic: e}); err == nil {
			t.Errorf("%+v: expected error for checkpointing without heartbeats", e)
		}
	}
}

// TestServeConnectSplit exercises the exact halves the dist-coordinator /
// dist-worker subcommands run: an explicit listener served in one
// goroutine, workers dialing it separately.
func TestServeConnectSplit(t *testing.T) {
	op, xstar := contractingOp(t, 16, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	type out struct {
		res *Result
		err error
	}
	serveCh := make(chan out, 1)
	go func() {
		res, err := Serve(ln, Config{
			Config:  runtime.Config{Op: op, Workers: p, Tol: 1e-10, MaxUpdatesPerWorker: 1 << 18},
			Timeout: 30 * time.Second,
		})
		serveCh <- out{res, err}
	}()
	workerCh := make(chan error, p)
	for w := 0; w < p; w++ {
		go func() { workerCh <- ConnectWorker(ln.Addr().String(), op, WorkerOptions{}) }()
	}
	got := <-serveCh
	for w := 0; w < p; w++ {
		if err := <-workerCh; err != nil {
			t.Errorf("worker error: %v", err)
		}
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !got.res.Converged {
		t.Fatal("split serve/connect run did not converge")
	}
	if e := vec.DistInf(got.res.X, xstar); e > 1e-6 {
		t.Errorf("error %v", e)
	}
}

// TestQuiescenceStressTCP mirrors the in-process message-engine stress
// regression over the network path: many workers, tiny tolerance, and the
// invariant that a converged run's assembled iterate genuinely meets the
// tolerance (early termination would leave a stale block).
func TestQuiescenceStressTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP stress in -short mode")
	}
	tol := 1e-10
	for trial := 0; trial < 3; trial++ {
		op, _ := contractingOp(t, 48, 20+uint64(trial))
		res, err := Run(Config{
			Config:  runtime.Config{Op: op, Workers: 6, Tol: tol, MaxUpdatesPerWorker: 1 << 18},
			Timeout: 60 * time.Second,
			Fault:   Fault{DropProb: 0.1, ReorderProb: 0.3, Seed: uint64(trial)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		if r := operators.Residual(op, res.X); r > tol*4 {
			t.Fatalf("trial %d: quiescent with residual %.3e > tol %.1e", trial, r, tol)
		}
	}
}

// TestRunMeshConverges is the basic mesh data-plane check: workers exchange
// shard frames directly, the coordinator keeps only the control plane, and
// the per-link byte matrix shows worker-to-worker traffic.
func TestRunMeshConverges(t *testing.T) {
	op, xstar := contractingOp(t, 32, 1)
	tol := 1e-10
	res, err := Run(Config{
		Config:   runtime.Config{Op: op, Workers: 4, Tol: tol, MaxUpdatesPerWorker: 1 << 18},
		Topology: TopologyMesh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("mesh run did not converge")
	}
	if res.Topology != TopologyMesh {
		t.Errorf("Result.Topology = %q", res.Topology)
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-6 {
		t.Errorf("error %v too large", e)
	}
	if r := operators.Residual(op, res.X); r > tol*4 {
		t.Errorf("declared quiescent with residual %.3e > tol %.1e", r, tol)
	}
	var dataBytes int64
	for i, row := range res.LinkBytes {
		for j, b := range row {
			if i == j && b != 0 {
				t.Errorf("self-link bytes [%d][%d] = %d", i, j, b)
			}
			dataBytes += b
		}
	}
	if dataBytes == 0 {
		t.Error("no worker-to-worker data-plane bytes recorded")
	}
	// The coordinator must be out of the data path: its wire traffic is
	// rendezvous, probes and finals only, far below the shard traffic.
	if res.BytesSent > dataBytes {
		t.Errorf("coordinator shipped %d bytes > data plane %d: mesh did not bypass it", res.BytesSent, dataBytes)
	}
}

// TestRunMeshShardedFaultInjection is the acceptance regime: Workers << n
// (multi-component shards) on the mesh under drop+reorder+delay, with the
// sender-side injection and link-filter counters balancing exactly.
func TestRunMeshShardedFaultInjection(t *testing.T) {
	op, xstar := contractingOp(t, 64, 3)
	res, err := Run(Config{
		Config:   runtime.Config{Op: op, Workers: 8, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 18},
		Topology: TopologyMesh,
		Timeout:  60 * time.Second,
		Fault: Fault{
			DropProb:    0.3,
			ReorderProb: 0.5,
			MaxDelay:    300 * time.Microsecond,
			Seed:        11,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("faulty mesh run did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-5 {
		t.Errorf("error %v too large", e)
	}
	if res.MessagesDropped == 0 {
		t.Error("drop injection never fired on the mesh")
	}
	if res.MessagesReordered == 0 {
		t.Error("reorder injection never produced a link-filtered frame")
	}
	if res.MessagesStale != 0 {
		t.Errorf("sender-side link filter leaked %d superseded frames", res.MessagesStale)
	}
	if got := res.MessagesSent - res.MessagesDelivered - res.MessagesDropped -
		res.MessagesReordered - res.MessagesDuplicate; got != 0 {
		t.Errorf("mesh accounting does not balance: %d frames unaccounted", got)
	}
}

// TestRunMeshSingleWorker exercises the degenerate mesh (no peers, no
// links): rendezvous must still complete and the solve still run.
func TestRunMeshSingleWorker(t *testing.T) {
	op, xstar := contractingOp(t, 8, 2)
	res, err := Run(Config{Config: runtime.Config{Op: op, Workers: 1, Tol: 1e-12, MaxUpdatesPerWorker: 1 << 18}, Topology: TopologyMesh})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("single mesh worker did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-9 {
		t.Errorf("error %v", e)
	}
}

// TestDeltaThresholdFraming pins the flexible-communication framing
// exactly: under a threshold a broadcast ships ONE frame covering the span
// from the first to the last component that moved by more than the
// threshold since it was LAST SHIPPED (so sub-threshold creep accumulates
// until it crosses, and a broadcast is atomic on the sequence stream — a
// supersession can never keep half of one), an unmoved shard costs zero
// frames and zero bytes, and a reliable final always carries the whole
// shard.
func TestDeltaThresholdFraming(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	type sent struct {
		flags byte
		lo    int
		vals  []float64
	}
	frames := make(chan sent, 32)
	go func() {
		for {
			typ, payload, err := readFrame(cli, maxFramePayload)
			if err != nil {
				close(frames)
				return
			}
			if typ != msgBlock {
				continue
			}
			h, cur := decodeBlock(payload)
			f := sent{flags: h.flags}
			f.lo, f.vals = cur.slice(8)
			frames <- f
		}
	}()
	next := func() sent {
		select {
		case f := <-frames:
			return f
		case <-time.After(5 * time.Second):
			t.Fatal("expected a frame, got none")
			return sent{}
		}
	}
	none := func(context string) {
		select {
		case f := <-frames:
			t.Fatalf("%s: unexpected frame [%d, +%d)", context, f.lo, len(f.vals))
		case <-time.After(20 * time.Millisecond):
		}
	}
	expect := func(context string, lo int, vals ...float64) {
		t.Helper()
		f := next()
		if f.lo != lo || len(f.vals) != len(vals) {
			t.Fatalf("%s: frame [%d, +%d), want [%d, +%d)", context, f.lo, len(f.vals), lo, len(vals))
		}
		for i, v := range vals {
			if f.vals[i] != v {
				t.Fatalf("%s: frame value [%d] = %v, want %v", context, i, f.vals[i], v)
			}
		}
	}

	ws := &workerState{
		id: 0, p: 2, n: 8, lo: 0, hi: 8,
		deltaThreshold: 0.1,
		lastSent:       make([]float64, 8),
		snd:            newUplink(&link{conn: srv}, 2, 0),
	}
	defer ws.snd.flush()

	// Components 0, 2-3 and 6 moved beyond the threshold (baseline:
	// lastSent all zero): ONE frame covering [0, 7) goes out, with the
	// sub-threshold components inside the span riding along; component 7,
	// outside the span, stays unshipped.
	ws.broadcast([]float64{1, 0.05, 1, 1, 0.05, 0.05, 1, 0.05}, 0)
	expect("covering span", 0, 1, 0.05, 1, 1, 0.05, 0.05, 1)
	none("covering span")
	if ws.sent != 1 {
		t.Errorf("sent = %d frames × (p-1), want 1", ws.sent)
	}

	// Re-broadcasting the identical vector ships nothing at all.
	ws.broadcast([]float64{1, 0.05, 1, 1, 0.05, 0.05, 1, 0.05}, 0)
	none("unchanged vector")

	// Sub-threshold creep: component 7 was never shipped (its baseline is
	// still 0), so a step to 0.08 stays below the threshold, but the next
	// step to 0.12 crosses the CUMULATIVE move against the last shipped
	// value and must go out — the accumulation rule that bounds peer
	// staleness by the threshold on loss-free links.
	ws.broadcast([]float64{1, 0.05, 1, 1, 0.05, 0.05, 1, 0.08}, 0)
	none("first creep step")
	ws.broadcast([]float64{1, 0.05, 1, 1, 0.05, 0.05, 1, 0.12}, 0)
	expect("second creep step", 7, 0.12)
	none("second creep step")

	// A reliable final ships the whole shard no matter what moved.
	ws.broadcast([]float64{1, 0.05, 1, 1, 0.05, 0.05, 1, 0.12}, blockReliable)
	f := next()
	if f.flags&blockReliable == 0 || f.lo != 0 || len(f.vals) != 8 {
		t.Fatalf("reliable final = flags %d [%d, +%d), want the whole reliable shard", f.flags, f.lo, len(f.vals))
	}
	none("after final")
}

// TestSupersededNeverRelayed is the regression test for the stale-block
// relay bug, on the one sender both data planes run (the star relay's legs
// and a mesh worker's links are the same type): a frame superseded on its
// leg (an earlier sequence arriving after a later one was already written)
// must be discarded AT the sender — never written, so the receiver can
// never apply or re-count it — and counted reordered, disjointly from
// duplicates and from injection drops.
func TestSupersededNeverRelayed(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	s := newSender(0, 2, Fault{}, &ledger{gen: 1})
	defer s.flush()
	l := &leg{link: &link{conn: srv}, q: 1}
	s.setLeg(1, l)
	frames := make(chan uint64, 16)
	go func() {
		for {
			typ, payload, err := readFrame(cli, maxFramePayload)
			if err != nil {
				close(frames)
				return
			}
			if typ != msgBlock {
				continue
			}
			h, _ := decodeBlock(payload)
			frames <- h.seq
		}
	}()
	frame := func(seq uint64) *frameBuf { return blockFrame(0, seq, 1, 0, 1, 2) }

	deliver(s, l, frame(2)) // newest first
	deliver(s, l, frame(1)) // superseded: must be discarded here
	deliver(s, l, frame(2)) // duplicate: must be discarded here
	deliver(s, l, frame(3)) // fresh: must pass

	if got := <-frames; got != 2 {
		t.Fatalf("first written seq = %d, want 2", got)
	}
	if got := <-frames; got != 3 {
		t.Fatalf("second written seq = %d, want 3 (the superseded/duplicate frames leaked onto the wire)", got)
	}
	if got := s.led.reordered.Load(); got != 1 {
		t.Errorf("reordered = %d, want 1", got)
	}
	if got := s.led.duplicate.Load(); got != 1 {
		t.Errorf("duplicate = %d, want 1", got)
	}
	if got := s.led.dropped.Load(); got != 0 {
		t.Errorf("dropped = %d, want 0 (filter discards are not injection drops)", got)
	}
	if got := s.led.drained(); got != 2 {
		t.Errorf("drained = %d, want 2 (both discards drain in-flight)", got)
	}
}

// tornConn writes every frame in two halves with a yield between them, so
// two writers not excluded by one mutex are certain to interleave bytes.
type tornConn struct{ net.Conn }

func (c tornConn) Write(b []byte) (int, error) {
	half := len(b) / 2
	if _, err := c.Conn.Write(b[:half]); err != nil {
		return 0, err
	}
	gort.Gosched()
	_, err := c.Conn.Write(b[half:])
	return len(b), err
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (srv, cli net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if cli, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if srv, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); cli.Close() })
	return srv, cli
}

// TestRelayLegSharesLinkMutex: a relay leg and the coordinator's control
// frames write to one destination connection from different goroutines; the
// leg writes under the destination link's own mutex, so frames never
// interleave — every frame the destination reads is whole.
func TestRelayLegSharesLinkMutex(t *testing.T) {
	srv, cli := tcpPair(t)
	dest := &link{conn: tornConn{srv}}
	c := &coordinator{}
	s := newSender(0, 2, Fault{}, &ledger{gen: 1})
	l := &leg{link: dest, q: 1}
	s.setLeg(1, l)
	const frames = 400
	go func() {
		for seq := uint64(1); seq <= frames; seq++ {
			deliver(s, l, blockFrame(0, seq, 1, 0, float64(seq), 2, 3))
		}
	}()
	go func() {
		for id := uint64(1); id <= frames; id++ {
			if err := c.writeLink(dest, buildFrame(msgProbe, appendU64(nil, id))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var blocks, probes uint64
	for blocks+probes < 2*frames {
		cli.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, payload, err := readFrame(cli, 1<<10)
		if err != nil {
			t.Fatalf("after %d blocks and %d probes: %v", blocks, probes, err)
		}
		switch typ {
		case msgBlock:
			blocks++
			h, cur := decodeBlock(payload)
			if _, vals := cur.slice(3); cur.err != nil || h.seq != blocks || vals[0] != float64(blocks) {
				t.Fatalf("block %d arrived torn: header %+v, err %v", blocks, h, cur.err)
			}
		case msgProbe:
			probes++
			if cur := (cursor{b: payload}); cur.u64() != probes || len(payload) != 8 {
				t.Fatalf("probe %d arrived torn", probes)
			}
		default:
			t.Fatalf("frame type %d: the stream lost its framing", typ)
		}
	}
	s.flush()
	if got := s.bytesTo[1].Load(); got != frames*int64(len(appendBlockFrame(nil, 0, 1, 0, 1, 0, []float64{1, 2, 3}))) {
		t.Errorf("leg counted %d bytes for %d frames", got, frames)
	}
}

// TestStarRejoinGetsLegsBothWays drives the coordinator's half of a star
// rejoin with scripted workers: slot 0 survives, slot 1 is lost and
// re-claimed, the reshard barrier runs, and then a block from the rejoiner
// must reach the survivor and a block from the survivor the rejoiner — the
// relay legs were installed in both directions and onto the new connection.
func TestStarRejoinGetsLegsBothWays(t *testing.T) {
	op, _ := contractingOp(t, 4, 3)
	done := make(chan struct{})
	addr, errCh, resCh := serveOne(t, Config{
		Config:  runtime.Config{Op: op, Workers: 2, Tol: 1e-9, Done: done},
		Timeout: time.Minute,
	})
	c0, _ := joinScripted(t, addr)
	c1, _ := joinScripted(t, addr)
	l0 := &link{conn: c0}
	assigns0, blocks0 := make(chan uint32, 16), make(chan []byte, 16)
	go answerScripted(l0, 1, assigns0, blocks0)
	c1.Close()

	cR, wel := joinScripted(t, addr)
	if wel.id != 1 || !wel.rejoining {
		t.Fatalf("rejoin welcome = %+v; want slot 1, rejoining", wel)
	}
	lR := &link{conn: cR}
	assignsR, blocksR := make(chan uint32, 16), make(chan []byte, 16)
	go answerScripted(lR, wel.gen, assignsR, blocksR)
	gen := <-assignsR // the rejoiner is sharded in
	for g := uint32(0); g != gen; g = <-assigns0 {
	}

	for _, hop := range []struct {
		name string
		from int
		src  *link
		dst  chan []byte
	}{
		{"rejoiner to survivor", 1, lR, blocks0},
		{"survivor to rejoiner", 0, l0, blocksR},
	} {
		if err := hop.src.write(appendBlockFrame(nil, hop.from, 1, blockReliable, gen, 2*hop.from, []float64{7, 8})); err != nil {
			t.Fatal(err)
		}
		select {
		case payload := <-hop.dst:
			if h, _ := decodeBlock(payload); h.from != hop.from || h.gen != gen {
				t.Errorf("%s: relayed header %+v", hop.name, h)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no block relayed", hop.name)
		}
	}
	close(done)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if res := <-resCh; !res.Cancelled {
		t.Error("the run was not cancelled")
	}
}

// TestLostSlotLeavesEveryRelay: the shell carries out a star slot's loss by
// closing its link, dropping its relay and taking its leg out of every
// other relay, so no relay writes to the lost slot's connection.
func TestLostSlotLeavesEveryRelay(t *testing.T) {
	const n = 4
	srv0, _ := tcpPair(t)
	srv1, cli1 := tcpPair(t)
	cfg := Config{Config: runtime.Config{Workers: 2}, Timeout: time.Minute}
	c := &coordinator{
		cfg: cfg, n: n,
		st:          newCoordState(2, n, false, make([]float64, n), cfg.Timeout, time.Second),
		conns:       map[int]*link{1: {conn: srv0}, 2: {conn: srv1}},
		relays:      make([]*sender, 2),
		runDeadline: time.Now().Add(cfg.Timeout),
	}
	c.st.links = []int{1, 2}
	c.linkUp(0, c.conns[1])
	c.linkUp(1, c.conns[2])
	defer func() {
		for _, s := range c.built {
			s.flush()
		}
	}()
	if c.relays[0].legTo(1) == nil || c.relays[1].legTo(0) == nil {
		t.Fatal("linkUp left a relay without its leg to the other slot")
	}
	c.exec([]action{{kind: actDown, slot: 1, link: 2}})
	if c.relays[0].legTo(1) != nil {
		t.Error("the survivor's relay kept its leg to the lost slot")
	}
	if c.relays[1] != nil {
		t.Error("the lost slot kept its relay")
	}
	cli1.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := cli1.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("the lost slot's link read %v, want EOF", err)
	}
}

// joinScripted connects one scripted worker to the coordinator at addr:
// hello, then its welcome, redialling while the coordinator rejects it (a
// lost slot is freed only once the coordinator has noticed the loss).
func joinScripted(t *testing.T, addr string) (net.Conn, welcome) {
	t.Helper()
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		if _, err := conn.Write(buildFrame(msgHello, appendU32(nil, protocolVersion))); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readFrame(conn, maxFramePayload)
		if err != nil {
			t.Fatal(err)
		}
		if typ == msgReject {
			conn.Close()
			time.Sleep(10 * time.Millisecond)
			continue
		}
		wel, err := decodeWelcome(payload, nil)
		if typ != msgWelcome || err != nil {
			t.Fatalf("welcome: frame type %d, err %v", typ, err)
		}
		return conn, wel
	}
}

// answerScripted plays a scripted worker's control half on l until the link
// fails: every probe gets an active status (the run never quiesces), every
// reshard an empty ack, every assign's generation goes to assigns and every
// block's payload to blocks.
func answerScripted(l *link, gen uint32, assigns chan<- uint32, blocks chan<- []byte) {
	for {
		typ, payload, err := readFrame(l.conn, maxFramePayload)
		if err != nil {
			return
		}
		cur := cursor{b: payload}
		switch typ {
		case msgProbe:
			l.write(appendStatusFrame(nil, status{probeID: cur.u64(), gen: gen}))
		case msgReshard:
			gen = cur.u32()
			l.write(buildShardFrame(msgReshardAck, gen, 0, nil))
		case msgAssign:
			assigns <- cur.u32()
		case msgBlock:
			blocks <- payload
		}
	}
}

// TestSupersededNeverApplied covers the receiver's defense in depth: even
// if a stale frame slips past every link filter, the worker discards its
// values (acknowledging the delivery so in-flight drains) instead of
// overwriting fresher state.
func TestSupersededNeverApplied(t *testing.T) {
	ws := &workerState{
		id: 1, p: 2, n: 4, lo: 2, hi: 4,
		view:    []float64{0, 0, 0, 0},
		lastSeq: make([]uint64, 2),
	}
	block := func(seq uint64, vals []float64) *frameBuf { return blockFrame(0, seq, 0, 0, vals...) }
	if err := ws.handle(block(2, []float64{7, 7})); err != nil {
		t.Fatal(err)
	}
	if err := ws.handle(block(1, []float64{3, 3})); err != nil {
		t.Fatal(err)
	}
	if ws.view[0] != 7 || ws.view[1] != 7 {
		t.Errorf("superseded block was applied: view = %v", ws.view)
	}
	if ws.stale != 1 {
		t.Errorf("stale = %d, want 1", ws.stale)
	}
	if ws.delivered != 2 {
		t.Errorf("delivered = %d, want 2 (stale frames still drain in-flight)", ws.delivered)
	}
}

// TestBlockIntoOwnShardRejected: a current-generation block that reaches
// into the receiver's own shard is a protocol violation — the view is left
// as it was — while the same bytes from a fenced generation are discarded
// as stale and a block beside the shard is applied.
func TestBlockIntoOwnShardRejected(t *testing.T) {
	newWorker := func() *workerState {
		return &workerState{
			id: 1, p: 3, n: 6, lo: 2, hi: 4, gen: 5,
			view:    []float64{0, 0, 1, 1, 0, 0},
			lastSeq: make([]uint64, 3),
		}
	}
	block := func(gen uint32, lo int, vals ...float64) *frameBuf { return blockFrame(0, 1, gen, lo, vals...) }
	for _, tc := range []struct {
		name string
		lo   int
		vals []float64
	}{
		{"inside", 2, []float64{9, 9}},
		{"one component", 3, []float64{9}},
		{"straddling the lower edge", 1, []float64{9, 9}},
		{"straddling the upper edge", 3, []float64{9, 9}},
		{"covering", 0, []float64{9, 9, 9, 9, 9, 9}},
	} {
		ws := newWorker()
		err := ws.handle(block(5, tc.lo, tc.vals...))
		if err == nil || !strings.Contains(err.Error(), "bad block frame") {
			t.Errorf("%s: err = %v, want a bad block frame error", tc.name, err)
		}
		if want := newWorker().view; !reflect.DeepEqual(ws.view, want) || ws.delivered != 0 {
			t.Errorf("%s: rejected block left view %v, delivered %d", tc.name, ws.view, ws.delivered)
		}

		// The generation fence comes first: a pre-reshard frame may overlap.
		if err := ws.handle(block(4, tc.lo, tc.vals...)); err != nil || ws.stale != 1 || ws.view[2] != 1 {
			t.Errorf("%s: stale-generation block: err %v, stale %d, view %v", tc.name, err, ws.stale, ws.view)
		}
	}

	ws := newWorker()
	if err := ws.handle(block(5, 0, 7, 7)); err != nil {
		t.Fatal(err)
	}
	if want := []float64{7, 7, 1, 1, 0, 0}; !reflect.DeepEqual(ws.view, want) {
		t.Errorf("view = %v, want %v", ws.view, want)
	}

	// Until the assign of a re-shard lands, lo and hi are the old
	// generation's and a peer already assigned may own part of them.
	ws = newWorker()
	ws.awaitAssign = true
	if err := ws.handle(block(5, 2, 8, 8)); err != nil {
		t.Errorf("block while awaiting assign: %v", err)
	}
}

// blockFrame is a pooled block frame as a sender holds it, with one
// reference, the caller's.
func blockFrame(from int, seq uint64, gen uint32, lo int, vals ...float64) *frameBuf {
	f := getFrame()
	f.b = appendBlockFrame(f.b, from, seq, 0, gen, lo, vals)
	f.seq, f.gen = seq, gen
	return f
}

// memConn is an in-memory connection that only takes writes: each one
// signals wrote (when set), then takes stall, then counts.
type memConn struct {
	net.Conn
	wrote  chan struct{}
	stall  time.Duration
	writes atomic.Int64
}

func (c *memConn) Write(b []byte) (int, error) {
	if c.wrote != nil {
		c.wrote <- struct{}{}
	}
	if c.stall > 0 {
		time.Sleep(c.stall)
	}
	c.writes.Add(1)
	return len(b), nil
}

// memSender is a sender from worker 0 with one leg per memConn, to workers
// 1, 2, ...
func memSender(fault Fault, conns ...*memConn) *sender {
	s := newSender(0, len(conns)+1, fault, &ledger{gen: 1})
	for i, c := range conns {
		s.setLeg(i+1, &leg{link: &link{conn: c}, q: i + 1})
	}
	return s
}

// hand queues f on leg l of s, writable from due, handing the leg the
// caller's reference; unlike send it draws nothing and rings nobody.
func hand(s *sender, l *leg, f *frameBuf, due time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l.queue = append(l.queue, held{f: f, due: due})
}

// deliver hands f to leg l of s, due at once, and serves the leg as a
// reliable send does.
func deliver(s *sender, l *leg, f *frameBuf) {
	hand(s, l, f, time.Time{})
	s.serve(l, time.Time{})
}

// TestSenderFlushDropsQueued pins the sender's teardown: flush drops every
// frame still queued, charging each to the ledger as a drop, returns with
// no write in progress, and nothing is written after it.
func TestSenderFlushDropsQueued(t *testing.T) {
	const frames, delay = 64, 50 * time.Millisecond
	conn := &memConn{}
	s := memSender(Fault{MaxDelay: delay}, conn)
	s.rng = rand.New(&script{int64(delay)})
	for seq := uint64(1); seq <= frames; seq++ {
		f := blockFrame(0, seq, 1, 0, 1)
		s.send(f, false)
		f.release()
	}
	s.flush()
	if got := s.led.dropped.Load(); got != frames {
		t.Errorf("dropped = %d, want the %d queued frames", got, frames)
	}
	time.Sleep(delay + 10*time.Millisecond)
	if got := conn.writes.Load(); got != 0 {
		t.Errorf("%d queued frames were written despite flush", got)
	}

	// A write already under way when flush starts completes before flush
	// returns.
	slow := &memConn{wrote: make(chan struct{}, 1), stall: 10 * time.Millisecond}
	s2 := memSender(Fault{}, slow)
	f := blockFrame(0, 1, 1, 0, 1)
	s2.send(f, false)
	f.release()
	<-slow.wrote
	s2.flush()
	if slow.writes.Load() != 1 {
		t.Error("flush returned while a write was still under way")
	}
}

// script is a rand.Source that draws v every time: a sender whose rng is
// rand.New(script) with Fault{MaxDelay: d} delays every frame by exactly v
// (at most d).
type script struct{ v int64 }

func (s *script) Int63() int64 { return s.v }
func (s *script) Seed(int64)   {}

// TestDelayedDeliveryTeardown is the race-detector regression for the
// teardown bug: with injected delays comparable to the whole solve, many
// relay timers are still pending when the run stops, and teardown must
// cancel or complete every one before any connection closes. Run under
// -race (CI does) this fails loudly if a delayed write races conn close.
func TestDelayedDeliveryTeardown(t *testing.T) {
	for _, topology := range []string{TopologyStar, TopologyMesh} {
		t.Run(topology, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				op, _ := contractingOp(t, 16, 30+uint64(trial))
				res, err := Run(Config{
					Config:   runtime.Config{Op: op, Workers: 4, Tol: 1e-8, MaxUpdatesPerWorker: 1 << 18},
					Topology: topology,
					Timeout:  60 * time.Second,
					Fault: Fault{
						ReorderProb: 0.5,
						MaxDelay:    3 * time.Millisecond, // >> per-phase compute time
						Seed:        uint64(100 + trial),
					},
				})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !res.Converged {
					t.Fatalf("trial %d did not converge", trial)
				}
			}
		})
	}
}

// TestMeshServeConnectSplit exercises the multi-process halves on the mesh
// topology: an explicit listener served in one goroutine, workers dialing
// it separately and then each other.
func TestMeshServeConnectSplit(t *testing.T) {
	op, xstar := contractingOp(t, 16, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	type out struct {
		res *Result
		err error
	}
	serveCh := make(chan out, 1)
	go func() {
		res, err := Serve(ln, Config{
			Config:   runtime.Config{Op: op, Workers: p, Tol: 1e-10, MaxUpdatesPerWorker: 1 << 18},
			Topology: TopologyMesh,
			Timeout:  30 * time.Second,
		})
		serveCh <- out{res, err}
	}()
	workerCh := make(chan error, p)
	for w := 0; w < p; w++ {
		go func() { workerCh <- ConnectWorker(ln.Addr().String(), op, WorkerOptions{}) }()
	}
	got := <-serveCh
	for w := 0; w < p; w++ {
		if err := <-workerCh; err != nil {
			t.Errorf("worker error: %v", err)
		}
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !got.res.Converged {
		t.Fatal("split mesh run did not converge")
	}
	if e := vec.DistInf(got.res.X, xstar); e > 1e-6 {
		t.Errorf("error %v", e)
	}
}

// TestQuiescenceStressMesh mirrors the TCP stress regression on the mesh
// data plane: many workers, tiny tolerance, faulty links, and the invariant
// that a converged run's assembled iterate genuinely meets the tolerance.
func TestQuiescenceStressMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP stress in -short mode")
	}
	tol := 1e-10
	for trial := 0; trial < 3; trial++ {
		op, _ := contractingOp(t, 48, 20+uint64(trial))
		res, err := Run(Config{
			Config:   runtime.Config{Op: op, Workers: 6, Tol: tol, MaxUpdatesPerWorker: 1 << 18},
			Topology: TopologyMesh,
			Timeout:  60 * time.Second,
			Fault:    Fault{DropProb: 0.1, ReorderProb: 0.3, Seed: uint64(trial)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		if r := operators.Residual(op, res.X); r > tol*4 {
			t.Fatalf("trial %d: quiescent with residual %.3e > tol %.1e", trial, r, tol)
		}
	}
}

// TestServeCancelled: Done ends a run that would otherwise only end at its
// Timeout — Serve returns a Cancelled result at once, its listener is
// closed, and the workers unwind with a lost-coordinator error instead of
// hanging.
func TestServeCancelled(t *testing.T) {
	op, _ := contractingOp(t, 16, 9)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	done := make(chan struct{})
	type out struct {
		res *Result
		err error
	}
	serveCh := make(chan out, 1)
	go func() {
		res, err := Serve(ln, Config{
			// No Tol: the run cannot converge, only be cancelled.
			Config:  runtime.Config{Op: op, Workers: p, MaxUpdatesPerWorker: 1 << 30, Done: done},
			Timeout: 2 * time.Minute,
		})
		serveCh <- out{res, err}
	}()
	workerCh := make(chan error, p)
	for w := 0; w < p; w++ {
		go func() { workerCh <- ConnectWorker(ln.Addr().String(), op, WorkerOptions{}) }()
	}
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	close(done)
	got := <-serveCh
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !got.res.Cancelled || got.res.Converged {
		t.Fatalf("cancelled=%v converged=%v, want a cancelled, unconverged result", got.res.Cancelled, got.res.Converged)
	}
	for w := 0; w < p; w++ {
		if err := <-workerCh; err == nil {
			t.Error("a worker of a cancelled run returned no error")
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel took %v to unwind coordinator and workers", elapsed)
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Error("listener still accepting after a cancelled run")
	}
}

// TestCancelWinsOverItsLosses: the hangup closes every link, so by the time
// the loop looks, the losses it caused may already be queued next to the
// cancellation. The loop must take the cancellation: a loss could otherwise
// fail a mesh rendezvous or settle the last final owed after stop, and the
// cancelled run would not report Cancelled.
func TestCancelWinsOverItsLosses(t *testing.T) {
	for range 32 { // the loop's select picks at random among ready cases
		hangup, cancel := context.WithCancel(context.Background())
		c := &coordinator{
			cfg:    Config{Config: runtime.Config{Workers: 1}},
			events: make(chan inbound, eventsPerWorker),
			hangup: hangup,
			timer:  time.NewTimer(time.Hour),
		}
		c.post(inbound{event: event{kind: evLost}})
		cancel()
		if ev := c.next(); ev.kind != evCancel {
			t.Fatalf("the loop took event %d, not the cancellation", ev.kind)
		}
	}

	// End to end: cancelled during a mesh rendezvous whose addresses never come.
	op, _ := contractingOp(t, 4, 3)
	done := make(chan struct{})
	addr, errCh, resCh := serveOne(t, Config{
		Config:   runtime.Config{Op: op, Workers: 2, Tol: 1e-9, Done: done},
		Topology: TopologyMesh,
		Timeout:  time.Minute,
	})
	joinScripted(t, addr)
	joinScripted(t, addr)
	close(done)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if res := <-resCh; !res.Cancelled || res.Converged {
		t.Errorf("cancelled=%v converged=%v, want a cancelled, unconverged result", res.Cancelled, res.Converged)
	}
}

// serveOne serves a one-worker run of cfg on a fresh listener and returns
// the listener's address and the channel Serve's outcome arrives on.
func serveOne(t *testing.T, cfg Config) (string, <-chan error, <-chan *Result) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh, resCh := make(chan error, 1), make(chan *Result, 1)
	go func() {
		res, err := Serve(ln, cfg)
		resCh <- res
		errCh <- err
	}()
	return ln.Addr().String(), errCh, resCh
}

// TestFinalLostAfterStopIsNotConverged: a worker severed right after stop
// never uploads its shard. Without heartbeats nothing was ever checkpointed,
// so the coordinator holds only x0 for that shard, and the run must not
// report it as a converged solve.
func TestFinalLostAfterStopIsNotConverged(t *testing.T) {
	op, _ := contractingOp(t, 8, 15)
	addr, errCh, resCh := serveOne(t, Config{
		Config:  runtime.Config{Op: op, Workers: 1, Tol: 1e-9},
		Timeout: time.Minute,
	})
	// A scripted worker: passive at every probe, gone at the stop.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write(buildFrame(msgHello, appendU32(nil, protocolVersion))); err != nil {
		t.Fatal(err)
	}
	for stopped := false; !stopped; {
		typ, payload, err := readFrame(conn, maxFramePayload)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case msgProbe:
			cur := cursor{b: payload}
			if _, err := conn.Write(appendStatusFrame(nil, status{probeID: cur.u64(), passive: true, gen: 1})); err != nil {
				t.Fatal(err)
			}
		case msgStop:
			conn.Close()
			stopped = true
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if res.Converged {
		t.Errorf("reported converged with the only shard at x0: X = %v", res.X)
	}
	if res.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", res.WorkersLost)
	}
}

// countingConn counts the bytes a scripted worker writes and reads.
type countingConn struct {
	net.Conn
	written, read int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written += int64(n)
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read += int64(n)
	return n, err
}

// TestControlPlaneBytesCounted: on star BytesReceived and BytesSent count
// the whole run from the coordinator's side, handshake included. A
// scripted one-worker run counts every byte it writes and reads until stop
// (and the final after it); the coordinator's counts must match exactly.
func TestControlPlaneBytesCounted(t *testing.T) {
	const n = 8
	op, _ := contractingOp(t, n, 15)
	addr, errCh, resCh := serveOne(t, Config{
		Config:  runtime.Config{Op: op, Workers: 1, Tol: 1e-9},
		Timeout: time.Minute,
	})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	conn := &countingConn{Conn: raw}
	if _, err := conn.Write(buildFrame(msgHello, appendU32(nil, protocolVersion))); err != nil {
		t.Fatal(err)
	}
	for stopped := false; !stopped; {
		typ, payload, err := readFrame(conn, maxFramePayload)
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case msgProbe:
			cur := cursor{b: payload}
			if _, err := conn.Write(appendStatusFrame(nil, status{probeID: cur.u64(), passive: true, gen: 1})); err != nil {
				t.Fatal(err)
			}
		case msgStop:
			if _, err := conn.Write(buildFinalFrame(final{lo: 0, vals: make([]float64, n)})); err != nil {
				t.Fatal(err)
			}
			stopped = true
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if res.BytesReceived != conn.written || res.BytesSent != conn.read {
		t.Errorf("coordinator counted %d bytes received, %d sent; the worker wrote %d, read %d",
			res.BytesReceived, res.BytesSent, conn.written, conn.read)
	}
}

// TestAllWorkersLostFailsPromptly: once every worker is lost the coordinator
// waits for a rejoiner only as long as one would retry (MaxRejoinWait), not
// until the run's Timeout. The one worker here fails on its own, on an
// operator of the wrong dimension.
func TestAllWorkersLostFailsPromptly(t *testing.T) {
	op, _ := contractingOp(t, 8, 16)
	wrong, _ := contractingOp(t, 9, 16)
	addr, errCh, _ := serveOne(t, Config{
		Config:  runtime.Config{Op: op, Workers: 1, Tol: 1e-9},
		Elastic: Elastic{MaxRejoinWait: 100 * time.Millisecond},
		Timeout: time.Minute,
	})
	start := time.Now()
	if err := ConnectWorker(addr, wrong, WorkerOptions{}); err == nil || linkLost(err) {
		t.Fatalf("worker error %v, want a failure of its own", err)
	}
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "all 1 workers lost") {
		t.Fatalf("Serve error %v, want every worker lost", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("Serve took %v to give up on a run with no workers left", elapsed)
	}
}

// TestHandshakeRefusesOtherVersion: a hello of the previous protocol
// version — a worker built before the welcome changed — is refused with an
// error naming both versions, and never takes a slot: with the run's only
// slot free after a loss, the stale worker's connection is closed unseated,
// and a current worker then rejoins into that slot and the run converges.
func TestHandshakeRefusesOtherVersion(t *testing.T) {
	srv, cli := tcpPair(t)
	go cli.Write(buildFrame(msgHello, appendU32(nil, protocolVersion-1)))
	want := fmt.Sprintf("protocol version %d, want %d", protocolVersion-1, protocolVersion)
	if err := new(coordinator).readHello(srv); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("readHello = %v, want an error naming %q", err, want)
	}

	op, xstar := contractingOp(t, 8, 17)
	addr, errCh, resCh := serveOne(t, Config{
		Config:  runtime.Config{Op: op, Workers: 1, Tol: 1e-9},
		Elastic: Elastic{MaxRejoinWait: 30 * time.Second},
		Timeout: time.Minute,
	})
	first, _ := joinScripted(t, addr)
	first.Close() // the run's only worker is lost; its slot is free
	stale, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	stale.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := stale.Write(buildFrame(msgHello, appendU32(nil, protocolVersion-1))); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(stale, maxFramePayload); err != io.EOF {
		t.Fatalf("stale worker read frame type %d, err %v; want its connection closed unseated", typ, err)
	}
	if err := ConnectWorker(addr, op, WorkerOptions{Rejoin: Rejoin{MaxWait: 30 * time.Second}}); err != nil {
		t.Fatalf("current worker: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	res := <-resCh
	if !res.Converged || res.WorkersRejoined != 1 {
		t.Fatalf("converged %v, %d rejoined; want the current worker seated in the free slot and converged",
			res.Converged, res.WorkersRejoined)
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-6 {
		t.Errorf("error %v", e)
	}
}
