package dist

// The data plane's steady state: frames are pooled buffers shared by
// reference, delayed deliveries re-arm the timers of pooled records, and the
// relay forwards what it read. These tests pin that nothing allocates per
// frame, that no buffer is released early or never, and that the bytes a
// destination reads are the ones the source encoded.

import (
	"bytes"
	"math"
	"net"
	gort "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mldata"
	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// raceEnabled is set by race_test.go: the allocation tests skip under the
// race detector.
var raceEnabled bool

// TestDataPlaneAllocsPerPhase: after a warm-up solve, a whole solve
// allocates at most a few objects per worker phase on either data plane —
// the run's set-up (listener, connections, goroutines, inboxes, RNG
// streams) and its probe rounds spread over its phases, with nothing left
// per frame. Probe rounds follow parks and a wall-clock backstop, so a
// solve the scheduler stretches allocates more; the least of three solves
// is the figure.
func TestDataPlaneAllocsPerPhase(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("TCP solves in -short mode; allocation counts under -race")
	}
	op, _ := contractingOp(t, 64, 40)
	for _, tc := range []struct {
		topology string
		fault    Fault
	}{
		{TopologyStar, Fault{DropProb: 0.05, ReorderProb: 0.05, MaxDelay: 200 * time.Microsecond, Seed: 3}},
		{TopologyMesh, Fault{}},
	} {
		cfg := Config{
			Config:   runtime.Config{Op: op, Workers: 4, Tol: 1e-13, MaxUpdatesPerWorker: 1 << 18},
			Topology: tc.topology,
			Fault:    tc.fault,
			Timeout:  60 * time.Second,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		least := math.Inf(1)
		for i := 0; i < 3; i++ {
			var before, after gort.MemStats
			gort.ReadMemStats(&before)
			res, err := Run(cfg)
			gort.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			phases := 0
			for _, u := range res.UpdatesPerWorker {
				phases += u
			}
			least = min(least, float64(after.Mallocs-before.Mallocs)/float64(phases))
		}
		t.Logf("%s: %.2f allocations per phase", tc.topology, least)
		if least > 4 {
			t.Errorf("%s: %.2f allocations per phase, want at most 4", tc.topology, least)
		}
	}
}

// TestDelayedSendDoesNotAllocate: once warm, encoding a frame into a pooled
// buffer, sending it with a transit delay and delivering it from the timer
// callback allocates nothing.
func TestDelayedSendDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race")
	}
	conn := &memConn{wrote: make(chan struct{}, 1)}
	s := memSender(Fault{MaxDelay: 20 * time.Microsecond, Seed: 1}, conn)
	defer s.flush()
	vals := []float64{1, 2, 3, 4}
	seq := uint64(0)
	sendOne := func() {
		seq++
		f := blockFrame(0, seq, 1, 0, vals...)
		s.send(f, false)
		f.release()
		<-conn.wrote
	}
	for i := 0; i < 16; i++ {
		sendOne()
	}
	if avg := testing.AllocsPerRun(200, sendOne); avg != 0 {
		t.Errorf("send -> delayed deliver allocates %v per frame", avg)
	}
}

// TestFrameBuffersOwnedOnce runs both data planes with the frame audit on:
// every released buffer is overwritten with NaN bits, so one released while
// a leg, a delay record or a receiver still reads it corrupts the solve, and
// every buffer taken must be back by the time Run returns. Two runs hold
// almost every frame in delay records; a fault-free star run sends them
// through the uplinks' and the relay's outboxes instead.
func TestFrameBuffersOwnedOnce(t *testing.T) {
	frameAudit.takes.Store(0)
	frameAudit.releases.Store(0)
	frameAudit.on.Store(true)
	defer frameAudit.on.Store(false)
	delayed := Fault{ReorderProb: 0.5, MaxDelay: 3 * time.Millisecond, Seed: 100}
	for _, tc := range []struct {
		name, topology string
		fault          Fault
	}{
		{"star", TopologyStar, delayed},
		{"mesh", TopologyMesh, delayed},
		{"star-undelayed", TopologyStar, Fault{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op, xstar := contractingOp(t, 16, 30)
			res, err := Run(Config{
				Config:   runtime.Config{Op: op, Workers: 4, Tol: 1e-8, MaxUpdatesPerWorker: 1 << 18},
				Topology: tc.topology,
				Timeout:  20 * time.Second,
				Fault:    tc.fault,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("run did not converge")
			}
			if e := vec.DistInf(res.X, xstar); e > 1e-6 {
				t.Errorf("error %v too large", e)
			}
			takes, releases := frameAudit.takes.Load(), frameAudit.releases.Load()
			if takes == 0 || takes != releases {
				t.Errorf("%d frame buffers taken, %d released", takes, releases)
			}
		})
	}
}

// TestRelayForwardsSourceBytes: a star destination reads exactly the bytes
// appendBlockFrame produced at the source, through the source's uplink and
// the relay, for a whole-shard broadcast and for a delta-threshold span.
func TestRelayForwardsSourceBytes(t *testing.T) {
	const n = 4
	op, _ := contractingOp(t, n, 3)
	done := make(chan struct{})
	addr, errCh, _ := serveOne(t, Config{
		Config:  runtime.Config{Op: op, Workers: 2, Tol: 1e-9, Done: done},
		Timeout: time.Minute,
	})
	defer func() {
		close(done)
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	}()
	cli0, _ := joinScripted(t, addr)
	cli1, _ := joinScripted(t, addr)

	ws := &workerState{
		id: 0, p: 2, n: n, lo: 0, hi: 2, gen: 1,
		deltaThreshold: 0.1,
		lastSent:       make([]float64, 2),
		snd:            newUplink(&link{conn: cli0}, 2, 1),
	}
	defer ws.snd.flush()
	for _, tc := range []struct {
		name  string
		shard []float64
		want  []byte
	}{
		{"whole shard", []float64{1, 2}, appendBlockFrame(nil, 0, 1, 0, 1, 0, []float64{1, 2})},
		{"delta span", []float64{1, 2.5}, appendBlockFrame(nil, 0, 2, 0, 1, 1, []float64{2.5})},
	} {
		ws.broadcast(tc.shard, 0)
		cli1.SetReadDeadline(time.Now().Add(10 * time.Second))
		var got []byte
		for got == nil || got[4] != msgBlock { // skip the coordinator's probes
			var err error
			if got, err = readFrameInto(cli1, maxFramePayload, nil); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: destination read % x, source encoded % x", tc.name, got, tc.want)
		}
	}
}

// gateConn holds every Write until gate is closed: a Write signals entered
// (skipping the signal while one is still unread), blocks on gate, then
// records a copy of the frame.
type gateConn struct {
	net.Conn
	entered, gate chan struct{}
	mu            sync.Mutex
	frames        [][]byte
}

func (c *gateConn) Write(b []byte) (int, error) {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	<-c.gate
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), b...))
	c.mu.Unlock()
	return len(b), nil
}

// TestStarUplinkSheds: a star worker publishes through its uplink's
// newest-wins outbox, so while the control link is stuck in a write the
// compute goroutine keeps going, and every broadcast overtaken before the
// writer takes it is discarded unwritten and charged p-1 times, the sends
// the worker counted for it. A reliable publish empties the outbox and is
// written; the frame it superseded never follows it. The status reply
// carries the uplink ledger's drain.
func TestStarUplinkSheds(t *testing.T) {
	const p, k = 4, 6
	conn := &gateConn{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	ws := &workerState{
		coord: &link{conn: conn},
		id:    1, p: p, n: 8, lo: 2, hi: 4, gen: 1,
		lastSent: make([]float64, 2),
	}
	ws.snd = newUplink(ws.coord, p, ws.gen)
	defer ws.snd.flush()
	led := ws.snd.led
	for i := 1; i <= k; i++ {
		ws.Publish([]float64{float64(i), 0}, false)
		if i == 1 {
			<-conn.entered // the writer is stuck writing frame 1
		}
	}
	shed := int64((k - 2) * (p - 1)) // frames 2 .. k-1
	if got := led.reordered.Load(); got != shed {
		t.Errorf("reordered = %d, want %d", got, shed)
	}
	if got := led.drained(); got != shed {
		t.Errorf("drained in the generation = %d, want %d", got, shed)
	}

	// Frame k is still waiting: the reliable publish supersedes it, then
	// waits for the link the writer holds.
	published := make(chan struct{})
	go func() {
		ws.Publish([]float64{9, 9}, true)
		close(published)
	}()
	for deadline := time.Now().Add(10 * time.Second); led.reordered.Load() != shed+p-1; gort.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the reliable publish did not supersede the waiting frame")
		}
	}
	close(conn.gate)
	<-published
	probe := getFrame()
	probe.b = append(probe.b, buildFrame(msgProbe, appendU64(nil, 7))...)
	if err := ws.handle(probe); err != nil {
		t.Fatal(err)
	}
	ws.snd.flush()

	var seqs []uint64
	var st status
	for _, b := range conn.frames {
		switch b[4] {
		case msgBlock:
			h, _ := decodeBlock(b[frameHeaderLen:])
			seqs = append(seqs, h.seq)
		case msgStatus:
			var err error
			if st, err = decodeStatus(b[frameHeaderLen:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != k+1 {
		t.Errorf("written block sequence numbers %v, want [1 %d]", seqs, k+1)
	}
	if want := shed + p - 1; st.drained != uint64(want) || led.drained() != want {
		t.Errorf("status drained %d, ledger %d, want %d", st.drained, led.drained(), want)
	}
	if want := uint64((k + 1) * (p - 1)); st.sent != want || ws.sent != want {
		t.Errorf("status sent %d, worker sent %d, want %d", st.sent, ws.sent, want)
	}
}

// TestSupersededHoldDisposedAtOnce: once a frame is written on a leg, a
// delivery held for that leg with a lower sequence number of the same
// generation can only ever be filtered, so the sender disposes of it at
// once: gone from pending, one reordered and one drained in the
// generation, its buffer released. A hold on another leg, or from an older
// generation, stays for its timer.
func TestSupersededHoldDisposedAtOnce(t *testing.T) {
	frameAudit.takes.Store(0)
	frameAudit.releases.Store(0)
	frameAudit.on.Store(true)
	defer frameAudit.on.Store(false)
	s := memSender(Fault{MaxDelay: time.Microsecond, Seed: 1}, &memConn{}, &memConn{})
	s.led.enter(2)
	l1, l2 := s.out[1].Load(), s.out[2].Load()
	superseded, otherLeg, olderGen := blockFrame(0, 1, 2, 0, 1), blockFrame(0, 1, 2, 0, 1), blockFrame(0, 1, 1, 0, 1)
	for _, h := range []struct {
		l *leg
		f *frameBuf
	}{{l1, superseded}, {l2, otherLeg}, {l1, olderGen}} {
		if !s.later(time.Minute, h.l, h.f) {
			t.Fatal("later refused before drain")
		}
	}
	s.deliver(l1, blockFrame(0, 5, 2, 0, 1))
	held := map[*frameBuf]bool{}
	s.delays.mu.Lock()
	for _, r := range s.delays.pending {
		held[r.f] = true
	}
	s.delays.mu.Unlock()
	if len(held) != 2 || held[superseded] || !held[otherLeg] || !held[olderGen] {
		t.Errorf("pending after the newer write: superseded %v, other leg %v, older generation %v; want only the last two",
			held[superseded], held[otherLeg], held[olderGen])
	}
	if got, drained := s.led.reordered.Load(), s.led.drained(); got != 1 || drained != 1 {
		t.Errorf("reordered %d, drained in the generation %d; want 1 and 1", got, drained)
	}
	s.flush()
	if takes, releases := frameAudit.takes.Load(), frameAudit.releases.Load(); takes != 4 || releases != takes {
		t.Errorf("%d frame buffers taken, %d released; want 4 and 4", takes, releases)
	}
}

// TestZeroFaultSenderHoldsNoStream: decide draws nothing when Fault injects
// nothing, so such a sender (every uplink, every fault-free mesh sender)
// builds no RNG stream; any knob that draws makes it build one.
func TestZeroFaultSenderHoldsNoStream(t *testing.T) {
	for _, tc := range []struct {
		fault Fault
		want  bool
	}{
		{Fault{Seed: 7}, false},
		{Fault{DropProb: 0.1}, true},
		{Fault{ReorderProb: 0.1}, true},
		{Fault{MaxDelay: time.Microsecond}, true},
	} {
		s := newSender(0, 2, tc.fault, &ledger{})
		if got := s.rng != nil; got != tc.want {
			t.Errorf("%+v: holds a stream = %v, want %v", tc.fault, got, tc.want)
		}
		s.flush()
	}
	up := newUplink(&link{}, 4, 1)
	defer up.flush()
	if up.rng != nil {
		t.Error("an uplink holds a fault stream")
	}
}

// BenchmarkSenderDelayedFanout: one frame fanned out to three legs, each
// delivered from its own delay timer.
func BenchmarkSenderDelayedFanout(b *testing.B) {
	conns := []*memConn{{wrote: make(chan struct{}, 1)}, {wrote: make(chan struct{}, 1)}, {wrote: make(chan struct{}, 1)}}
	s := memSender(Fault{MaxDelay: 20 * time.Microsecond, Seed: 1}, conns...)
	defer s.flush()
	vals := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := blockFrame(0, uint64(i+1), 1, 0, vals...)
		s.send(f, false)
		f.release()
		for _, c := range conns {
			<-c.wrote
		}
	}
}

// BenchmarkDistStarFaultySolve is the probe-round termination layer on its
// own: one whole 4-worker star solve of lasso n=256 over localhost TCP
// with the faults and heartbeats of the dist-star-faulty benchmark
// workload, a fresh fault seed per solve. rounds/op is the probe rounds
// the coordinator ran per solve.
func BenchmarkDistStarFaultySolve(b *testing.B) {
	reg, err := mldata.NewRegressionSharded(mldata.RegressionConfig{
		N: 256, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 1,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := reg.Smooth()
	cfg := Config{
		Config:  runtime.Config{Op: operators.NewProxGradBF(f, prox.L1{Lambda: 0.02}, operators.MaxStep(f)), Workers: 4, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 20},
		Fault:   Fault{DropProb: 0.05, ReorderProb: 0.05, MaxDelay: 200 * time.Microsecond},
		Elastic: Elastic{HeartbeatEvery: 10 * time.Millisecond},
		Timeout: time.Minute,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		cfg.Fault.Seed = uint64(i)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("solve did not converge")
		}
		rounds += res.ProbeRounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
