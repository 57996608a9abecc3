package dist

// The data plane's steady state: frames are pooled buffers shared by
// reference, a leg's queue reuses its backing array, and the relay forwards
// what it read. These tests pin that nothing allocates per
// frame, that no buffer is released early or never, and that the bytes a
// destination reads are the ones the source encoded.

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	gort "runtime"
	"slices"
	"sync"
	"sync/atomic"
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
// solve the scheduler stretches allocates more, and a mesh solve's
// ~1,050 set-up allocations spread over 470-870 phases; the least of five
// solves is the figure. Each topology's bound is its measured figure plus
// a margin that a decode buffer per frame in applyBlock exceeds: star
// measured 0.51-0.58 (0.97-1.21 with that buffer), mesh 1.66-1.88
// (2.46-2.85).
func TestDataPlaneAllocsPerPhase(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("TCP solves in -short mode; allocation counts under -race")
	}
	op, _ := contractingOp(t, 64, 40)
	for _, tc := range []struct {
		topology string
		fault    Fault
		bound    float64
	}{
		{TopologyStar, Fault{DropProb: 0.05, ReorderProb: 0.05, MaxDelay: 200 * time.Microsecond, Seed: 3}, 0.75},
		{TopologyMesh, Fault{}, 2.2},
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
		for i := 0; i < 5; i++ {
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
		if least > tc.bound {
			t.Errorf("%s: %.2f allocations per phase, want at most %.1f", tc.topology, least, tc.bound)
		}
	}
}

// TestDelayedSendDoesNotAllocate: once warm, encoding a frame into a pooled
// buffer, sending it with a transit delay and writing it from the writer
// goroutine's timer allocates nothing.
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
		t.Errorf("send -> delayed write allocates %v per frame", avg)
	}
}

// TestFrameBuffersOwnedOnce runs both data planes with the frame audit on:
// every released buffer is overwritten with NaN bits, so one released while
// a leg's queue or a receiver still holds it corrupts the solve, and every
// buffer taken must be back by the time Run returns. Two runs hold almost
// every frame for a transit delay; a fault-free star run queues them on the
// uplinks' and the relay's legs due at once instead.
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
// newest-wins leg, so while the control link is stuck in a write the
// compute goroutine keeps going, and every broadcast overtaken before the
// writer takes it is discarded unwritten and charged p-1 times, the sends
// the worker counted for it. A reliable publish disposes of the waiting
// frame and is written; the frame it superseded never follows it. The
// status reply carries the uplink ledger's drain.
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
// frame held for that leg with a lower sequence number of the same
// generation can only ever be filtered, so serving the leg disposes of it
// at once, due or not: gone from the queue, one reordered and one drained
// in the generation, its buffer released. A frame of an older generation
// is dropped when its leg is served; a hold on another leg stays queued.
func TestSupersededHoldDisposedAtOnce(t *testing.T) {
	frameAudit.takes.Store(0)
	frameAudit.releases.Store(0)
	frameAudit.on.Store(true)
	defer frameAudit.on.Store(false)
	s := memSender(Fault{}, &memConn{}, &memConn{})
	s.led.enter(2)
	l1, l2 := s.legTo(1), s.legTo(2)
	later := time.Now().Add(time.Minute)
	superseded, otherLeg, olderGen := blockFrame(0, 1, 2, 0, 1), blockFrame(0, 1, 2, 0, 1), blockFrame(0, 1, 1, 0, 1)
	hand(s, l1, superseded, later)
	hand(s, l2, otherLeg, later)
	hand(s, l1, olderGen, later)
	deliver(s, l1, blockFrame(0, 5, 2, 0, 1))
	s.mu.Lock()
	left1, left2 := len(l1.queue), len(l2.queue)
	s.mu.Unlock()
	if left1 != 0 || left2 != 1 {
		t.Errorf("queued after the newer write: %d on its leg, %d on the other; want 0 and 1", left1, left2)
	}
	if got, drained, dropped := s.led.reordered.Load(), s.led.drained(), s.led.dropped.Load(); got != 1 || drained != 1 || dropped != 1 {
		t.Errorf("reordered %d, drained in the generation %d, dropped %d; want 1, 1 and 1", got, drained, dropped)
	}
	s.flush()
	if takes, releases := frameAudit.takes.Load(), frameAudit.releases.Load(); takes != 4 || releases != takes {
		t.Errorf("%d frame buffers taken, %d released; want 4 and 4", takes, releases)
	}
}

// TestServeWritesNewestDueOnly: frames that fell due together are served
// in one pass, which writes only the newest of them; the ones it overtook
// are disposed of as reordered, never written after it. A frame not yet due
// and newer than the one written stays queued.
func TestServeWritesNewestDueOnly(t *testing.T) {
	conn := &recConn{}
	s := newSender(0, 2, Fault{}, &ledger{gen: 1})
	l := &leg{link: &link{conn: conn}, q: 1}
	s.setLeg(1, l)
	now := time.Now()
	for seq := uint64(1); seq <= 3; seq++ {
		hand(s, l, blockFrame(0, seq, 1, 0, 1), now.Add(-time.Duration(seq)))
	}
	hand(s, l, blockFrame(0, 4, 1, 0, 1), now.Add(time.Minute))
	s.serve(l, now)
	s.mu.Lock()
	left := len(l.queue)
	s.mu.Unlock()
	if len(conn.written) != 1 || conn.written[0].seq != 3 || left != 1 {
		t.Errorf("wrote %v with %d left queued; want only sequence number 3, and 4 left", conn.written, left)
	}
	if got := s.led.reordered.Load(); got != 2 {
		t.Errorf("reordered = %d, want the 2 frames the written one overtook", got)
	}
	s.flush()
}

// returnsWithin fails the test unless f returns within a few seconds (or
// half the time left to the test's deadline, if that is sooner): a call
// blocked on a mutex some path forgot to release fails at once, not at the
// package's timeout.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	bound := 5 * time.Second
	if d, ok := t.Deadline(); ok {
		bound = min(bound, time.Until(d)/2)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(bound):
		t.Fatalf("%s did not return within %v", what, bound)
	}
}

// TestServeReleasesTheLeg: serve holds the leg's link mutex from the rule
// to the end of the write, and every way out of it releases that mutex: a
// leg with nothing due, served twice, then a leg with a due frame, served
// twice. A serve that kept the mutex would block the leg's next serve (the
// writer's next pass, a reliable send) for good.
func TestServeReleasesTheLeg(t *testing.T) {
	conn := &recConn{}
	s := newSender(0, 2, Fault{}, &ledger{gen: 1})
	defer s.flush()
	l := &leg{link: &link{conn: conn}, q: 1}
	s.setLeg(1, l)
	now := time.Now()
	returnsWithin(t, "serve of a leg with nothing due", func() { s.serve(l, now) })
	returnsWithin(t, "a second serve of a leg with nothing due", func() { s.serve(l, now) })
	hand(s, l, blockFrame(0, 1, 1, 0, 1), now)
	returnsWithin(t, "serve of a leg with a due frame", func() { s.serve(l, now) })
	returnsWithin(t, "serve after a write", func() { s.serve(l, now) })
	if len(conn.written) != 1 {
		t.Errorf("wrote %v, want the one due frame", conn.written)
	}
}

// TestMeshInboundLockReleased: mesh's accept loop and shutdown share inMu,
// and each releases it on every path. A peer dial the loop takes after
// teardown began loses the race cleanly: the loop closes the connection,
// spawns nothing and returns, and shutdown still takes inMu. After
// shutdown, a loop whose Accept returned just before the listener closed
// still takes inMu, sees inClosed and returns. inClosed is set by hand with
// the listener left open, so the dial takes exactly the late path.
func TestMeshInboundLockReleased(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := newMesh(0, 2, ln, Fault{}, 1, time.Now().Add(time.Minute))
	m.inClosed = true
	m.serveAccepts(func(net.Conn) { t.Error("a connection accepted after teardown was spawned") })
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	returnsWithin(t, "the accept loop, after a late accept", m.accepts.Wait)
	returnsWithin(t, "shutdown, after a late accept", m.shutdown)
	returnsWithin(t, "an accept that raced shutdown", func() {
		m.inMu.Lock()
		m.inMu.Unlock()
	})
}

// TestReplacedLegQueueDropped: replacing a leg (or removing it) drops every
// frame queued on it at once, charged to the ledger as drops; the new leg
// starts empty, and nothing queued on the old one is written anywhere.
func TestReplacedLegQueueDropped(t *testing.T) {
	old, fresh := &memConn{}, &memConn{}
	s := memSender(Fault{}, old)
	l := s.legTo(1)
	later := time.Now().Add(time.Minute)
	for seq := uint64(1); seq <= 3; seq++ {
		hand(s, l, blockFrame(0, seq, 1, 0, 1), later)
	}
	if prev := s.setLeg(1, &leg{link: &link{conn: fresh}, q: 1}); prev != l {
		t.Fatal("setLeg did not return the leg it replaced")
	}
	if got, drained := s.led.dropped.Load(), s.led.drained(); got != 3 || drained != 3 {
		t.Errorf("dropped %d, drained in the generation %d; want 3 and 3", got, drained)
	}
	s.mu.Lock()
	left := len(l.queue)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("%d frames left on the replaced leg", left)
	}
	s.flush()
	if old.writes.Load() != 0 || fresh.writes.Load() != 0 {
		t.Errorf("frames of the replaced leg written: %d old, %d new", old.writes.Load(), fresh.writes.Load())
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

// TestLegQueuesPooled: a leg takes its queue from queuePool and gives it
// back cleared when the leg leaves its sender. Over 50 faulty star solves
// (drops, reorder holds and transit delays), every other one cancelled
// mid-run so that legs still hold frames when they are flushed, as many
// queues come back as were taken, every frame buffer taken is released, and
// no queue taken from the pool still holds a frame.
func TestLegQueuesPooled(t *testing.T) {
	for _, c := range []*atomic.Int64{&frameAudit.takes, &frameAudit.releases, &frameAudit.queueTakes, &frameAudit.queueReturns, &frameAudit.queueFull} {
		c.Store(0)
	}
	frameAudit.on.Store(true)
	defer frameAudit.on.Store(false)
	op, xstar := contractingOp(t, 32, 7)
	cfg := Config{
		Config:  runtime.Config{Op: op, Workers: 4, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 18},
		Fault:   Fault{DropProb: 0.1, ReorderProb: 0.2, MaxDelay: time.Millisecond},
		Timeout: 20 * time.Second,
	}
	for i := range 50 {
		cfg.Fault.Seed, cfg.Tol, cfg.Done = uint64(i), 1e-9, nil
		if i%2 == 1 { // no tolerance: only the cancellation ends it
			done := make(chan struct{})
			time.AfterFunc(2*time.Millisecond, func() { close(done) })
			cfg.Tol, cfg.Done = 0, done
		}
		res, err := Run(cfg)
		switch {
		case err != nil:
			t.Fatalf("solve %d: %v", i, err)
		case cfg.Done != nil:
			if !res.Cancelled {
				t.Fatalf("solve %d was not cancelled", i)
			}
		case !res.Converged || vec.DistInf(res.X, xstar) > 1e-6:
			t.Fatalf("solve %d: converged %v, error %v", i, res.Converged, vec.DistInf(res.X, xstar))
		}
	}
	if q, r := frameAudit.queueTakes.Load(), frameAudit.queueReturns.Load(); q == 0 || q != r {
		t.Errorf("%d leg queues taken, %d returned", q, r)
	}
	if full := frameAudit.queueFull.Load(); full != 0 {
		t.Errorf("%d leg queues came out of the pool still holding a frame", full)
	}
	if takes, releases := frameAudit.takes.Load(), frameAudit.releases.Load(); takes != releases {
		t.Errorf("%d frame buffers taken, %d released", takes, releases)
	}
}

// TestSenderStreamReusedAcrossSenders: a faulty sender takes its stream from
// rngPool and reseeds it, so a sender draws exactly the decisions a freshly
// built stream of its seed and source would, whichever sender held the value
// before and wherever that one stopped drawing. flush returns the pooled
// value once, and never a stream a test put in its place.
func TestSenderStreamReusedAcrossSenders(t *testing.T) {
	const id = 2
	fault := Fault{DropProb: 0.2, ReorderProb: 0.3, MaxDelay: time.Millisecond, Seed: 41}
	draws := func(s *sender) (out [64]time.Duration) {
		for i := range out {
			drop, delay := s.fault.decide(s.rng, s.hold, i%5 == 0)
			if out[i] = delay; drop {
				out[i] = -1
			}
		}
		return out
	}
	want := draws(&sender{fault: fault, hold: 4 * fault.MaxDelay, rng: rand.New(rand.NewSource(linkRNGSeed(fault.Seed, id)))})
	other := fault
	other.Seed++
	reused := 0
	for range 20 {
		a := newSender(id+1, 4, other, &ledger{})
		draws(a)
		held := a.rng
		a.flush()
		b := newSender(id, 4, fault, &ledger{})
		if b.rng == held {
			reused++
		}
		if got := draws(b); got != want {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("decision %d: a sender on a pooled stream drew %v, a fresh stream %v", i, got[i], want[i])
		}
		b.flush()
	}
	if reused == 0 {
		t.Error("no sender took the stream its predecessor's flush returned")
	}

	replaced := newSender(id, 4, fault, &ledger{})
	own, script := replaced.rng, rand.New(rand.NewSource(1))
	replaced.rng = script
	twice := newSender(id, 4, fault, &ledger{})
	mine := twice.rng
	// With New unset, Get reports an empty pool: drain it, flush, and see
	// what came back.
	defer func(fn func() any) { rngPool.New = fn }(rngPool.New)
	rngPool.New = nil
	drain := func() (got []*rand.Rand) {
		for r := rngPool.Get(); r != nil; r = rngPool.Get() {
			got = append(got, r.(*rand.Rand))
		}
		return got
	}
	drain()
	replaced.flush()
	twice.flush()
	twice.flush()
	back := drain()
	if slices.Contains(back, script) || slices.Contains(back, own) {
		t.Error("a sender whose stream a test replaced put a stream in the pool")
	}
	if n := len(slices.DeleteFunc(back, func(r *rand.Rand) bool { return r != mine })); n > 1 {
		t.Errorf("two flushes put one stream in the pool %d times", n)
	}
}

// spinOp busy-spins for spin before evaluating each component of [lo, hi),
// so the worker owning that shard falls behind its peers.
type spinOp struct {
	operators.Operator
	lo, hi int
	spin   time.Duration
}

func (s spinOp) Component(i int, x []float64) float64 {
	if i >= s.lo && i < s.hi {
		for start := time.Now(); time.Since(start) < s.spin; {
		}
	}
	return s.Operator.Component(i, x)
}

// TestSmallInboxSlowWorker: one worker of four evaluates its shard slowly,
// so its peers outrun it and its readers block on its full inbox, which
// holds only 4p frames. Backpressure must not wedge the run: on either
// data plane the solve reaches its fixed point and leaves no goroutine
// behind.
func TestSmallInboxSlowWorker(t *testing.T) {
	dropIdleLinks()
	t.Cleanup(dropIdleLinks)
	const p, n, tol = 4, 64, 1e-10
	base, xstar := contractingOp(t, n, 5)
	shard := vec.Blocks(n, p)[0]
	op := spinOp{Operator: base, lo: shard[0], hi: shard[1], spin: 20 * time.Microsecond}
	for _, topo := range []string{TopologyStar, TopologyMesh} {
		before := gort.NumGoroutine()
		res, err := Run(Config{
			Config:   runtime.Config{Op: op, Workers: p, Tol: tol, MaxUpdatesPerWorker: 1 << 20},
			Topology: topo, Timeout: time.Minute,
		})
		if err != nil || !res.Converged {
			t.Fatalf("%s: converged %v, err %v", topo, res != nil && res.Converged, err)
		}
		if e := vec.DistInf(res.X, xstar); e > 1e-6 {
			t.Errorf("%s: error %.3e from the fixed point", topo, e)
		}
		leftNothingBehind(t, topo, before)
	}
}

// leftNothingBehind fails the test unless the goroutine count falls back to
// before: Run joins everything it starts, but goroutines it merely unblocked
// may need a moment to unwind.
func leftNothingBehind(t *testing.T, what string, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); gort.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if after := gort.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%s: %d goroutines before the solve, %d after:\n%s", what, before, after, buf[:gort.Stack(buf, true)])
	}
}

// BenchmarkSenderDelayedFanout: one frame fanned out to three legs with a
// transit delay each, written by the writer goroutine off its one timer.
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
// workload, a fresh fault seed per solve, and kept per-worker scratches as
// that workload keeps its repro.Scratch. rounds/op is the probe rounds the
// coordinator ran per solve.
func BenchmarkDistStarFaultySolve(b *testing.B) {
	reg, err := mldata.NewRegressionSharded(mldata.RegressionConfig{
		N: 256, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 1,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	f := reg.Smooth()
	cfg := Config{
		Config: runtime.Config{Op: operators.NewProxGradBF(f, prox.L1{Lambda: 0.02}, operators.MaxStep(f)), Workers: 4, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 20,
			Scratches: []*operators.Scratch{operators.NewScratch(), operators.NewScratch(), operators.NewScratch(), operators.NewScratch()}},
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
