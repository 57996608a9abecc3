package dist

// The data plane's steady state: frames are pooled buffers shared by
// reference, delayed deliveries re-arm the timers of pooled records, and the
// relay forwards what it read. These tests pin that nothing allocates per
// frame, that no buffer is released early or never, and that the bytes a
// destination reads are the ones the source encoded.

import (
	"bytes"
	"math"
	gort "runtime"
	"testing"
	"time"

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
// per frame. Probe rounds come at a fixed wall-clock pace, so a solve the
// scheduler stretches allocates more; the least of three solves is the
// figure.
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
// through the relay's outboxes instead.
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
// appendBlockFrame produced at the source, for a whole-shard broadcast and
// for a delta-threshold span.
func TestRelayForwardsSourceBytes(t *testing.T) {
	const n = 4
	srv0, cli0 := tcpPair(t)
	srv1, cli1 := tcpPair(t)
	c := &coordinator{
		cfg: Config{Config: runtime.Config{Workers: 2}, Topology: TopologyStar},
		n:   n, links: []*link{{conn: srv0}, {conn: srv1}},
		senders:   make([]*sender, 2),
		linkBytes: [][]int64{make([]int64, 2), make([]int64, 2)},
		blocks:    vec.Blocks(n, 2),
		gen:       1,
		led:       ledger{gen: 1},
		errCh:     make(chan error, 2),
	}
	for w := range c.links {
		c.senders[w] = c.newRelay(w)
	}
	c.readers.Add(2)
	for w := range c.links {
		go c.serveLink(w, c.links[w], c.senders[w])
	}
	defer func() {
		c.closeLinks()
		c.readers.Wait()
	}()

	ws := &workerState{
		conn: cli0, id: 0, p: 2, n: n, lo: 0, hi: 2, gen: 1,
		deltaThreshold: 0.1,
		lastSent:       make([]float64, 2),
	}
	for _, tc := range []struct {
		name  string
		shard []float64
		want  []byte
	}{
		{"whole shard", []float64{1, 2}, appendBlockFrame(nil, 0, 1, 0, 1, 0, []float64{1, 2})},
		{"delta span", []float64{1, 2.5}, appendBlockFrame(nil, 0, 2, 0, 1, 1, []float64{2.5})},
	} {
		if err := ws.broadcast(tc.shard, 0); err != nil {
			t.Fatal(err)
		}
		cli1.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, err := readFrameInto(cli1, maxFramePayload, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s: destination read % x, source encoded % x", tc.name, got, tc.want)
		}
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
