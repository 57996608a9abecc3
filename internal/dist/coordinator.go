package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/operators"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// probeInterval paces the coordinator's termination probe rounds.
const probeInterval = 500 * time.Microsecond

// probeRoundTimeout bounds one probe round (and one reshard-barrier ack
// collection); a worker that cannot answer in time simply fails the round
// (it is retried), it does not fail the run.
const probeRoundTimeout = 2 * time.Second

type reshardAck struct {
	worker int
	gen    uint32
	lo     int
	vals   []float64
}

type coordinator struct {
	cfg Config
	n   int // problem dimension
	ln  net.Listener

	// mu guards the membership view: the slots' links (nil at a dead slot),
	// relay senders, mesh addresses, shard table, generation, the churn
	// counters and the data-plane byte matrix. Fixed slot count
	// (cfg.Workers); a lost slot is freed for a rejoiner to claim.
	mu    sync.RWMutex
	links []*link
	// senders[w], in the star topology, relays the frames read off link w:
	// its legs write to the other slots' links (sharing each link's write
	// mutex with the probe, stop, reshard and assign frames). One per link
	// incarnation; the link's reader is its only caller of send and flushes
	// it on the way out, folding its byte counters into linkBytes.
	senders   []*sender
	linkBytes [][]int64
	reserved  []bool // slot handed to a rejoin handshake in progress
	addrs     []string
	blocks    [][2]int
	gen       uint32
	// workersLost / workersRejoined / resharding are the churn counters
	// surfaced in Result.
	workersLost, workersRejoined, resharding int64

	// led is the drain ledger every relay sender accounts into: what the
	// relay disposed of without delivering, cumulative for the final report
	// and per generation for the probes.
	led               ledger
	bytesOut, bytesIn atomic.Int64

	// xmu guards xbest, the coordinator's best-known iterate: x0 overlaid
	// with every checkpoint and reshard ack absorbed so far. It seeds
	// rejoiner welcomes, re-shard assigns, the shards of workers lost
	// after stop, and the on-disk checkpoint.
	xmu           sync.Mutex
	xbest         []float64
	lastCkptWrite time.Time

	stopped atomic.Bool
	// diverged is the first worker-reported NaN. It is the run's outcome
	// whatever else the run loop was doing when it arrived: Serve's epilogue
	// returns it in place of any result or lesser error.
	diverged atomic.Pointer[operators.DivergedError]
	statusCh chan status
	ackCh    chan reshardAck
	finalCh  chan final
	errCh    chan error
	// membership is the doorbell rung by workerLost and handleRejoin; the
	// run loop answers it with a reshard barrier.
	membership chan struct{}
	acceptWG   sync.WaitGroup
	readers    sync.WaitGroup // the serveLink goroutines

	// probeSeq numbers probe rounds so stale replies from an earlier round
	// are recognized and dropped. Only the probing loop touches it, and a
	// counter (unlike a clock reading) keeps coordinator behavior
	// bit-reproducible across runs.
	probeSeq uint64

	runDeadline time.Time
}

// cancelled reports whether cfg.Done has fired.
func (c *coordinator) cancelled() bool {
	select {
	case <-c.cfg.Done:
		return true
	default:
		return false
	}
}

// Serve runs the coordinator on ln, which it closes when the run ends (the
// listener stays open for the whole run so lost workers can rejoin): accept
// and welcome cfg.Workers workers, run the
// topology's rendezvous (mesh: collect listen addresses, broadcast the peer
// table), relay star shard broadcasts with fault injection, probe for
// quiescence with the two-phase double collect, and stop the run — on
// quiescence (converged when every worker was passive, not converged when
// some had spent their budget), on cfg.Done (Cancelled), or at Timeout
// (error). A worker whose link fails (or, with heartbeats, falls silent) is
// lost: the component space is re-sharded over the survivors, and
// rejoining workers are accepted on the same listener for the whole run. Of
// cfg.Op it reads only the dimension: coordinates cross the wire, operators
// never do.
func Serve(ln net.Listener, cfg Config) (res *Result, err error) {
	defer ln.Close()
	n, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	x0 := cfg.X0
	if cfg.Elastic.CheckpointPath != "" {
		// A coordinator-level restart warm-starts from the last persisted
		// iterate; a missing file is simply a fresh run.
		ck, err := readCheckpointFile(cfg.Elastic.CheckpointPath, n)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			x0 = ck
		}
	}

	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	c := &coordinator{
		cfg:         cfg,
		n:           n,
		ln:          ln,
		links:       make([]*link, cfg.Workers),
		senders:     make([]*sender, cfg.Workers),
		linkBytes:   make([][]int64, cfg.Workers),
		reserved:    make([]bool, cfg.Workers),
		addrs:       make([]string, cfg.Workers),
		blocks:      vec.Blocks(n, cfg.Workers),
		gen:         1,
		led:         ledger{gen: 1},
		xbest:       append([]float64(nil), x0...),
		statusCh:    make(chan status, 4*cfg.Workers),
		ackCh:       make(chan reshardAck, 4*cfg.Workers),
		finalCh:     make(chan final, 2*cfg.Workers),
		errCh:       make(chan error, cfg.Workers),
		membership:  make(chan struct{}, 1),
		runDeadline: deadline,
	}
	for w := range c.linkBytes {
		c.linkBytes[w] = make([]int64, cfg.Workers)
	}
	defer c.shutdown() // idempotent; the result path runs it early, to read final counters
	defer func() {
		if de := c.diverged.Load(); de != nil {
			res, err = nil, de
		}
	}()

	// Accept and welcome every worker.
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(deadline)
	}
	for w := 0; w < cfg.Workers; w++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("dist: accept worker %d: %w", w, err)
		}
		// An absolute I/O deadline guarantees no read or write on this
		// link can outlive the run's Timeout — a stalled worker (full TCP
		// buffers, paused process) surfaces as a deadline error instead of
		// hanging Serve inside a blocking conn.Write. The grace period
		// covers the post-deadline stop/final exchange.
		conn.SetDeadline(deadline.Add(cfg.Timeout))
		c.links[w] = &link{conn: conn}
		if err := readHello(conn); err != nil {
			return nil, fmt.Errorf("dist: worker %d %w", w, err)
		}
		wel := c.welcome(w, c.blocks[w][0], c.blocks[w][1], 1, false, x0)
		if err := c.writeLink(c.links[w], wel); err != nil {
			return nil, fmt.Errorf("dist: welcome worker %d: %w", w, err)
		}
	}

	// The data plane. Mesh rendezvous: collect every worker's listen
	// address, then hand each worker the full peer table — every listener is
	// up before any worker learns a peer address, so no dial can race a
	// missing listener. Star: one relay sender per source link.
	if cfg.Topology == TopologyMesh {
		for w := range c.links {
			if c.addrs[w], err = readMeshAddr(c.links[w].conn); err != nil {
				return nil, fmt.Errorf("dist: worker %d %w", w, err)
			}
		}
		frame := buildFrame(msgPeers, appendPeers(nil, c.addrs))
		for w := range c.links {
			if err := c.writeLink(c.links[w], frame); err != nil {
				return nil, fmt.Errorf("dist: peer table to worker %d: %w", w, err)
			}
		}
	} else {
		for w := range c.links {
			c.senders[w] = c.newRelay(w)
		}
	}

	c.readers.Add(cfg.Workers)
	for w := range c.links {
		go c.serveLink(w, c.links[w], c.senders[w])
	}

	// Cancellation. The caller of a cancelled run discards the trajectory,
	// so nothing is owed the stop/final exchange — which links saturated by
	// workers that never converge could stall behind wedged relay writes.
	// Done therefore closes every link at once: blocked writes fail, the
	// workers see a lost coordinator and unwind, whatever the run loop was
	// doing ends, and the epilogue turns that ending into a Cancelled
	// result carrying the best-known iterate.
	if cfg.Done != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-cfg.Done:
				c.stopped.Store(true)
				c.closeLinks()
			case <-finished:
			}
		}()
		defer func() {
			if c.cancelled() && (res == nil || !res.Converged) {
				res, err = &Result{
					Result:   runtime.Result{X: c.bestIterate(), Elapsed: time.Since(start), Cancelled: true},
					Topology: cfg.Topology,
				}, nil
			}
		}()
	}
	c.acceptWG.Add(1)
	// Joined by acceptWG.Wait in shutdown, after the listener closes.
	go c.acceptRejoins()

	// Probe for quiescence until it is detected, the run is cancelled, or
	// the deadline passes. A membership doorbell (worker lost or rejoined)
	// interrupts the cadence and is answered with a reshard barrier before
	// any further certification is attempted.
	converged := false
	timedOut := true // cleared when the loop ends for a legitimate reason
	var probeRounds int64
	var last runtime.Observation
	observe := func() runtime.Observation {
		probeRounds++
		last = c.probeRound(deadline)
		return last
	}
	for time.Now().Before(deadline) {
		if c.diverged.Load() != nil {
			return nil, nil // the epilogue above supplies the error
		}
		select {
		case <-c.membership:
			if err := c.reshardBarrier(deadline); err != nil {
				return nil, err
			}
			continue
		default:
		}
		// A loss detected during the certifying collects makes every
		// involved probe round invalid, so a doorbell pending after them
		// means the quiescence predates the change: re-shard first.
		if runtime.DoubleCollect(observe, nil) && len(c.membership) == 0 {
			// Every worker is parked with nothing in flight: converged
			// unless one of them ran out of budget on unverified data.
			converged = !last.Exhausted
			timedOut = false
			break
		}
		select {
		case err := <-c.errCh:
			return nil, err
		case <-c.membership:
			c.ringMembership() // answered at the head of the loop
		case <-cfg.Done:
			return nil, nil // the cancellation epilogue builds the result
		case <-time.After(probeInterval):
		}
	}

	// Stop the run and collect the authoritative final shards from the
	// workers alive at stop. A shard whose final never arrives (its worker
	// was lost after the certifying collects) keeps the best-known values in
	// x, which the certification says nothing about: the run then does not
	// report convergence.
	c.stopped.Store(true)
	stopFrame := buildFrame(msgStop, nil)
	c.mu.RLock()
	targets := append([]*link(nil), c.links...)
	c.mu.RUnlock()
	expect := make([]bool, cfg.Workers)
	expected := 0
	for w, l := range targets {
		if l == nil {
			continue
		}
		if err := c.writeLink(l, stopFrame); err != nil {
			// The worker died at the finish line; its serveLink will
			// synthesize a lost final we are not waiting for.
			l.conn.Close()
			continue
		}
		expect[w] = true
		expected++
	}
	x := c.bestIterate()
	updates := make([]int, cfg.Workers)
	finals := make([]bool, cfg.Workers) // slots whose real final arrived
	var sent, delivered, stale int64
	finalDeadline := time.Now().Add(cfg.Timeout)
	for got := 0; got < expected; {
		select {
		case f := <-c.finalCh:
			if !expect[f.worker] {
				continue // a lost final from a slot nobody waits for
			}
			expect[f.worker] = false
			got++
			if f.lost {
				continue // shard stays at the best-known values in x
			}
			finals[f.worker] = true
			copy(x[f.lo:f.lo+len(f.vals)], f.vals)
			updates[f.worker] = f.updates
			sent += int64(f.sent)
			delivered += int64(f.delivered)
			stale += int64(f.stale)
			// What a mesh worker's own sender disposed of and shipped.
			c.led.dropped.Add(int64(f.dropped))
			c.led.reordered.Add(int64(f.reordered))
			c.led.duplicate.Add(int64(f.duplicate))
			c.addLinkBytes(f.worker, f.linkBytes)
		case err := <-c.errCh:
			return nil, err
		case <-cfg.Done:
			return nil, nil // the cancellation epilogue builds the result
		case <-time.After(time.Until(finalDeadline)):
			return nil, errors.New("dist: timed out waiting for final blocks")
		}
	}
	c.shutdown()

	if timedOut {
		return nil, fmt.Errorf("dist: run exceeded timeout %v without quiescence or budget exhaustion", cfg.Timeout)
	}
	// Every goroutine that shared the coordinator's state has been joined.
	for w, b := range c.blocks {
		if b[1] > b[0] && !finals[w] {
			converged = false
		}
	}
	return &Result{
		Result: runtime.Result{
			X:                x,
			Converged:        converged,
			UpdatesPerWorker: updates,
			Elapsed:          time.Since(start),
			MessagesSent:     sent,
			MessagesDropped:  c.led.dropped.Load(),
		},
		Topology:          cfg.Topology,
		MessagesDelivered: delivered,
		MessagesStale:     stale,
		MessagesReordered: c.led.reordered.Load(),
		MessagesDuplicate: c.led.duplicate.Load(),
		BytesSent:         c.bytesOut.Load(),
		BytesReceived:     c.bytesIn.Load(),
		LinkBytes:         c.linkBytes,
		ProbeRounds:       probeRounds,
		WorkersLost:       c.workersLost,
		WorkersRejoined:   c.workersRejoined,
		Resharding:        c.resharding,
	}, nil
}

// welcome builds one welcome frame for slot w: shard [lo, hi), membership
// generation gen, and the iterate x (x0 for the rendezvous, the
// checkpointed xbest for a rejoiner, whose shard is empty until its first
// assign).
func (c *coordinator) welcome(w, lo, hi int, gen uint32, rejoining bool, x []float64) []byte {
	wel := welcome{id: w, n: c.n, lo: lo, hi: hi, gen: gen, rejoining: rejoining, cfg: c.cfg}
	wel.cfg.X0 = x
	return wel.frame()
}

// shutdown tears the coordinator down: mark the run stopped (relay write
// failures stop mattering), stop accepting rejoiners, close the worker
// connections, and join the link readers — each flushes its relay sender on
// the way out (pending delayed relays cancelled, callbacks already firing
// waited out, outboxes emptied), so when shutdown returns nothing is left to
// write and the ledger and byte counters are final.
func (c *coordinator) shutdown() {
	c.stopped.Store(true)
	c.ln.Close()
	c.acceptWG.Wait()
	c.closeLinks()
	c.readers.Wait()
}

// bestIterate returns a copy of the best-known iterate.
func (c *coordinator) bestIterate() []float64 {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	return append([]float64(nil), c.xbest...)
}

func (c *coordinator) closeLinks() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, l := range c.links {
		if l != nil {
			l.conn.Close()
		}
	}
}

// fail reports an error to the run loop without ever blocking: the single
// drain reads one error, and every further failure racing it (multiple
// link goroutines dying together at teardown) is dropped rather than
// wedging its goroutine on the channel send.
func (c *coordinator) fail(err error) {
	select {
	case c.errCh <- err:
	default:
	}
}

// writeLink sends one control frame on a link.
func (c *coordinator) writeLink(l *link, frame []byte) error {
	err := l.write(frame)
	if err == nil {
		c.bytesOut.Add(int64(len(frame)))
	}
	return err
}

// addLinkBytes folds one source's per-destination data-plane byte counters
// into the run's matrix.
func (c *coordinator) addLinkBytes(from int, to []uint64) {
	c.mu.Lock()
	for q, b := range to {
		c.linkBytes[from][q] += int64(b)
	}
	c.mu.Unlock()
}

// newRelay builds the sender that relays slot w's frames, with a leg onto
// the link of every other live slot. The caller holds mu, or runs before any
// goroutine shares the membership.
func (c *coordinator) newRelay(w int) *sender {
	s := newSender(w, c.cfg.Workers, c.cfg.Fault, &c.led)
	s.writeFailed = c.relayFailed
	for q, l := range c.links {
		if q != w && l != nil {
			s.setLeg(q, &leg{link: l, q: q})
		}
	}
	return s
}

// relayFailed is the relay's policy for a failed write to a destination
// (the lost frame is already accounted as a drop, which keeps in-flight
// drainable): the destination is lost, except once the run is stopping — a
// lost final synthesized from here could beat the worker's real one. (One-
// directional stalls exist: the destination's reader may still be healthy.)
func (c *coordinator) relayFailed(l *leg) {
	if !c.stopped.Load() {
		c.workerLost(l.q, l.link)
	}
}

// lostFinal synthesizes the final of a worker whose link died after stop,
// so the collection loop is never wedged on a shard that will not arrive;
// the shard keeps its best-known values and the run is not converged.
func (c *coordinator) lostFinal(w int) {
	select {
	case c.finalCh <- final{worker: w, lost: true}:
	default:
	}
}

// workerLost removes one worker from the membership (idempotently — the
// link pointer identifies the incarnation, so a stale loss report for a
// slot a rejoiner has since claimed is a no-op), takes the leg to it out of
// every relay, closes its conn, and rings the membership doorbell. After
// stop it synthesizes a lost final instead: the membership no longer
// matters, only the finals collection does.
func (c *coordinator) workerLost(w int, l *link) {
	c.mu.Lock()
	if c.links[w] != l {
		c.mu.Unlock()
		return
	}
	c.links[w] = nil
	c.addrs[w] = ""
	c.workersLost++
	// No relay writes to the dead slot any more; its own relay stays with
	// its reader, which flushes it on the way out.
	c.senders[w] = nil
	for _, s := range c.senders {
		if s != nil {
			s.setLeg(w, nil)
		}
	}
	c.mu.Unlock()
	l.conn.Close()
	if c.stopped.Load() {
		c.lostFinal(w)
		return
	}
	c.ringMembership()
}

// ringMembership rings the doorbell the run loop answers with a reshard
// barrier; rings coalesce.
func (c *coordinator) ringMembership() {
	select {
	case c.membership <- struct{}{}:
	default:
	}
}

// inShard reports whether a non-empty [lo, lo+count) lies inside shard — all a
// worker's checkpoint or final may cover; a lying peer must not overwrite
// another slot's components. An empty slice (a rejoiner not yet assigned)
// touches nothing and passes.
func inShard(shard [2]int, lo, count int) bool {
	return count == 0 || (lo >= shard[0] && lo+count <= shard[1])
}

// absorbCheckpoint folds a current-generation shard checkpoint into xbest
// and, when a checkpoint path is configured, persists the merged iterate at
// most once per CheckpointEvery (best-effort: a failed disk write never
// fails the run).
func (c *coordinator) absorbCheckpoint(w int, payload []byte) error {
	gen, lo, vals, err := decodeShard(payload, c.n)
	if err != nil {
		return fmt.Errorf("dist: worker %d sent a malformed checkpoint frame", w)
	}
	c.mu.RLock()
	current := gen == c.gen && c.links[w] != nil
	shard := c.blocks[w]
	c.mu.RUnlock()
	if !current {
		return nil // a checkpoint from before a re-shard: shard bounds are stale
	}
	if !inShard(shard, lo, len(vals)) {
		return fmt.Errorf("dist: worker %d sent a malformed checkpoint frame", w)
	}
	var snapshot []float64
	c.xmu.Lock()
	copy(c.xbest[lo:], vals)
	if c.cfg.Elastic.CheckpointPath != "" && time.Since(c.lastCkptWrite) >= c.cfg.Elastic.CheckpointEvery {
		c.lastCkptWrite = time.Now()
		snapshot = append([]float64(nil), c.xbest...)
	}
	c.xmu.Unlock()
	if snapshot != nil {
		_ = writeCheckpointFile(c.cfg.Elastic.CheckpointPath, snapshot)
	}
	return nil
}

// serveLink reads one worker's frames, each into a pooled buffer: star shard
// broadcasts go out through the link's relay sender snd (nil on mesh, whose
// control plane carries no data) as they were read, statuses, reshard acks
// and finals are routed to the termination logic, checkpoints into xbest.
// A failed read loses the worker; with heartbeats on, every read carries the
// silence deadline, so a link quiet past it is lost too. This goroutine is
// snd's only sender, so it is also the one that flushes it, on every way
// out.
func (c *coordinator) serveLink(w int, l *link, snd *sender) {
	defer c.readers.Done()
	if snd != nil {
		defer func() {
			snd.flush()
			to := snd.linkBytes()
			c.addLinkBytes(w, to)
			for _, b := range to {
				c.bytesOut.Add(int64(b))
			}
		}()
	}
	conn := l.conn
	silence := c.cfg.Elastic.silence()
	f := getFrame() // the frame in hand, released on every way out
	defer func() { f.release() }()
	for {
		if silence > 0 {
			conn.SetReadDeadline(time.Now().Add(silence))
		}
		b, err := readFrameInto(conn, maxFramePayload, f.b)
		if err != nil {
			c.workerLost(w, l)
			return
		}
		f.b = b
		payload := f.b[frameHeaderLen:]
		c.bytesIn.Add(int64(len(f.b)))
		switch f.typ() {
		case msgHeartbeat:
			// Liveness only: arriving is the whole message.
		case msgBlock:
			if snd == nil {
				c.fail(fmt.Errorf("dist: worker %d sent a data-plane frame on the mesh control plane", w))
				return
			}
			h, cur := decodeBlock(payload)
			if cur.err != nil || h.from != w {
				c.fail(fmt.Errorf("dist: worker %d sent a malformed block frame", w))
				return
			}
			if c.stopped.Load() {
				// The worker counted p-1 sends for this broadcast; none
				// will be relayed now that the run is stopping.
				c.led.dropped.Add(int64(c.cfg.Workers - 1))
				break
			}
			f.seq, f.gen = h.seq, h.gen
			snd.send(f, h.flags&blockReliable != 0)
		case msgStatus:
			st, err := decodeStatus(payload)
			if err != nil {
				c.fail(fmt.Errorf("dist: worker %d sent a malformed status frame", w))
				return
			}
			st.worker = w
			select {
			case c.statusCh <- st:
			default: // stale round backlog; the prober discards by id anyway
			}
		case msgCheckpoint:
			if err := c.absorbCheckpoint(w, payload); err != nil {
				c.fail(err)
				return
			}
		case msgReshardAck:
			gen, lo, vals, err := decodeShard(payload, c.n)
			if err != nil {
				c.fail(fmt.Errorf("dist: worker %d sent a malformed reshard ack", w))
				return
			}
			a := reshardAck{worker: w, gen: gen, lo: lo, vals: vals}
			select {
			case c.ackCh <- a:
			default: // a stale barrier attempt's backlog; acks are gen-checked anyway
			}
		case msgDiverged:
			phase, comp, err := decodeDiverged(payload, c.n)
			if err != nil {
				c.fail(fmt.Errorf("dist: worker %d sent a malformed diverged frame", w))
				return
			}
			// Not a lost worker: evicting it would re-shard the component
			// that produced the NaN onto the survivors.
			de := &operators.DivergedError{Worker: w, Phase: phase, Component: comp}
			c.diverged.CompareAndSwap(nil, de)
			c.fail(de)
			return
		case msgFinal:
			fin, err := decodeFinal(payload, c.n, c.cfg.Workers)
			c.mu.RLock()
			shard := c.blocks[w]
			c.mu.RUnlock()
			if err != nil || !inShard(shard, fin.lo, len(fin.vals)) {
				c.fail(fmt.Errorf("dist: worker %d sent a malformed final frame", w))
				return
			}
			fin.worker = w
			c.finalCh <- fin
			return
		default:
			c.fail(fmt.Errorf("dist: worker %d sent unexpected frame type %d", w, f.typ()))
			return
		}
		// Legs of the relay may still hold the frame: read the next one
		// into a buffer of its own.
		f.release()
		f = getFrame()
	}
}

// acceptRejoins keeps accepting connections after the rendezvous — the
// rejoin half of the control plane. Each connection is handled on its own
// goroutine so a slow (or hostile) handshake never blocks other rejoiners.
// The loop exits when the listener closes (shutdown) or its deadline — the
// run deadline — expires.
func (c *coordinator) acceptRejoins() {
	defer c.acceptWG.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.acceptWG.Add(1)
		// Joined by acceptWG.Wait in shutdown; handleRejoin sets a short
		// handshake deadline before it blocks.
		go func() {
			defer c.acceptWG.Done()
			c.handleRejoin(conn)
		}()
	}
}

// readHello reads a connecting worker's hello and checks its protocol
// version; readMeshAddr reads the listen address a mesh worker reports after
// its welcome. The rendezvous and the rejoin handshake are these two around
// a welcome frame.
func readHello(conn net.Conn) error {
	typ, payload, err := readFrame(conn, maxFramePayload)
	if err != nil || typ != msgHello {
		return fmt.Errorf("handshake failed: %v", err)
	}
	cur := cursor{b: payload}
	if v := cur.u32(); cur.err != nil || v != protocolVersion {
		return fmt.Errorf("protocol version %d, want %d", v, protocolVersion)
	}
	return nil
}

func readMeshAddr(conn net.Conn) (string, error) {
	typ, payload, err := readFrame(conn, maxFramePayload)
	if err != nil || typ != msgMeshAddr {
		return "", fmt.Errorf("mesh address: %v", err)
	}
	cur := cursor{b: payload}
	addr := cur.str()
	if cur.err != nil || addr == "" {
		return "", errors.New("sent a malformed mesh address")
	}
	return addr, nil
}

// handleRejoin runs the rejoin handshake: validate the hello, reserve a
// free worker slot (rejecting when none is free — typically the lost
// link's read deadline has not expired yet, so the worker retries under
// backoff), welcome the worker with the checkpointed iterate and an empty
// shard, collect its mesh address, and install it into the membership. The
// next reshard barrier shards it in.
func (c *coordinator) handleRejoin(conn net.Conn) {
	if c.stopped.Load() {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	if readHello(conn) != nil {
		conn.Close()
		return
	}
	c.mu.Lock()
	slot := -1
	for w := range c.links {
		if !c.reserved[w] && c.links[w] == nil {
			slot = w
			break
		}
	}
	if slot >= 0 {
		c.reserved[slot] = true
	}
	gen := c.gen
	c.mu.Unlock()
	if slot < 0 {
		conn.Write(buildFrame(msgReject, appendStr(nil, "no free worker slot")))
		conn.Close()
		return
	}
	unreserve := func() {
		c.mu.Lock()
		c.reserved[slot] = false
		c.mu.Unlock()
	}
	x := c.bestIterate()
	if _, err := conn.Write(c.welcome(slot, 0, 0, gen, true, x)); err != nil {
		unreserve()
		conn.Close()
		return
	}
	meshAddr := ""
	star := c.cfg.Topology != TopologyMesh
	if !star {
		var err error
		if meshAddr, err = readMeshAddr(conn); err != nil {
			unreserve()
			conn.Close()
			return
		}
	}
	l := &link{conn: conn}
	c.mu.Lock()
	if c.stopped.Load() {
		// The run ended while this handshake was in flight: the stop
		// broadcast's target snapshot must never grow afterwards.
		c.reserved[slot] = false
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.links[slot] = l
	c.reserved[slot] = false
	c.addrs[slot] = meshAddr
	c.workersRejoined++
	if star {
		// Legs both ways: every live relay gains one onto the new link, and
		// the new incarnation gets a relay of its own (a fresh RNG stream,
		// like a mesh rejoiner's fresh sender).
		for _, s := range c.senders {
			if s != nil {
				s.setLeg(slot, &leg{link: l, q: slot})
			}
		}
		c.senders[slot] = c.newRelay(slot)
	}
	snd := c.senders[slot]
	c.readers.Add(1) // shutdown joins acceptWG, and so this Add, before it joins the readers
	c.mu.Unlock()
	conn.SetDeadline(c.runDeadline.Add(c.cfg.Timeout))
	go c.serveLink(slot, l, snd)
	c.ringMembership()
}

// reshardBarrier answers the membership doorbell: enter a new generation,
// pause every survivor (reshard), fold their acknowledged shards into the
// checkpointed iterate, and re-issue the shard table and — on mesh — the
// peer address table (assign). A worker lost or rejoined mid-barrier simply
// restarts the attempt with a fresh generation; the run deadline bounds the
// retrying. With every worker lost it waits for a rejoiner only as long as a
// restarted worker keeps retrying (Elastic.RejoinWait). Runs on the run-loop
// goroutine, so no probe round can overlap a generation flip.
func (c *coordinator) reshardBarrier(deadline time.Time) error {
	var emptySince time.Time
	for {
		if !time.Now().Before(deadline) || c.cancelled() {
			return errors.New("dist: resharding did not complete before the run ended")
		}
		select {
		case <-c.membership: // coalesce queued doorbell rings into this attempt
		default:
		}
		c.mu.Lock()
		c.gen++
		gen := c.gen
		var live []int
		for w := range c.links {
			if c.links[w] != nil {
				live = append(live, w)
			}
		}
		if len(live) == 0 {
			c.mu.Unlock()
			// Nobody left to compute: wait for a rejoiner.
			if emptySince.IsZero() {
				emptySince = time.Now()
			} else if wait := c.cfg.Elastic.RejoinWait(); time.Since(emptySince) > wait {
				return fmt.Errorf("dist: all %d workers lost and none rejoined within %v", c.cfg.Workers, wait)
			}
			select {
			case <-c.membership:
			case <-time.After(probeInterval):
			}
			continue
		}
		emptySince = time.Time{}
		shards := vec.Blocks(c.n, len(live))
		for w := range c.blocks {
			c.blocks[w] = [2]int{0, 0}
		}
		blocks := make([][2]int, c.cfg.Workers)
		for i, w := range live {
			c.blocks[w] = shards[i]
			blocks[w] = shards[i]
		}
		c.resharding++
		links := make([]*link, len(live))
		for i, w := range live {
			links[i] = c.links[w]
		}
		var addrs []string // the peer table the assign re-issues, mesh only
		if c.cfg.Topology == TopologyMesh {
			addrs = append(addrs, c.addrs...)
		}
		c.mu.Unlock()

		// The old generation's books close: frames still in flight from it
		// self-discard against the fence without touching these counters.
		c.led.enter(gen)

		// Phase 1 — pause: every survivor acknowledges the new generation
		// with its current shard values (the freshest warm-start data).
		reshard := buildFrame(msgReshard, appendU32(nil, gen))
		retry := false
		for i, w := range live {
			if err := c.writeLink(links[i], reshard); err != nil {
				c.workerLost(w, links[i])
				retry = true
			}
		}
		if retry {
			continue
		}
		acked := make([]bool, c.cfg.Workers)
		ackDeadline := time.Now().Add(probeRoundTimeout)
		if ackDeadline.After(deadline) {
			ackDeadline = deadline
		}
		for got := 0; got < len(live) && !retry; {
			select {
			case a := <-c.ackCh:
				if a.gen != gen || acked[a.worker] {
					continue // stale barrier attempt or duplicate
				}
				acked[a.worker] = true
				got++
				if len(a.vals) > 0 {
					c.xmu.Lock()
					copy(c.xbest[a.lo:a.lo+len(a.vals)], a.vals)
					c.xmu.Unlock()
				}
			case <-c.membership:
				retry = true // membership changed mid-barrier: fresh attempt
			case <-c.cfg.Done:
				retry = true // the loop head ends the barrier
			case <-time.After(time.Until(ackDeadline)):
				retry = true // an unresponsive survivor; its heartbeat deadline will evict it
			}
		}
		if retry {
			continue
		}

		// Phase 2 — resume: re-issue the shard table over the merged
		// iterate; mesh workers also get the refreshed peer table ("" marks
		// a dead slot) to redial replaced links.
		x := c.bestIterate()
		for i, w := range live {
			a := assign{gen: gen, lo: blocks[w][0], hi: blocks[w][1], x: x, addrs: addrs}
			if err := c.writeLink(links[i], buildAssignFrame(a)); err != nil {
				c.workerLost(w, links[i])
				retry = true
			}
		}
		if retry {
			continue
		}
		return nil
	}
}

// probeRound is one network collect of the double-collect protocol: probe
// every live worker, gather matching statuses, and assemble the
// Observation. The passive and spent flags come from the statuses (each a
// self-consistent worker-side snapshot) and the coordinator's drain
// ledger is read after the last status arrives, matching the in-process
// Tracker's "flags before counters" collect order. The drained total —
// injection drops plus filter discards, whichever sender's ledger holds
// them (the relays' here in star, the workers' own, reported in their
// statuses, in mesh) — enters the observation as Dropped: none of those frames can ever reactivate a
// worker. Any timeout, stale or cross-generation reply makes the round
// invalid; it is retried. The membership generation is folded into the
// observation's Epoch so two quiet collects can never straddle a re-shard
// unnoticed.
func (c *coordinator) probeRound(deadline time.Time) runtime.Observation {
	c.probeSeq++
	probeID := c.probeSeq
	probe := buildFrame(msgProbe, appendU64(nil, probeID))
	c.mu.RLock()
	gen := c.gen
	var workers []int
	var links []*link
	for w, l := range c.links {
		if l != nil {
			workers = append(workers, w)
			links = append(links, l)
		}
	}
	c.mu.RUnlock()
	if len(workers) == 0 {
		return runtime.Observation{} // an empty membership is never quiescent
	}
	for i, w := range workers {
		if err := c.writeLink(links[i], probe); err != nil {
			c.workerLost(w, links[i])
			return runtime.Observation{}
		}
	}
	roundDeadline := time.Now().Add(probeRoundTimeout)
	if roundDeadline.After(deadline) {
		roundDeadline = deadline
	}
	obs := runtime.Observation{AllPassive: true}
	seen := make([]bool, c.cfg.Workers)
	for got := 0; got < len(workers); {
		select {
		case st := <-c.statusCh:
			if st.probeID != probeID || st.gen != gen || seen[st.worker] {
				continue // stale round, stale generation, or duplicate
			}
			seen[st.worker] = true
			got++
			switch {
			case st.passive:
			case st.spent:
				obs.Exhausted = true
			default:
				obs.AllPassive = false
			}
			obs.Epoch += st.epoch
			obs.Sent += int64(st.sent)
			obs.Delivered += int64(st.delivered)
			obs.Dropped += int64(st.drained)
		case err := <-c.errCh:
			c.fail(err) // back for the run loop, which ends the run with it
			return runtime.Observation{}
		case <-c.membership:
			// A lost worker will never answer, and a rejoiner needs a
			// reshard first: the run loop answers the doorbell.
			c.ringMembership()
			return runtime.Observation{}
		case <-c.cfg.Done:
			return runtime.Observation{}
		case <-time.After(time.Until(roundDeadline)):
			return runtime.Observation{}
		}
	}
	obs.Epoch += uint64(gen)
	obs.Dropped += c.led.drained()
	return obs
}
