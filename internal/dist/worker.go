package dist

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/operators"
	"repro/internal/runtime"
)

// maxFramePayload is the sanity bound on any frame's payload.
const maxFramePayload = 1 << 26

// errConnLost marks the error of a worker whose control link died under it.
var errConnLost = errors.New("connection lost")

// workerState is the TCP Transport of the runtime Worker loop, serving both
// data planes: Publish hands shard frames to the worker's sender — the uplink
// to the coordinator's relay on star, the worker's own mesh links on mesh —
// and Drain and Wait take frames off the one inbox every reader goroutine
// feeds. It lives entirely on the compute goroutine, so status replies are
// self-consistent snapshots by construction — the property the coordinator's
// probe rounds rely on. The only exception is the sender's ledger, which its
// writer goroutine bumps through atomics. Inbox frames are pooled buffers the
// compute goroutine releases once it has handled them.
type workerState struct {
	// coord is the control link; on star the uplink's writer goroutine
	// shares it, so every control write takes its mutex (link.write).
	coord          *link
	snd            *sender
	inbox          chan *frameBuf
	id, p, n       int
	lo, hi         int
	deltaThreshold float64

	// view is the Worker's view of the full iterate: received blocks land
	// in it; checkpoints, reshard acks and the final upload read the shard
	// from it.
	view     []float64
	lastSent []float64 // per own component: value last shipped to peers
	lastSeq  []uint64  // per source: highest applied block sequence (this gen)

	mesh *mesh // nil in the star topology

	// Membership. gen is the current membership generation — every data
	// frame is fenced to it, and sent/delivered restart at zero when it
	// changes, so in-flight accounting never mixes generations. awaitAssign
	// is the paused window between acknowledging a reshard and receiving
	// the new shard table; Drain does not return while it lasts.
	gen              uint32
	hbEvery, ckEvery time.Duration
	hbTimer          *time.Timer // nil unless heartbeats are on
	awaitAssign      bool
	lastHB, lastCk   time.Time

	passive, spent, stopped bool
	bye                     bool // the coordinator ended the run with a bye
	// fresh and reset are the Input flags accumulated since the last Drain
	// returned.
	fresh, reset bool
	epoch        uint64
	// sent/delivered/stale are lifetime counters for the final report;
	// gsent/gdelivered are the generation-scoped pair the termination
	// probes see. With no churn the pairs are identical.
	sent, delivered, stale uint64
	gsent, gdelivered      uint64
	seq                    uint64
	statusBuf              []byte // every status reply is encoded here
}

// runWorker runs one worker on conn to completion. Past the handshake it
// closes conn on the way out, unless the run ended on the coordinator's bye.
func runWorker(conn net.Conn, op operators.Operator, o WorkerOptions) error {
	scr, ctl := o.Scratch, o.Ctl
	if scr == nil {
		scr = operators.NewScratch()
	}
	if _, err := conn.Write(helloFrame); err != nil {
		return fmt.Errorf("dist: worker hello: %w", err)
	}
	hs := getFrame() // the welcome, released once decoded: decoding copies what it keeps
	b, err := readFrameInto(conn, maxFramePayload, hs.b)
	hs.b = b
	var wel welcome
	switch {
	case err != nil:
		err = fmt.Errorf("dist: worker welcome: %w", err)
	case hs.typ() == msgReject:
		err = &rejectedError{reason: (&cursor{b: b[frameHeaderLen:]}).str()}
	case hs.typ() != msgWelcome:
		err = fmt.Errorf("dist: worker expected welcome, got frame type %d", hs.typ())
	default:
		if wel, err = decodeWelcome(b[frameHeaderLen:]); err != nil {
			err = fmt.Errorf("dist: worker welcome decode: %w", err)
		}
	}
	hs.release()
	if err != nil {
		return err
	}
	cfg := &wel.cfg
	if op.Dim() != wel.n {
		return fmt.Errorf("dist: worker operator dim %d, coordinator says %d", op.Dim(), wel.n)
	}
	// No socket of this worker outlives the run unboundedly: every link
	// carries an absolute I/O deadline derived from the run Timeout, with
	// the same grace the coordinator gives the post-deadline stop/final
	// exchange. A coordinator that goes silent therefore surfaces as a
	// deadline error on the control reader — which is also what bounds
	// every blocking wait below, with no timer of its own.
	deadline := time.Now().Add(2 * cfg.Timeout)
	conn.SetDeadline(deadline)
	ws := &workerState{
		coord: &link{conn: conn},
		inbox: make(chan *frameBuf, 4*cfg.Workers), // backpressure, not a burst buffer: see runWorker's readers
		id:    wel.id, p: cfg.Workers, n: wel.n,
		lo: wel.lo, hi: wel.hi,
		deltaThreshold: cfg.DeltaThreshold,
		view:           cfg.X0,
		lastSent:       append([]float64(nil), cfg.X0[wel.lo:wel.hi]...),
		lastSeq:        make([]uint64, cfg.Workers),
		gen:            wel.gen,
		hbEvery:        cfg.Elastic.HeartbeatEvery,
		ckEvery:        cfg.Elastic.CheckpointEvery,
		// A rejoiner owns no shard until its first assign re-shards it in.
		awaitAssign: wel.rejoining,
	}
	// Mesh rendezvous: open a listener on the interface that reaches the
	// coordinator, advertise it and — unless we are rejoining a run already
	// in flight, whose peer table arrives with our first assign — receive
	// the full peer table and establish every worker-to-worker link before
	// the first compute phase.
	if cfg.Topology == TopologyMesh {
		ln, err := meshListener(conn)
		if err != nil {
			return err
		}
		if !ctl.register(ln) {
			ln.Close()
			return errWorkerKilled
		}
		if _, err := conn.Write(buildFrame(msgMeshAddr, appendStr(nil, ln.Addr().String()))); err != nil {
			ln.Close()
			return fmt.Errorf("dist: worker %d mesh address: %w", ws.id, err)
		}
		if wel.rejoining {
			ws.mesh = newMesh(ws.id, ws.p, ln, cfg.Fault, ws.gen, deadline)
		} else {
			typ, payload, err := readFrame(conn, maxFramePayload)
			if err != nil || typ != msgPeers {
				ln.Close()
				return fmt.Errorf("dist: worker %d peer table: %v", ws.id, err)
			}
			peers, err := decodePeers(payload, ws.p)
			if err != nil {
				ln.Close()
				return fmt.Errorf("dist: worker %d peer table %w", ws.id, err)
			}
			m, err := dialMesh(ws.id, ws.p, ln, peers, cfg.Fault, ws.gen, deadline)
			if err != nil {
				return err
			}
			ws.mesh = m
		}
		ws.snd = ws.mesh.snd
	} else {
		ws.snd = newUplink(ws.coord, ws.p, ws.gen)
	}

	// Reader goroutines read frames into the shared inbox; the quit channel
	// unblocks them if the compute loop returns while they hold a frame. The
	// control reader reports a lost coordinator with an in-band sentinel
	// (multiple readers share the inbox, so nobody may close it); mesh
	// readers go quiet on error — a peer closing its sockets after stop is
	// normal teardown (and a crashed peer is the coordinator's to notice, not
	// ours), so a dead inbound link just stops producing frames. On the way
	// out every reader is joined and what is left in the inbox released.
	// The inbox's 4p places (a few per link, so readers rarely wait frame by
	// frame) are backpressure, not a burst buffer: a reader that finds it
	// full blocks (or quits), its frames waiting in the socket buffer as
	// behind any depth. The compute goroutine empties it every phase (Drain,
	// next) and in finish, and the coordinator's readers never block handing
	// their loop anything (post, the park doorbell), so a full inbox only
	// slows the links into it to the pace of its worker.
	inbox := ws.inbox
	quit := make(chan struct{})
	var readers sync.WaitGroup
	defer func() {
		close(quit)
		if !ws.bye {
			conn.Close()
		}
		ws.snd.flush() // after an error; finish has flushed already
		if ws.mesh != nil {
			ws.mesh.shutdown()
		}
		readers.Wait()
		for len(inbox) > 0 {
			(<-inbox).release()
		}
	}()
	readInto := func(c net.Conn, ctrl bool) {
		defer readers.Done()
		for {
			f := getFrame()
			b, err := readFrameInto(c, maxFramePayload, f.b)
			f.b = b
			if err != nil && !ctrl {
				f.release()
				return
			}
			last := err != nil || f.typ() != msgBlock && (!ctrl || f.typ() == msgBye)
			if err != nil {
				f.lost(err)
			} else if last && !ctrl {
				f.lost(fmt.Errorf("mesh peer sent frame type %d", f.typ()))
			}
			select {
			case inbox <- f:
			case <-quit:
				f.release()
				return
			}
			if last {
				return
			}
		}
	}

	// Every reader exits when its conn closes (the deferred Close in
	// connectOnce, mesh shutdown or peer teardown) or on the quit close above.
	readers.Add(1)
	go readInto(conn, true)
	if ws.mesh != nil {
		// Readers for the rendezvous links go up BEFORE the accept loop:
		// serveAccepts appends late-accepted conns to mesh.in and spawns
		// their readers itself, so starting it first would race on the
		// slice and double-read any conn that lands in the gap.
		for _, mc := range ws.mesh.in {
			readers.Add(1)
			go readInto(mc, false)
		}
		// mesh.shutdown joins the accept loop, and so every Add here, before
		// the deferred readers.Wait.
		ws.mesh.serveAccepts(func(c net.Conn) {
			readers.Add(1)
			go readInto(c, false)
		})
	}

	ws.lastHB = time.Now()
	ws.lastCk = ws.lastHB
	if ws.hbEvery > 0 {
		ws.hbTimer = time.NewTimer(ws.hbEvery)
		defer ws.hbTimer.Stop()
		ws.hbTimer.Stop() // parked until next() arms it; it cannot have fired yet
	}

	wk := runtime.Worker{
		ID: ws.id, Op: op, Scratch: scr,
		Tol: cfg.Tol, Budget: cfg.MaxUpdatesPerWorker,
		Progress: o.progress,
		View:     ws.view,
	}
	err = wk.Run(ws)
	var de *operators.DivergedError
	if errors.As(err, &de) {
		// Best effort: if the link is gone too, the coordinator reports that.
		ws.coord.write(buildDivergedFrame(de.Phase, de.Component))
	}
	if err != nil {
		return err
	}
	return ws.finish(wk.Updates)
}

// helloFrame, heartbeatFrame and parkFrame are shared by every worker:
// conn.Write never mutates them.
var heartbeatFrame, parkFrame = buildFrame(msgHeartbeat, nil), buildFrame(msgPark, nil)
var helloFrame = buildFrame(msgHello, appendU32(nil, protocolVersion))

// maintain paces the membership's control traffic from the compute
// goroutine, only when heartbeats are on: a heartbeat whenever the control
// link has been quiet for HeartbeatEvery (every control frame proves
// liveness, but the heartbeat guarantees a bound), and a shard checkpoint
// every CheckpointEvery while the worker owns a shard. Both are
// trajectory-neutral: they read the view, never write it.
func (ws *workerState) maintain() error {
	if ws.hbEvery <= 0 {
		return nil
	}
	now := time.Now()
	if now.Sub(ws.lastHB) >= ws.hbEvery {
		ws.lastHB = now
		if err := ws.coord.write(heartbeatFrame); err != nil {
			return fmt.Errorf("dist: worker %d heartbeat: %w", ws.id, err)
		}
	}
	if ws.ckEvery > 0 && !ws.awaitAssign && ws.hi > ws.lo && now.Sub(ws.lastCk) >= ws.ckEvery {
		ws.lastCk = now
		if err := ws.coord.write(buildShardFrame(msgCheckpoint, ws.gen, ws.lo, ws.view[ws.lo:ws.hi])); err != nil {
			return fmt.Errorf("dist: worker %d checkpoint: %w", ws.id, err)
		}
	}
	return nil
}

// lost turns f into the in-band msgConnLost sentinel carrying cause, which
// is formatted only if the worker fails on it.
func (f *frameBuf) lost(cause error) {
	f.b, f.err = append(f.b[:0], 0, 0, 0, 0, msgConnLost), cause
}

// handle processes one inbound frame and releases it.
func (ws *workerState) handle(f *frameBuf) error {
	defer f.release()
	payload := f.b[frameHeaderLen:]
	switch f.typ() {
	case msgBlock:
		if !ws.applyBlock(payload) {
			return fmt.Errorf("dist: worker %d: bad block frame", ws.id)
		}
	case msgProbe:
		cur := cursor{b: payload}
		probeID := cur.u64()
		if cur.err != nil {
			return fmt.Errorf("dist: worker %d: bad probe frame", ws.id)
		}
		st := status{
			probeID: probeID, passive: ws.passive, spent: ws.spent,
			gen: ws.gen, epoch: ws.epoch, sent: ws.gsent, delivered: ws.gdelivered,
			drained: uint64(ws.snd.led.drained()),
		}
		ws.statusBuf = appendStatusFrame(ws.statusBuf[:0], st)
		if err := ws.coord.write(ws.statusBuf); err != nil {
			return fmt.Errorf("dist: worker %d status: %w", ws.id, err)
		}
	case msgReshard:
		cur := cursor{b: payload}
		gen := cur.u32()
		if cur.err != nil {
			return fmt.Errorf("dist: worker %d: bad reshard frame", ws.id)
		}
		if gen <= ws.gen {
			return nil // a barrier attempt we already acknowledged
		}
		// Enter the new generation: a re-shard is a reactivation under the
		// two-phase protocol (the epoch bump invalidates any probe round in
		// flight), the generation-scoped books restart at zero on both
		// sides, sequence streams restart, and the sender's fence flips so
		// everything still in flight from the old generation self-discards.
		ws.gen = gen
		ws.epoch++
		ws.passive = false
		ws.awaitAssign = true
		ws.gsent, ws.gdelivered = 0, 0
		ws.seq = 0
		for i := range ws.lastSeq {
			ws.lastSeq[i] = 0
		}
		ws.snd.led.enter(gen)
		// Acknowledge with our current shard — the freshest values the
		// coordinator can fold into the warm-start iterate it re-issues.
		if err := ws.coord.write(buildShardFrame(msgReshardAck, gen, ws.lo, ws.view[ws.lo:ws.hi])); err != nil {
			return fmt.Errorf("dist: worker %d reshard ack: %w", ws.id, err)
		}
	case msgAssign:
		a, err := decodeAssign(payload, ws.n, ws.p)
		if err != nil {
			return fmt.Errorf("dist: worker %d: bad assign frame", ws.id)
		}
		if a.gen != ws.gen {
			return nil // a barrier attempt that was superseded before landing
		}
		// Adopt the new shard over the coordinator's merged iterate. A
		// current-generation frame absorbed while we awaited this assign is
		// overwritten here — transient staleness the totally-asynchronous
		// regime tolerates by construction (its sender re-broadcasts
		// whatever still moves).
		copy(ws.view, a.x)
		ws.lo, ws.hi = a.lo, a.hi
		ws.lastSent = append(ws.lastSent[:0], ws.view[a.lo:a.hi]...)
		if ws.mesh != nil && a.addrs != nil {
			ws.mesh.updatePeers(a.addrs)
		}
		ws.awaitAssign = false
		ws.reset = true
	case msgStop:
		ws.stopped = true
	case msgConnLost:
		return fmt.Errorf("dist: worker %d: %w: %v", ws.id, errConnLost, f.err)
	default:
		return fmt.Errorf("dist: worker %d: unexpected frame type %d", ws.id, f.typ())
	}
	return nil
}

// applyBlock applies one block payload, decoding its values straight into
// the view once the header and bounds have checked out; it reports false for
// a malformed block. A block that arrives while the worker is passive
// reactivates it BEFORE the delivery is counted — the protocol's ordering
// rule: the coordinator's probe rounds either still see the block in flight
// or see this worker active (or the epoch bumps of a re-check).
//
//repro:hotpath
func (ws *workerState) applyBlock(payload []byte) bool {
	h, cur := decodeBlock(payload)
	blo, count := cur.span()
	if cur.err != nil || !inside(blo, count, ws.n) || h.from < 0 || h.from >= ws.p {
		return false
	}
	if h.gen != ws.gen {
		// A frame from before a re-shard we have already acknowledged
		// (or, transiently, after one we have not yet seen — the
		// coordinator's reshard is in our inbox behind it). Its send was
		// erased from the generation books, so it is disposed without
		// touching them; the lifetime counters still record it.
		ws.delivered++
		ws.stale++
		return true
	}
	if !ws.awaitAssign && max(blo, ws.lo) < min(blo+count, ws.hi) {
		// Within a generation shards are disjoint and only the owner
		// writes its own, so a block reaching into [lo, hi) is a peer
		// overwriting what this worker computed. (Until the assign of a
		// re-shard lands, lo and hi are still the old generation's and
		// the view is about to be replaced whole.)
		return false
	}
	if h.seq <= ws.lastSeq[h.from] {
		// Defense in depth: the sender's filter already discards
		// superseded and duplicate frames unwritten, so a frame older
		// than one already applied should never reach us — but if one
		// does (the label discipline for out-of-order messages), the
		// stale values are discarded. The delivery is still acknowledged
		// to drain the in-flight count; a discarded block cannot
		// reactivate anyone, so no epoch bump is needed.
		ws.delivered++
		ws.stale++
		ws.gdelivered++
		return true
	}
	ws.lastSeq[h.from] = h.seq
	// The protocol's ordering rule: publish the reactivation before
	// acknowledging the delivery. Spent workers reactivate too —
	// staying observably passive while absorbing data they have not
	// verified would let the coordinator certify a false convergence;
	// the loop re-passivates them only if the new data left their
	// shard converged.
	ws.Account(runtime.Active)
	cur.f64sInto(ws.view[blo : blo+count])
	ws.fresh = true
	ws.delivered++
	ws.gdelivered++
	return true
}

func (ws *workerState) Block() (lo, hi int) { return ws.lo, ws.hi }

func (ws *workerState) Passive() bool { return ws.passive }

// Account publishes a state transition: the status replies carry the flags
// and every transition bumps the epoch the double collect watches. Parking
// also sends a park frame, so a probe round need not wait for the timer (a
// failed write is the control reader's to report).
func (ws *workerState) Account(s runtime.State) {
	switch {
	case s == runtime.Spent:
		ws.spent = true
	case s == runtime.Passive && !ws.passive:
		ws.passive = true
	case s == runtime.Active && ws.passive:
		ws.passive = false
	default:
		return
	}
	ws.epoch++
	if s != runtime.Active {
		ws.coord.write(parkFrame)
	}
}

// Publish never fails: the control reader reports a lost link.
func (ws *workerState) Publish(vals []float64, reliable bool) error {
	var flags byte
	if reliable {
		flags = blockReliable
	}
	ws.broadcast(vals, flags)
	return nil
}

// Drain handles every frame already queued. A reshard among them pauses the
// worker here — serving probes and absorbing frames, observably active —
// until the new shard table (or stop) lands; the coordinator's run Timeout
// bounds that.
func (ws *workerState) Drain() (runtime.Input, error) {
	if err := ws.maintain(); err != nil {
		return 0, err
	}
	for {
		select {
		case f := <-ws.inbox:
			if err := ws.handle(f); err != nil {
				return 0, err
			}
			continue
		default:
		}
		if !ws.awaitAssign || ws.stopped {
			break
		}
		if err := ws.next(); err != nil {
			return 0, err
		}
	}
	var in runtime.Input
	if ws.fresh {
		in |= runtime.Fresh
	}
	if ws.reset {
		in |= runtime.Reset
	}
	if ws.stopped {
		in |= runtime.Stop
	}
	ws.fresh, ws.reset = false, false
	return in, nil
}

func (ws *workerState) Wait() (runtime.Input, error) {
	if err := ws.next(); err != nil {
		return 0, err
	}
	return ws.Drain()
}

// next blocks for one inbound frame and handles it. Without heartbeats it
// blocks on the inbox alone: the control reader turns a dead or expired
// link into a msgConnLost frame, so the conn deadline bounds the wait.
// With heartbeats it also returns, empty-handed, when the next one is due.
func (ws *workerState) next() error {
	if ws.hbTimer == nil {
		return ws.handle(<-ws.inbox)
	}
	if err := ws.maintain(); err != nil {
		return err
	}
	ws.hbTimer.Reset(ws.hbEvery - time.Since(ws.lastHB))
	select {
	case f := <-ws.inbox:
		if !ws.hbTimer.Stop() {
			select {
			case <-ws.hbTimer.C:
			default:
			}
		}
		return ws.handle(f)
	case <-ws.hbTimer.C:
		return nil
	}
}

// broadcast ships this worker's shard values to all peers and accounts the
// fan-out share of the in-flight count. Under a delta threshold a
// non-reliable broadcast is flexible communication on the wire: it ships ONE
// frame covering the span from the first to the last component that moved by
// more than the threshold since it was last shipped (sub-threshold
// components inside the span ride along), and ships nothing when nothing
// moved. One frame per broadcast makes each broadcast atomic on the sequence
// stream: the sender's newest-wins rule disposes of whole broadcasts, never
// of half of one. A disposed broadcast is the same loss class as an injection
// drop — its components stay stale at the receiver until they move beyond the
// threshold again or the reliable final (always the whole shard) restores
// exactness.
func (ws *workerState) broadcast(vals []float64, flags byte) {
	if ws.p <= 1 {
		return
	}
	if flags&blockReliable == 0 && ws.deltaThreshold > 0 {
		first, last := -1, -1
		for i, v := range vals {
			if math.Abs(v-ws.lastSent[i]) > ws.deltaThreshold {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 {
			return // nothing moved: flexible communication skips the round
		}
		ws.sendSlice(ws.lo+first, vals[first:last+1], flags)
		copy(ws.lastSent[first:last+1], vals[first:last+1])
		return
	}
	ws.sendSlice(ws.lo, vals, flags)
	copy(ws.lastSent, vals)
}

// sendSlice hands one [lo, lo+len(vals)) slice of the shard, encoded into a
// pooled frame, to the worker's sender, counting a send to every peer.
func (ws *workerState) sendSlice(lo int, vals []float64, flags byte) {
	ws.seq++
	f := getFrame()
	f.b = appendBlockFrame(f.b, ws.id, ws.seq, flags, ws.gen, lo, vals)
	f.seq, f.gen = ws.seq, ws.gen
	ws.snd.send(f, flags&blockReliable != 0)
	f.release()
	ws.sent += uint64(ws.p - 1)
	ws.gsent += uint64(ws.p - 1)
}

// finish ends the worker's run once the loop has seen stop. It flushes the
// sender first — its writer goroutine exits and every frame still queued is
// dropped — so no block frame can follow the final and the drain counters
// are final, then uploads the authoritative shard.
func (ws *workerState) finish(updates int) error {
	ws.snd.flush()
	led := ws.snd.led
	fin := final{
		lo: ws.lo, vals: ws.view[ws.lo:ws.hi], updates: updates,
		sent: ws.sent, delivered: ws.delivered, stale: ws.stale,
		dropped:   uint64(led.dropped.Load()),
		reordered: uint64(led.reordered.Load()),
		duplicate: uint64(led.duplicate.Load()),
		linkBytes: ws.snd.linkBytes(),
	}
	f := getFrame()
	f.b = appendFinalFrame(f.b, fin)
	err := ws.coord.write(f.b)
	f.release()
	if err != nil {
		return fmt.Errorf("dist: worker %d final: %w", ws.id, err)
	}

	// Hold every link open until the coordinator, once every final arrived,
	// ends the run: with a bye on a clean star run, by closing the control
	// connection otherwise. Mesh peers that have not yet processed stop may
	// still be sending, and their frames must land on open sockets, not
	// teardown errors. Late data frames are discarded.
	for {
		f := <-ws.inbox
		typ := f.typ()
		f.release()
		if typ == msgBye || typ == msgConnLost { // at worst, the conn deadline
			ws.bye = typ == msgBye
			return nil
		}
	}
}
