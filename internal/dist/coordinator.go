package dist

// The coordinator's I/O shell around the decision machine of coordstate.go;
// the package doc says what its readers do and what its loop decides.

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/operators"
	"repro/internal/runtime"
)

// probeInterval paces probe rounds when no park starts them: the backstop
// for drains nobody rings for. Below 1 ms it is no cadence: Go's netpoller
// sleeps in whole milliseconds, so once every goroutine blocks, a shorter
// timer fires a millisecond late.
const probeInterval = 500 * time.Microsecond

// probeRoundTimeout bounds one probe round (and one reshard attempt's ack
// collection): a worker that cannot answer in time fails the round, not the run.
const probeRoundTimeout = 2 * time.Second

// eventsPerWorker sizes the events channel. A reader posts at most two
// events that must not be lost (its mesh address and its last), and a slot
// gets a new reader only once the loop took the previous reader's last, so
// 2p places always hold those; other events (id- or gen-checked, or hellos,
// rejected for the worker to retry) are admitted only while those stay free.
// The rest is not slack to trim: a status dropped for want of room leaves
// its probe round waiting out probeRoundTimeout, which startRound arms.
const eventsPerWorker = 8

// eventsPool keeps events channels between runs: shutdown returns a run's
// drained, once nothing can post; one of another capacity is dropped.
var eventsPool sync.Pool

func takeEvents(size int) chan inbound {
	if ch, ok := eventsPool.Get().(chan inbound); ok && cap(ch) == size {
		return ch
	}
	return make(chan inbound, size)
}

var (
	stopFrame   = buildFrame(msgStop, nil)
	byeFrame    = buildFrame(msgBye, nil)
	rejectFrame = buildFrame(msgReject, appendStr(nil, "no free worker slot"))
	busyFrame   = buildFrame(msgReject, appendStr(nil, "coordinator busy"))
)

type coordinator struct {
	cfg  Config
	n    int // problem dimension
	ln   net.Listener
	st   *coordState // the loop goroutine's alone
	fins []final     // by slot: a reader decodes its final here, its last event points here

	events  chan inbound
	backlog atomic.Int64  // droppable events queued in events
	park    chan struct{} // rung per park; one pending ring stands for many

	// conns (by link id) and relays (by slot, star only) are the loop's;
	// built keeps every relay of the run for the byte totals.
	conns             map[int]*link
	relays, built     []*sender
	readers, acceptWG sync.WaitGroup
	// hangup, done on cancellation, closes every welcomed link.
	hangup context.Context

	// stopped is set with the first stop frame: relay write failures stop
	// mattering and frames read after it are no longer relayed.
	stopped atomic.Bool
	// led is the drain ledger every relay sender accounts into.
	led               ledger
	bytesOut, bytesIn atomic.Int64

	runDeadline, lastCkptWrite time.Time
	timer                      *time.Timer
	armed                      timerKind
	probeFrame                 []byte
}

// inbound is one event on its way to the loop; a hello carries its link.
type inbound struct {
	event
	l *link
}

// once reports whether an event must never be dropped (see eventsPerWorker).
func (ev *event) once() bool {
	k := ev.kind
	return k == evMeshAddr || k == evFinal || k == evDiverged || k == evLost || k == evMalformed
}

// Serve runs the coordinator on ln, which stays open for the whole run so
// lost workers can rejoin, and closes it at the end. Link readers relay star
// broadcasts with fault injection and turn every control frame into an
// event; one loop feeds the events to the decision machine (coordState),
// which welcomes cfg.Workers workers, probes for quiescence with the
// two-phase double collect, re-shards over the survivors when a worker is
// lost or a restarted one rejoins, and stops the run: on quiescence
// (converged when every worker was passive and every shard's final
// arrived), on cfg.Done (Cancelled), or at Timeout (error). Of cfg.Op it
// reads only the dimension: coordinates cross the wire, operators never do.
func Serve(ln net.Listener, cfg Config) (*Result, error) {
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
	p := cfg.Workers
	c := &coordinator{
		cfg:         cfg,
		n:           n,
		ln:          ln,
		st:          newCoordState(p, n, cfg.Topology == TopologyMesh, x0, cfg.Timeout, cfg.Elastic.RejoinWait()),
		events:      takeEvents(eventsPerWorker * p),
		park:        make(chan struct{}, 1),
		fins:        make([]final, p),
		conns:       map[int]*link{},
		relays:      make([]*sender, p),
		led:         ledger{gen: 1},
		runDeadline: start.Add(cfg.Timeout),
		armed:       timerRun,
		probeFrame:  buildFrame(msgProbe, make([]byte, 8)),
	}
	c.timer = time.NewTimer(cfg.Timeout)
	defer c.timer.Stop()
	// A cancelled run owes nobody the stop/final exchange, which links
	// saturated by workers that never converge could stall behind wedged
	// writes: Done closes every link at once, blocked writes fail, the
	// workers unwind, and the loop takes the cancellation next.
	hangup, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.hangup = hangup
	if cfg.Done != nil {
		go func() {
			select {
			case <-cfg.Done:
				cancel()
			case <-hangup.Done():
			}
		}()
	}
	c.acceptWG.Add(1)
	go c.accept() // joined by shutdown, after the listener closes

	for c.st.phase != phDone {
		c.exec(c.st.step(c.next()))
	}
	c.shutdown()

	st := c.st
	if st.err != nil {
		return nil, st.err
	}
	res := &Result{
		Result:   runtime.Result{X: st.xbest, Elapsed: time.Since(start), Cancelled: st.cancelled, Converged: st.converged, UpdatesPerWorker: make([]int, p)},
		Topology: cfg.Topology, LinkBytes: make([][]int64, p), ProbeRounds: int64(st.probeSeq),
		WorkersLost: st.workersLost, WorkersRejoined: st.workersRejoined, Resharding: st.resharding,
	}
	for w, f := range st.finals {
		res.LinkBytes[w] = make([]int64, p)
		if f == nil {
			continue
		}
		res.UpdatesPerWorker[w] = f.updates
		res.MessagesSent += int64(f.sent)
		res.MessagesDelivered += int64(f.delivered)
		res.MessagesStale += int64(f.stale)
		// What a mesh worker's own sender disposed of and shipped.
		c.led.dropped.Add(int64(f.dropped))
		c.led.reordered.Add(int64(f.reordered))
		c.led.duplicate.Add(int64(f.duplicate))
		for q, b := range f.linkBytes {
			res.LinkBytes[w][q] += int64(b)
		}
	}
	// Every goroutine that wrote the relay counters has been joined.
	for _, s := range c.built {
		for q, b := range s.linkBytes() {
			res.LinkBytes[s.id][q] += int64(b)
			c.bytesOut.Add(int64(b))
		}
	}
	res.MessagesDropped, res.MessagesReordered, res.MessagesDuplicate = c.led.dropped.Load(), c.led.reordered.Load(), c.led.duplicate.Load()
	res.BytesSent, res.BytesReceived = c.bytesOut.Load(), c.bytesIn.Load()
	return res, nil
}

// next waits for the loop's next event. Cancellation wins every race: the
// losses the hangup causes, posted after it, never settle anything first.
func (c *coordinator) next() event {
	ev := event{kind: evCancel}
	select {
	case <-c.hangup.Done():
	case in := <-c.events:
		if !in.once() {
			c.backlog.Add(-1)
		}
		if in.l != nil {
			c.conns[in.link] = in.l
		}
		if in.kind == evStatus {
			in.drained = c.led.drained()
		}
		ev = in.event
	case <-c.park:
		ev = event{kind: evPark}
	case <-c.timer.C:
		ev = event{kind: evTimer, timer: c.armed}
	}
	if c.hangup.Err() != nil {
		return event{kind: evCancel}
	}
	return ev
}

// post hands an event to the loop without ever blocking: an event that
// must not be lost always finds room, any other is admitted only while it
// leaves that room (see eventsPerWorker) and reported dropped otherwise.
func (c *coordinator) post(in inbound) bool {
	if !in.once() && c.backlog.Add(1) > int64(cap(c.events)-2*c.cfg.Workers) {
		c.backlog.Add(-1)
		return false
	}
	c.events <- in
	return true
}

// exec carries out one step's actions in order. Readers of links that came
// up start after the whole batch, so every relay leg is in place before the
// first block is read.
func (c *coordinator) exec(acts []action) {
	var up []action
	for _, a := range acts {
		switch a.kind {
		case actWelcome:
			l := c.conns[a.link]
			l.unhook = context.AfterFunc(c.hangup, func() { l.conn.Close() })
			wel := welcome{id: a.slot, n: c.n, lo: a.lo, hi: a.hi, gen: a.gen, rejoining: a.rejoining, cfg: c.cfg}
			wel.cfg.X0 = c.st.xbest
			f := getFrame()
			f.b = wel.appendFrame(f.b)
			c.writeLink(l, f.b)
			f.release()
		case actReject:
			c.writeLink(c.conns[a.link], rejectFrame)
			c.closeLink(a.link)
		case actClose:
			c.closeLink(a.link)
		case actDown:
			// Its own relay stays with its reader, which flushes it.
			c.closeLink(a.link)
			c.relays[a.slot] = nil
			for _, s := range c.relays {
				if s != nil {
					s.setLeg(a.slot, nil)
				}
			}
		case actUp:
			c.linkUp(a.slot, c.conns[a.link])
			up = append(up, a)
		case actPeers:
			c.writeLink(c.slotLink(a.slot), buildFrame(msgPeers, appendPeers(nil, c.st.addrs)))
		case actProbe:
			binary.LittleEndian.PutUint64(c.probeFrame[frameHeaderLen:], a.id)
			c.writeLink(c.slotLink(a.slot), c.probeFrame)
		case actFence:
			c.led.enter(a.gen)
		case actReshard:
			c.writeLink(c.slotLink(a.slot), buildFrame(msgReshard, appendU32(nil, a.gen)))
		case actAssign:
			// Mesh workers also get the refreshed peer table ("" marks a
			// dead slot) to redial replaced links.
			as := assign{gen: a.gen, lo: a.lo, hi: a.hi, x: c.st.xbest}
			if c.st.mesh {
				as.addrs = c.st.addrs
			}
			c.writeLink(c.slotLink(a.slot), buildAssignFrame(as))
		case actStop:
			c.stopped.Store(true)
			c.writeLink(c.slotLink(a.slot), stopFrame)
		case actArm:
			c.arm(a.timer)
		case actCheckpoint:
			// Best effort: a failed disk write never fails the run.
			if c.cfg.Elastic.CheckpointPath != "" && time.Since(c.lastCkptWrite) >= c.cfg.Elastic.CheckpointEvery {
				c.lastCkptWrite = time.Now()
				_ = writeCheckpointFile(c.cfg.Elastic.CheckpointPath, c.st.xbest)
			}
		}
	}
	for _, a := range up {
		c.readers.Add(1)
		go c.serveLink(a.slot, c.conns[a.link], c.relays[a.slot])
	}
}

func (c *coordinator) slotLink(w int) *link { return c.conns[c.st.links[w]] }

// writeLink sends one control frame on a link, counting its bytes. A failed
// write closes the link; its reader then reports the loss.
func (c *coordinator) writeLink(l *link, frame []byte) error {
	err := l.write(frame)
	if err != nil {
		l.conn.Close()
	} else {
		c.bytesOut.Add(int64(len(frame)))
	}
	return err
}

func (c *coordinator) closeLink(id int) {
	if l := c.conns[id]; l != nil {
		l.conn.Close()
		delete(c.conns, id)
	}
}

// arm re-arms the one timer for k, or for the run deadline when that comes
// first (the finals wait alone may run past it).
func (c *coordinator) arm(k timerKind) {
	d := [...]time.Duration{timerProbe: probeInterval, timerRound: probeRoundTimeout,
		timerRejoin: c.cfg.Elastic.RejoinWait(), timerFinal: c.cfg.Timeout}[k]
	if left := time.Until(c.runDeadline); k != timerFinal && d >= left {
		k, d = timerRun, left
	}
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
	c.timer.Reset(d)
	c.armed = k
}

// linkUp gives slot w's link its I/O deadline and, on star, relay legs both
// ways: one onto it in every live relay, and a relay of its own (a fresh RNG
// stream per incarnation, like a mesh rejoiner's fresh sender).
func (c *coordinator) linkUp(w int, l *link) {
	// No read or write can outlive the run's Timeout, so a stalled worker
	// surfaces as a deadline error instead of hanging a blocking conn.Write;
	// the grace period covers the post-deadline stop/final exchange.
	l.conn.SetDeadline(c.runDeadline.Add(c.cfg.Timeout))
	if c.st.mesh {
		return
	}
	s := newSender(w, c.cfg.Workers, c.cfg.Fault, &c.led)
	// A failed relay write (already accounted as a drop) closes the
	// destination's link, so its reader reports the loss, unless the run is
	// stopping: that worker's final may still be on its way in.
	s.writeFailed = func(dst *leg) {
		if !c.stopped.Load() {
			dst.conn.Close()
		}
	}
	for q, r := range c.relays {
		if r != nil {
			r.setLeg(w, &leg{link: l, q: w})
			s.setLeg(q, &leg{link: c.slotLink(q), q: q})
		}
	}
	c.relays[w] = s
	c.built = append(c.built, s)
}

// shutdown stops accepting, closes every link and joins the readers — each
// flushes its relay on the way out, so afterwards nothing is left to write
// and the ledger and byte counters are final. A hello the loop never took
// has its connection closed. A clean star run's links get a bye after the
// join instead (not counted in BytesSent), and stay open on a keptListener.
func (c *coordinator) shutdown() {
	c.stopped.Store(true)
	c.ln.Close()
	c.acceptWG.Wait()
	st := c.st
	clean := !st.mesh && st.err == nil && st.converged && !st.cancelled && !slices.Contains(st.finals, nil) &&
		st.workersLost+st.workersRejoined+st.resharding == 0 && len(c.conns) == c.cfg.Workers
	if !clean {
		for _, l := range c.conns {
			l.conn.Close()
		}
	}
	c.readers.Wait()
	for len(c.events) > 0 {
		if in := <-c.events; in.l != nil {
			in.l.conn.Close()
		}
	}
	eventsPool.Put(c.events)
	_, keep := c.ln.(keptListener)
	for _, l := range c.conns {
		if !(clean && l.unhook != nil && l.unhook() && l.write(byeFrame) == nil && keep) {
			l.conn.Close()
		}
	}
}

// accept takes connections until shutdown closes the listener: the
// rendezvous and every rejoin, each handshake on its own goroutine, so a
// slow (or hostile) one never blocks the others.
func (c *coordinator) accept() {
	defer c.acceptWG.Done()
	for id := 1; ; id++ {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.acceptWG.Add(1)
		go func() {
			defer c.acceptWG.Done()
			conn.SetDeadline(time.Now().Add(dialTimeout))
			l := &link{conn: conn}
			if !c.post(inbound{event{kind: evHello, link: id, err: c.readHello(conn)}, l}) && c.writeLink(l, busyFrame) == nil {
				conn.Close()
			}
		}()
	}
}

// readHello reads a connecting worker's hello and checks its protocol
// version.
func (c *coordinator) readHello(conn net.Conn) error {
	f, err := readFrameInto(conn, maxFramePayload, nil)
	if err != nil {
		return fmt.Errorf("handshake failed: %v", err)
	}
	c.bytesIn.Add(int64(len(f)))
	cur := cursor{b: f[frameHeaderLen:]}
	if v := cur.u32(); f[4] != msgHello || cur.err != nil || v != protocolVersion {
		return fmt.Errorf("handshake failed: frame type %d, protocol version %d, want %d", f[4], v, protocolVersion)
	}
	return nil
}

// serveLink reads slot w's frames into pooled buffers: star broadcasts go
// out as read through the link's relay sender snd (nil on mesh), a park
// rings the doorbell, every other control frame is decoded and posted to
// the loop. A failed read (with heartbeats, also silence), a malformed
// frame, a final or a diverged frame is the reader's last event. As snd's
// only sender it flushes snd on exit.
func (c *coordinator) serveLink(w int, l *link, snd *sender) {
	defer c.readers.Done()
	if snd != nil {
		defer snd.flush()
	}
	conn := l.conn
	silence := c.cfg.Elastic.silence()
	f := getFrame() // the frame in hand, released on every way out
	defer func() { f.release() }()
	addrSeen := false
	for {
		if silence > 0 {
			conn.SetReadDeadline(time.Now().Add(silence))
		}
		b, err := readFrameInto(conn, maxFramePayload, f.b)
		if err != nil {
			c.post(inbound{event: event{kind: evLost, slot: w}})
			return
		}
		f.b = b
		payload := f.b[frameHeaderLen:]
		c.bytesIn.Add(int64(len(f.b)))
		ev := event{slot: w}
		var name, bad string // the frame decoded; what it was, if malformed
		switch f.typ() {
		case msgHeartbeat:
			// Liveness only: arriving is the whole message.
		case msgPark:
			if len(payload) > 0 {
				bad = "a malformed park frame"
				break
			}
			select {
			case c.park <- struct{}{}:
			default:
			}
		case msgBlock:
			h, cur := decodeBlock(payload)
			switch {
			case snd == nil:
				bad = "a data-plane frame on the mesh control plane"
			case cur.err != nil || h.from != w:
				bad = "a malformed block frame"
			case c.stopped.Load(): // counted p-1 sends, none relayed any more
				c.led.dropped.Add(int64(c.cfg.Workers - 1))
			default:
				f.seq, f.gen = h.seq, h.gen
				snd.send(f, h.flags&blockReliable != 0)
			}
		case msgStatus:
			ev.kind, name = evStatus, "status frame"
			ev.status, err = decodeStatus(payload)
		case msgCheckpoint:
			ev.kind, name = evCheckpoint, "checkpoint frame"
			ev.gen, ev.lo, ev.vals, err = decodeShard(payload, c.n)
		case msgReshardAck:
			ev.kind, name = evAck, "reshard ack"
			ev.gen, ev.lo, ev.vals, err = decodeShard(payload, c.n)
		case msgMeshAddr:
			cur := cursor{b: payload}
			if ev.addr = cur.str(); cur.err == nil && snd == nil && !addrSeen && ev.addr != "" {
				ev.kind, addrSeen = evMeshAddr, true
			} else {
				bad = "a malformed mesh address"
			}
		case msgDiverged:
			de := &operators.DivergedError{Worker: w}
			ev.kind, name, ev.err = evDiverged, "diverged frame", de
			de.Phase, de.Component, err = decodeDiverged(payload, c.n)
		case msgFinal:
			ev.kind, name, ev.fin = evFinal, "final frame", &c.fins[w]
			*ev.fin, err = decodeFinal(payload, c.n, c.cfg.Workers)
		default:
			bad = fmt.Sprintf("unexpected frame type %d", f.typ())
		}
		if err != nil {
			bad = "a malformed " + name
		}
		if bad != "" {
			ev = event{kind: evMalformed, slot: w, err: fmt.Errorf("dist: worker %d sent %s", w, bad)}
		}
		if ev.kind != evNone {
			c.post(inbound{event: ev})
		}
		switch ev.kind {
		case evMalformed, evDiverged, evFinal:
			return // the reader's last event
		}
		// Legs of the relay may still hold the frame: read the next one
		// into a buffer of its own.
		f.release()
		f = getFrame()
	}
}
