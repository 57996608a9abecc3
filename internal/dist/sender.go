package dist

// The sending half of the data plane, for ONE source worker: a leg to every
// other worker, fault injection drawn per (frame, destination) from the
// source's RNG stream, a per-leg sequence filter behind a one-frame
// newest-wins outbox, and a ledger of what was disposed of undelivered —
// the paper's rule for unbounded delays and out-of-order messages (only the
// freshest label from a source matters) in one place. Every worker sends
// through one: a mesh worker's legs are its own TCP links; a star worker's
// is the uplink, one leg onto its control link to the coordinator, which
// owns one more per source link, whose legs write to the destinations'
// control connections (the relay). Owners differ only in construction.
// Once warm nothing here allocates per frame: frames and delay records are
// pooled, and a frame is one buffer however many legs hold it.

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// defaultReorderHold is the extra delay a reorder-injected frame is held
// for when Fault.MaxDelay does not imply one (4x MaxDelay otherwise): long
// enough that frames sent after it on the same leg overtake it.
const defaultReorderHold = 800 * time.Microsecond

// frameBuf is one whole frame (header included) with a reference count: a
// sender shares it between the source and every leg it was handed to, a
// worker's reader hands it to the compute goroutine. seq and gen are the
// block header's, for a frame a sender holds. The last release returns it
// to framePool.
type frameBuf struct {
	b    []byte
	seq  uint64
	gen  uint32
	refs atomic.Int32
}

// framePool is shared by every run in the process: how many frames a run
// holds at its peak is up to the scheduler and the network, and a pool owned
// by the run would bill that peak to every run that reaches it.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// frameAudit, a test hook, counts takes against releases and fills every
// released buffer with 0xFF bytes (NaN bits): a buffer released early or
// never, which the pool would hide, shows.
var frameAudit struct {
	on              atomic.Bool
	takes, releases atomic.Int64
}

// getFrame takes a buffer from the pool holding one reference, the caller's.
func getFrame() *frameBuf {
	f := framePool.Get().(*frameBuf)
	f.refs.Store(1)
	if frameAudit.on.Load() {
		frameAudit.takes.Add(1)
	}
	return f
}

func (f *frameBuf) typ() byte { return f.b[4] }

// release drops one reference; the last one returns the buffer to the pool.
func (f *frameBuf) release() {
	n := f.refs.Add(-1)
	if n < 0 {
		panic("dist: frame buffer released more often than it was referenced")
	}
	if n > 0 {
		return
	}
	if frameAudit.on.Load() {
		frameAudit.releases.Add(1)
		poison := f.b[:cap(f.b)]
		for i := range poison {
			poison[i] = 0xFF
		}
	}
	f.b = f.b[:0]
	if cap(f.b) > frameHeaderLen+readFrameChunk {
		f.b = nil // a rare large frame is not worth pinning
	}
	framePool.Put(f)
}

// delayQueue holds a sender's pending delayed deliveries; pending[i].idx is
// i, so removing one moves the last into its place.
type delayQueue struct {
	mu      sync.Mutex
	stopped bool
	pending []*delayRecord
	wg      sync.WaitGroup
}

// delayRecord is one delayed delivery of frame f to leg l of sender s. Each
// record owns one timer, made at its first use and re-armed after.
type delayRecord struct {
	s   *sender
	idx int
	l   *leg
	f   *frameBuf
	t   *time.Timer
}

// delayPool is process-wide like framePool: a sender lives for one run.
var delayPool = sync.Pool{New: func() any { return new(delayRecord) }}

// later schedules the delivery of f to l after delay, handing the record
// the caller's reference to f; it reports false (and does not schedule)
// when the queue has already been drained.
func (s *sender) later(delay time.Duration, l *leg, f *frameBuf) bool {
	d := &s.delays
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return false
	}
	r := delayPool.Get().(*delayRecord)
	r.s, r.idx, r.l, r.f = s, len(d.pending), l, f
	d.pending = append(d.pending, r)
	d.wg.Add(1)
	// The callback takes mu first, and we hold it until the record is
	// filled in, so even an immediately firing timer finds it.
	if r.t == nil {
		r.t = time.AfterFunc(delay, r.fire)
	} else {
		r.t.Reset(delay)
	}
	return true
}

// remove takes pending record r out of the queue and returns it to the
// pool; the caller holds mu.
func (d *delayQueue) remove(r *delayRecord) {
	last := len(d.pending) - 1
	moved := d.pending[last]
	d.pending[r.idx], moved.idx = moved, r.idx
	d.pending[last] = nil
	d.pending = d.pending[:last]
	r.s, r.l, r.f = nil, nil, nil
	delayPool.Put(r)
}

// fire is a record's timer callback, on its own goroutine as every timer
// callback is, so delayed writes never queue behind one another. It frees
// the record before delivering, and re-checks the stopped flag, so a timer
// that drain could not cancel disposes of its frame instead of racing
// teardown.
//
//repro:hotpath
func (r *delayRecord) fire() {
	s := r.s
	d := &s.delays
	d.mu.Lock()
	l, f := r.l, r.f
	d.remove(r)
	stopped := d.stopped
	d.mu.Unlock()
	if stopped {
		s.led.dropped.Add(s.weight)
		f.release()
	} else {
		s.deliver(l, f)
	}
	d.wg.Done()
}

// drain stops the queue: no new delays are accepted, every pending timer
// that can still be stopped is, its frame charged to the ledger as a drop (it
// was counted sent and will never be delivered), and drain blocks until
// callbacks that were already firing have returned.
func (d *delayQueue) drain() {
	d.mu.Lock()
	d.stopped = true
	d.cancel(nil, nil)
	d.mu.Unlock()
	d.wg.Wait()
}

// cancel disposes of the pending deliveries whose timers it can still stop:
// with f nil all of them, each a drop; else those to leg l that frame f,
// just written there, overtook (same generation, lower sequence number),
// each reordered now as the filter would when its timer fired. The caller
// holds mu.
//
//repro:hotpath
func (d *delayQueue) cancel(l *leg, f *frameBuf) {
	for i := len(d.pending) - 1; i >= 0; i-- {
		r := d.pending[i]
		if f != nil && (r.l != l || r.f.gen != f.gen || r.f.seq >= f.seq) || !r.t.Stop() {
			continue
		}
		if f == nil {
			r.s.led.dropped.Add(r.s.weight)
		} else {
			r.s.led.discard(r.f.gen, &r.s.led.reordered, r.s.weight)
		}
		r.f.release()
		d.remove(r)
		d.wg.Done()
	}
}

// ledger is the drain accounting of one or more senders: frames disposed of
// without being delivered, none of which can ever reactivate a worker.
// dropped counts injection drops and frames lost to dead legs, failed
// writes and teardown; reordered and duplicate the sequence-filter
// discards; all three are cumulative, for the final report. inGen is their
// sum over the current membership generation only — what the probes
// subtract from in-flight — and restarts at zero at each re-shard alongside
// the workers' sent/delivered.
type ledger struct {
	// mu guards gen and the reset of inGen: a bump taken under RLock after
	// re-confirming the frame's generation either lands before a re-shard's
	// reset (and is wiped with the rest of the old generation) or observes
	// the new generation and skips itself.
	mu  sync.RWMutex
	gen uint32

	dropped, reordered, duplicate, inGen atomic.Int64
}

// discard accounts one disposed frame as n sends: always on the cumulative
// counter, and on the generation's only while the frame's generation is
// still current — a frame from before a re-shard had its send erased from
// the in-flight books, so counting its disposal would push in-flight
// negative and stall termination.
func (g *ledger) discard(gen uint32, cum *atomic.Int64, n int64) {
	cum.Add(n)
	g.mu.RLock()
	if gen == g.gen {
		g.inGen.Add(n)
	}
	g.mu.RUnlock()
}

// enter opens membership generation gen: whatever is still in flight from
// the old one self-discards against the fence without touching inGen.
func (g *ledger) enter(gen uint32) {
	g.mu.Lock()
	g.gen = gen
	g.inGen.Store(0)
	g.mu.Unlock()
}

// drained counts the current generation's undelivered disposals.
func (g *ledger) drained() int64 { return g.inGen.Load() }

// link is one connection as its writers see it: whole prebuilt frames
// written under mu, so concurrent writers — data-plane legs, and the control
// frames on either end of a control link (write) — never interleave bytes.
type link struct {
	conn net.Conn
	mu   sync.Mutex
}

func (l *link) write(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.conn.Write(frame)
	return err
}

// leg is one directed source-to-destination path of a sender. lastSeq
// (guarded by the link mutex) is the newest sequence number written on it
// within generation seqGen; sequence streams restart at every re-shard, so
// the filter resets lazily when the first frame of a newer generation
// arrives — an older-generation frame never reaches the filter, the
// generation fence discards it first.
//
// pending is the leg's one-frame outbox: send publishes each undelayed
// frame there, holding a reference of its own, and the sender's writer
// goroutine swaps it out to write. Publishing over a frame the writer has
// not yet taken supersedes it (and releases it) before it ever touches the
// wire — newest-wins, the same discipline the filter applies after delays,
// so a source that outruns a socket sheds exactly the frames whose values
// are already stale instead of queueing them.
type leg struct {
	*link
	q       int // destination worker
	lastSeq uint64
	seqGen  uint32
	pending atomic.Pointer[frameBuf]
}

// sender is the data plane's sending half for source worker id (-1: uplink).
type sender struct {
	id int
	// out is indexed by destination worker (nil at id and at dead slots).
	// Entries are atomic pointers because the owner swaps legs as the
	// membership changes while the writer goroutine walks them.
	out []atomic.Pointer[leg]
	led *ledger
	// weight is the sends the source counted per frame and leg, charged to
	// the ledger when such a frame is disposed of: p-1 on an uplink, else 1.
	weight int64
	// writeFailed, when set, is told of every failed write after the lost
	// frame has been accounted (a failed write is a drop either way).
	writeFailed func(l *leg)

	// rng draws the fault decisions; only send touches it, and send has one
	// caller, so the decision order is the order of the frames it handles.
	// It is nil when Fault injects nothing: decide then draws nothing.
	fault Fault
	rng   *rand.Rand
	hold  time.Duration

	delays    delayQueue
	notify    chan struct{} // doorbell: some leg has a pending frame
	writer    sync.WaitGroup
	flushOnce sync.Once

	// bytesTo counts data-plane wire bytes per destination; it lives on the
	// sender rather than the leg so the totals survive leg replacement.
	bytesTo []atomic.Int64
}

// linkRNGSeed derives the fault RNG seed for frames originating at worker
// from — one stream per source, whoever runs the sender.
func linkRNGSeed(seed uint64, from int) int64 {
	return int64(seed) + int64(from)*7919
}

// decide draws the injection decision for one (frame, destination) pair in
// the canonical order — drop draw, transit-delay draw, reorder-hold draw,
// with reliable frames exempt from drop and hold. send is the only caller,
// on every topology, so identical seeds draw identical decision sequences
// per frame handled on either data plane (a frame an uplink shed never
// reaches the relay). The decision is drawn even for a currently-dead
// destination, so churn never desynchronizes the per-source streams.
func (f Fault) decide(rng *rand.Rand, hold time.Duration, reliable bool) (drop bool, delay time.Duration) {
	if !reliable && f.DropProb > 0 && rng.Float64() < f.DropProb {
		return true, 0
	}
	if f.MaxDelay > 0 {
		delay = time.Duration(rng.Int63n(int64(f.MaxDelay) + 1))
	}
	if !reliable && f.ReorderProb > 0 && rng.Float64() < f.ReorderProb {
		delay += hold
	}
	return false, delay
}

// newSender builds the sender for source id among p workers and starts its
// writer goroutine; the owner installs the legs with setLeg. A sender lives
// as long as one incarnation of its source: a rejoiner gets a fresh one,
// and with it a fresh RNG stream.
func newSender(id, p int, fault Fault, led *ledger) *sender {
	s := &sender{
		id:      id,
		out:     make([]atomic.Pointer[leg], p),
		led:     led,
		weight:  1,
		fault:   fault,
		hold:    4 * fault.MaxDelay,
		notify:  make(chan struct{}, 1),
		bytesTo: make([]atomic.Int64, p),
	}
	if fault.DropProb > 0 || fault.ReorderProb > 0 || fault.MaxDelay > 0 {
		s.rng = rand.New(rand.NewSource(linkRNGSeed(fault.Seed, id)))
	}
	if s.hold <= 0 {
		s.hold = defaultReorderHold
	}
	// One writer goroutine drains the leg outboxes, so send never waits on
	// a socket and a burst of fan-out frames is written in one scheduling
	// quantum. The store-then-ring / receive-then-scan pairing makes missed
	// wakeups impossible.
	s.writer.Add(1)
	go func() {
		defer s.writer.Done()
		for range s.notify {
			for q := range s.out {
				l := s.out[q].Load()
				if l == nil {
					continue
				}
				if f := l.pending.Swap(nil); f != nil {
					s.deliver(l, f)
				}
			}
		}
	}()
	return s
}

// newUplink builds a star worker's sender: one leg, onto its control link,
// and no faults (the relay injects them). The worker counts p-1 sends per
// broadcast, so the uplink charges a disposed frame p-1 times.
func newUplink(coord *link, p int, gen uint32) *sender {
	s := newSender(-1, 1, Fault{}, &ledger{gen: gen})
	s.weight = int64(p - 1)
	s.setLeg(0, &leg{link: coord})
	return s
}

// setLeg installs (or, with nil, removes) the leg to destination q. A frame
// still in the replaced leg's outbox is disposed of: nobody will write it.
func (s *sender) setLeg(q int, next *leg) {
	if prev := s.out[q].Swap(next); prev != nil {
		s.abandon(prev)
	}
}

// abandon accounts the frame, if any, left in a leg that is no longer
// installed.
func (s *sender) abandon(l *leg) {
	if f := l.pending.Swap(nil); f != nil {
		s.led.discard(f.gen, &s.led.dropped, s.weight)
		f.release()
	}
}

// send fans frame f out to every peer, drawing the fault decisions in
// destination order from the per-source RNG. Each leg it hands f to gets a
// reference of its own; the caller keeps its own. It has a single caller per
// sender (a worker's compute goroutine, the relay's reader of the source
// link); only delayed deliveries escape to timer callbacks.
//
//repro:hotpath
func (s *sender) send(f *frameBuf, reliable bool) {
	var ding struct{} // the doorbell's ring; hotpath flags a struct{}{} literal
	for q := range s.out {
		if q == s.id {
			continue
		}
		l := s.out[q].Load()
		drop, delay := s.fault.decide(s.rng, s.hold, reliable)
		if drop || l == nil { // injected loss, or a dead slot: sent, never received
			s.led.discard(f.gen, &s.led.dropped, s.weight)
			continue
		}
		f.refs.Add(1)
		if delay > 0 {
			if !s.later(delay, l, f) {
				// Teardown already began: no probe round will look again,
				// but the frame was counted sent — account the disposal.
				s.led.discard(f.gen, &s.led.dropped, s.weight)
				f.release()
			}
			continue
		}
		next := f
		if reliable {
			next = nil // written directly, below
		}
		if prev := l.pending.Swap(next); prev != nil {
			// The writer had not yet taken the previous frame: f supersedes
			// it before it ever touches the wire.
			s.led.discard(prev.gen, &s.led.reordered, s.weight)
			prev.release()
		}
		if reliable {
			// Never left where a later frame could supersede it (a frame
			// the writer took just before is filtered instead).
			s.deliver(l, f)
			continue
		}
		if s.out[q].Load() != l {
			s.abandon(l) // the owner replaced the leg under us
		}
		select {
		case s.notify <- ding:
		default:
		}
	}
}

// deliver writes frame f to a leg unless it predates the current membership
// generation (silently disposed — its send was erased at the re-shard) or a
// later-sequenced frame already went out on the leg — the sequence filter. A
// superseded or duplicate frame is discarded here, never written, so the
// receiver cannot double-count it and the bandwidth is never spent. The
// discard counts as drained for the termination protocol, like a drop.
// Either way the leg's reference to f is released.
//
//repro:hotpath
func (s *sender) deliver(l *leg, f *frameBuf) {
	defer f.release()
	s.led.mu.RLock()
	current := f.gen == s.led.gen
	s.led.mu.RUnlock()
	if !current {
		s.led.dropped.Add(s.weight)
		return
	}
	l.mu.Lock()
	if l.seqGen != f.gen {
		l.lastSeq = 0
		l.seqGen = f.gen
	}
	if f.seq <= l.lastSeq {
		newest := l.lastSeq
		l.mu.Unlock()
		if f.seq < newest {
			s.led.discard(f.gen, &s.led.reordered, s.weight)
		} else {
			s.led.discard(f.gen, &s.led.duplicate, s.weight)
		}
		return
	}
	l.lastSeq = f.seq
	_, err := l.conn.Write(f.b)
	l.mu.Unlock()
	if s.rng != nil { // only a faulty sender holds deliveries back
		s.delays.mu.Lock()
		s.delays.cancel(l, f)
		s.delays.mu.Unlock()
	}
	if err == nil {
		s.bytesTo[l.q].Add(int64(len(f.b)))
		return
	}
	// A failed write is a lost frame: accounted as a drop, which keeps the
	// in-flight count drainable whatever the owner makes of the failure.
	s.led.discard(f.gen, &s.led.dropped, s.weight)
	if s.writeFailed != nil {
		s.writeFailed(l)
	}
}

// flush quiesces the sender: cancel pending delayed sends (waiting out
// callbacks already firing), then let the writer goroutine finish its
// outboxes and exit. After flush the ledger's share of this sender and the
// per-destination byte totals are final. It is safe to call more than once;
// the caller of send must have stopped sending first, because flush closes
// the doorbell send rings.
func (s *sender) flush() {
	s.flushOnce.Do(func() {
		s.delays.drain()
		close(s.notify)
		s.writer.Wait()
		// The run is over; any frame still sitting in an outbox is
		// discarded (and accounted, keeping sent = delivered + drained
		// exact) rather than written to peers that are tearing down too.
		for q := range s.out {
			if l := s.out[q].Load(); l != nil {
				s.abandon(l)
			}
		}
	})
}

// linkBytes returns the per-destination data-plane byte counters (index =
// destination worker; zero at the sender's own slot), none for an uplink.
func (s *sender) linkBytes() []uint64 {
	if s.id < 0 {
		return nil
	}
	out := make([]uint64, len(s.bytesTo))
	for q := range s.bytesTo {
		out[q] = uint64(s.bytesTo[q].Load())
	}
	return out
}
