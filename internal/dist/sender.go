package dist

// The sending half of the data plane, for ONE source worker: a leg to every
// other worker, fault injection drawn per (frame, destination) from the
// source's RNG stream, one queue of (frame, due time) per leg, and a ledger
// of what was disposed of undelivered. The paper's rule for unbounded delays
// and out-of-order messages (only the freshest label from a source matters)
// is one per-leg rule, next, applied whenever a frame is queued on a leg
// and whenever the leg is served: write the newest due frame if it beats
// the last one written there, and dispose of everything it overtook. Every worker sends through one: a mesh worker's
// legs are its own TCP links; a star worker's is the uplink, one leg onto
// its control link to the coordinator, which owns one more per source link,
// whose legs write to the destinations' control connections (the relay).
// Owners differ only in construction. One writer goroutine per sender serves
// every leg, woken by a doorbell or by its one timer for the earliest due
// time. Once warm nothing here allocates per frame: frames are pooled, a
// frame is one buffer however many legs hold it, and a leg's queue keeps
// its backing array.

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
	err  error // a msgConnLost sentinel's cause
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
	f.b, f.err = f.b[:0], nil
	if cap(f.b) > frameHeaderLen+readFrameChunk {
		f.b = nil // a rare large frame is not worth pinning
	}
	framePool.Put(f)
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
	conn   net.Conn
	mu     sync.Mutex
	unhook func() bool // the welcome's; false once the cancellation closed conn
}

func (l *link) write(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.conn.Write(frame)
	return err
}

// held is one frame a leg holds: the leg's reference to f, writable from
// due on (the zero time: at once).
type held struct {
	f   *frameBuf
	due time.Time
}

// leg is one directed source-to-destination path of a sender. Its queue
// and filter are guarded by the sender's mu. queue holds, in send order,
// the frames handed to the leg and neither written nor disposed of yet.
// lastSeq is the newest sequence number written on the leg within
// generation seqGen; sequence streams restart at every re-shard, so the
// filter resets lazily when the leg is first served in a newer generation.
type leg struct {
	*link
	q       int // destination worker
	queue   []held
	lastSeq uint64
	seqGen  uint32
}

// due is the earliest time a frame queued on the leg can be written, never
// when none is queued.
func (l *leg) due() time.Time {
	t := never
	for _, h := range l.queue {
		if h.due.Before(t) {
			t = h.due
		}
	}
	return t
}

// never stands for no due time at all.
var never = time.Unix(1<<62, 0)

// sender is the data plane's sending half for source worker id (-1: uplink).
type sender struct {
	id  int
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
	fault  Fault
	rng    *rand.Rand
	stream *rand.Rand // the rngPool value rng started as; flush returns it
	hold   time.Duration

	// mu guards out, every installed leg's queue and filter, and wake. It
	// is never held across a socket write, and is taken inside a link's
	// mutex, never around one.
	mu sync.Mutex
	// out is indexed by destination worker (nil at id and at dead slots);
	// the owner swaps legs as the membership changes.
	out []*leg
	// wake is when the writer's next pass starts at the latest (never: no
	// pass is due); send rings the doorbell only for a frame due before it.
	wake time.Time

	notify    chan struct{} // doorbell: a frame is due before wake
	writer    sync.WaitGroup
	flushOnce sync.Once

	// bytesTo counts data-plane wire bytes per destination; it lives on the
	// sender rather than the leg so the totals survive leg replacement.
	bytesTo []atomic.Int64
}

// rngPool holds fault streams (~5 KiB each) between senders: reseeded, one
// draws exactly what a fresh rand.New(rand.NewSource(seed)) would.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

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
// and with it a freshly seeded RNG stream.
func newSender(id, p int, fault Fault, led *ledger) *sender {
	s := &sender{
		id:      id,
		out:     make([]*leg, p),
		led:     led,
		weight:  1,
		fault:   fault,
		hold:    4 * fault.MaxDelay,
		wake:    never,
		notify:  make(chan struct{}, 1),
		bytesTo: make([]atomic.Int64, p),
	}
	if fault.DropProb > 0 || fault.ReorderProb > 0 || fault.MaxDelay > 0 {
		s.stream = rngPool.Get().(*rand.Rand)
		s.stream.Seed(linkRNGSeed(fault.Seed, id))
		s.rng = s.stream
	}
	if s.hold <= 0 {
		s.hold = defaultReorderHold
	}
	s.writer.Add(1)
	go s.run()
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

// setLeg installs (or, with nil, removes) the leg to destination q and
// returns the leg it replaced, whose queued frames it drops: nobody will
// write them.
func (s *sender) setLeg(q int, next *leg) *leg {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.out[q]
	if prev != nil {
		s.abandon(prev)
	}
	s.out[q] = next
	return prev
}

// abandon drops every frame queued on leg l, which is leaving the sender;
// the caller holds mu.
func (s *sender) abandon(l *leg) {
	for _, h := range l.queue {
		s.dispose(h.f, &s.led.dropped)
	}
	clear(l.queue)
	l.queue = l.queue[:0]
}

// dispose accounts frame f, which a leg will never write, in ctr and
// releases the leg's reference to it.
func (s *sender) dispose(f *frameBuf, ctr *atomic.Int64) {
	s.led.discard(f.gen, ctr, s.weight)
	f.release()
}

// send fans frame f out to every peer, drawing the fault decisions in
// destination order from the per-source RNG; each leg it is not dropped for
// queues a reference of its own, and the caller keeps its own. It has a
// single caller per sender (a worker's compute goroutine, the relay's
// reader of the source link), and leaves the writing to the writer
// goroutine, except that it serves a reliable frame itself before
// returning: a worker's park frame must not overtake its final on the
// control link.
//
//repro:hotpath
func (s *sender) send(f *frameBuf, reliable bool) {
	var now time.Time // only a faulty sender delays, so only it reads the clock
	if s.rng != nil {
		now = time.Now()
	}
	s.mu.Lock()
	for q, l := range s.out {
		if q != s.id {
			s.post(l, f, reliable, now)
		}
	}
	s.mu.Unlock()
	if reliable {
		s.serveDue(now)
	}
}

// post hands frame f, sent at now, to leg l (nil: a dead slot): it draws
// the fault decision, accounts an injected loss or a dead slot as a drop,
// or else queues a reference to f on the leg, due after the drawn delay,
// applies the rule without taking anything, and rings the writer if f is
// due before its next pass. The caller holds mu. Applying the rule here is
// what makes a source that outruns a socket shed exactly the frames whose
// values are already stale instead of queueing them behind a stuck write.
// A leg's queue grows to its high-water mark once and is reused after.
func (s *sender) post(l *leg, f *frameBuf, reliable bool, now time.Time) {
	drop, delay := s.fault.decide(s.rng, s.hold, reliable)
	if drop || l == nil { // sent, never received
		s.led.discard(f.gen, &s.led.dropped, s.weight)
		return
	}
	due := now.Add(delay)
	f.refs.Add(1)
	if l.queue == nil {
		l.queue = make([]held, 0, 8) // enough for most legs, grown once
	}
	l.queue = append(l.queue, held{f: f, due: due})
	s.next(l, now, false)
	if due.Before(s.wake) {
		s.wake = due
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}

// next is the per-leg rule, applied to leg l at time now whenever a frame
// is queued on it or it is served; the caller holds mu. A frame from before
// the current membership generation is dropped: its send was erased from
// the books at the re-shard. Of the rest, the newest due frame is the only
// one due that can still be written, if it beats the newest written on the
// leg; with take (a serve) it is taken, and the caller writes what next
// returns. Everything else due, and everything at or below the newest
// written frame, due or not, can only ever be filtered, so it is disposed
// of now: reordered below it, duplicate at it. A disposed frame is never
// written, so the receiver cannot double-count it and the bandwidth is
// never spent; the discard counts as drained for the termination protocol,
// like a drop. What stays queued is the newest due frame, untaken, and the
// frames newer than it not yet due. The rule does no I/O, reads no clock
// and starts nothing.
//
//repro:hotpath
func (s *sender) next(l *leg, now time.Time, take bool) *frameBuf {
	s.led.mu.RLock()
	gen := s.led.gen
	s.led.mu.RUnlock()
	if l.seqGen != gen {
		l.lastSeq, l.seqGen = 0, gen
	}
	pick := -1
	for i, h := range l.queue {
		if h.f.gen == gen && h.f.seq > l.lastSeq && !h.due.After(now) && (pick < 0 || h.f.seq > l.queue[pick].f.seq) {
			pick = i
		}
	}
	var w *frameBuf
	if take && pick >= 0 {
		w = l.queue[pick].f
		l.lastSeq = w.seq
	}
	kept := 0
	for i, h := range l.queue {
		switch {
		case i == pick && w != nil:
		case h.f.gen != gen:
			s.dispose(h.f, &s.led.dropped)
		case h.f.seq == l.lastSeq:
			s.dispose(h.f, &s.led.duplicate)
		case h.f.seq < l.lastSeq, i != pick && !h.due.After(now):
			s.dispose(h.f, &s.led.reordered)
		default:
			l.queue[kept] = h
			kept++
		}
	}
	clear(l.queue[kept:])
	l.queue = l.queue[:kept]
	return w
}

// serve applies the rule to leg l at now and writes the frame it takes. It
// holds the leg's link mutex from the rule to the end of the write, so
// writes on a leg leave in the order the rule took them, and a frame the
// rule took is on the wire before anyone else serves the leg.
//
//repro:hotpath
func (s *sender) serve(l *leg, now time.Time) {
	l.mu.Lock()
	s.mu.Lock()
	f := s.next(l, now, true)
	s.mu.Unlock()
	if f == nil {
		l.mu.Unlock()
		return
	}
	_, err := l.conn.Write(f.b)
	l.mu.Unlock()
	if err == nil {
		s.bytesTo[l.q].Add(int64(len(f.b)))
		f.release()
		return
	}
	// A failed write is a lost frame: accounted as a drop, which keeps the
	// in-flight count drainable whatever the owner makes of the failure.
	s.dispose(f, &s.led.dropped)
	if s.writeFailed != nil {
		s.writeFailed(l)
	}
}

// serveDue serves every leg holding a frame due at now.
func (s *sender) serveDue(now time.Time) {
	for q := range s.out {
		s.mu.Lock()
		l := s.out[q]
		due := l != nil && !l.due().After(now)
		s.mu.Unlock()
		if due {
			s.serve(l, now)
		}
	}
}

// run is the writer goroutine. Each pass serves every leg holding a due
// frame, one after another, so a burst of fan-out frames is written in one
// scheduling quantum and send never waits on a socket; then it arms its one
// timer for the earliest due time left. Computing that time and publishing
// it as wake under one hold of mu, against send's check of wake under mu,
// makes missed wakeups impossible. A timer that fired while the doorbell
// woke the pass only costs an empty pass. Closing the doorbell ends it.
func (s *sender) run() {
	defer s.writer.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		select {
		case _, open := <-s.notify:
			if !open {
				timer.Stop()
				return
			}
		case <-timer.C:
		}
		s.serveDue(time.Now())
		s.mu.Lock()
		s.wake = never
		for _, l := range s.out {
			if l != nil && l.due().Before(s.wake) {
				s.wake = l.due()
			}
		}
		wake := s.wake
		s.mu.Unlock()
		timer.Stop()
		if wake.Before(never) {
			timer.Reset(time.Until(wake))
		}
	}
}

// flush quiesces the sender: the writer goroutine finishes its pass and
// exits, then every frame still queued is dropped — accounted, keeping
// sent = delivered + drained exact, rather than written to peers that are
// tearing down too. After flush nothing is written, the ledger's share of
// this sender and the byte totals are final, and the pooled fault stream is
// back in rngPool. It is safe to call more than once; the caller of send
// must have stopped sending first: flush closes the doorbell send rings.
func (s *sender) flush() {
	s.flushOnce.Do(func() {
		close(s.notify)
		s.writer.Wait()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, l := range s.out {
			if l != nil {
				s.abandon(l)
			}
		}
		if s.stream != nil && s.rng == s.stream {
			rngPool.Put(s.stream)
		}
		s.rng, s.stream = nil, nil
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
