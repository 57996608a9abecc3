package dist

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"
)

// The sender's per-leg rule, checked by enumeration: one leg, at most three
// frames over two generations, and every order of send (reliable or not,
// delayed or not), serve (at a time before or past every delay), fence,
// leg replacement (by a fresh leg or by none) and flush, replayed from
// scratch against a sender with no writer goroutine, so the test is the
// only one serving. Replays that reach a state already seen are not
// extended.

// ruleDelay is the transit delay of a delayed frame: due only to a serve
// "late", at a now past every delay.
const ruleDelay = time.Duration(1 << 40)

// ruleStep is one event of an enumerated sequence.
type ruleStep struct {
	kind     byte // 's'end, 'v' serve, 'f'ence, 'r'eplace, 'x' flush
	reliable bool // send: a reliable frame
	delayed  bool // send: drawn ruleDelay (else no delay)
	late     bool // serve: at a now past every delay
	remove   bool // replace: by no leg at all
}

func (st ruleStep) String() string {
	switch st.kind {
	case 's':
		return fmt.Sprintf("send(reliable=%v delayed=%v)", st.reliable, st.delayed)
	case 'v':
		return fmt.Sprintf("serve(late=%v)", st.late)
	case 'f':
		return "fence"
	case 'r':
		return fmt.Sprintf("replace(remove=%v)", st.remove)
	}
	return "flush"
}

// frameID names a frame by its generation and sequence number.
type frameID struct {
	gen uint32
	seq uint64
}

// recConn records the block frames written to it.
type recConn struct {
	net.Conn
	written []frameID
}

func (c *recConn) Write(b []byte) (int, error) {
	h, _ := decodeBlock(b[frameHeaderLen:])
	c.written = append(c.written, frameID{h.gen, uint64(h.seq)})
	return len(b), nil
}

// ruleRun is one replay: the sender under test and the test's own books.
type ruleRun struct {
	s      *sender
	draw   *script
	conn   *recConn
	gen    uint32
	seq    uint64 // the last sequence number sent in gen
	sent   int64  // frames sent, all generations
	sentIn int64  // frames sent in gen
	// reliable marks the reliable frames; newest is the newest sequence
	// number written per generation.
	reliable map[frameID]bool
	newest   map[uint32]uint64

	sends, serves             int
	fenced, replaced, flushed bool
}

func newRuleRun() *ruleRun {
	r := &ruleRun{
		draw:     &script{},
		conn:     &recConn{},
		gen:      1,
		reliable: map[frameID]bool{},
		newest:   map[uint32]uint64{},
	}
	r.s = newSender(0, 2, Fault{MaxDelay: ruleDelay}, &ledger{gen: 1})
	close(r.s.notify) // the writer goroutine exits: the test serves by hand
	r.s.writer.Wait()
	r.s.notify = make(chan struct{}, 1)
	r.s.rng = rand.New(r.draw)
	r.s.setLeg(1, &leg{link: &link{conn: r.conn}, q: 1})
	return r
}

// legTo returns the leg s has installed to destination q, nil for none.
func (s *sender) legTo(q int) *leg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out[q]
}

// queued lists the frames queued on the installed leg.
func (r *ruleRun) queued() []held {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if l := r.s.out[1]; l != nil {
		return slices.Clone(l.queue)
	}
	return nil
}

// step applies st and checks every invariant after it; it returns a
// description of the first one broken, "" if none.
func (r *ruleRun) step(st ruleStep) string {
	before := map[frameID]bool{}
	for _, h := range r.queued() {
		before[frameID{h.f.gen, h.f.seq}] = true
	}
	wrote, legless := len(r.conn.written), r.s.legTo(1) == nil
	var now time.Time
	switch st.kind {
	case 's':
		r.sends++
		r.seq++
		id := frameID{r.gen, r.seq}
		r.reliable[id] = st.reliable
		before[id] = true
		r.draw.v = 0
		if st.delayed {
			r.draw.v = int64(ruleDelay)
		}
		f := blockFrame(0, r.seq, r.gen, 0, 1)
		r.s.send(f, st.reliable)
		f.release()
		r.sent++
		r.sentIn++
	case 'v':
		r.serves++
		now = time.Now()
		if st.late {
			now = now.Add(2 * ruleDelay)
		}
		r.s.serve(r.s.legTo(1), now)
	case 'f':
		r.fenced = true
		r.gen++
		r.seq, r.sentIn = 0, 0
		r.s.led.enter(r.gen)
	case 'r':
		r.replaced = true
		next := &leg{link: &link{conn: r.conn}, q: 1}
		if st.remove {
			next = nil
		}
		r.s.setLeg(1, next)
	case 'x':
		r.flushed = true
		r.s.flush()
	}

	queue := r.queued()
	after := map[frameID]bool{}
	for _, h := range queue {
		after[frameID{h.f.gen, h.f.seq}] = true
	}
	written := r.conn.written[wrote:]
	for _, id := range written {
		if id.gen != r.gen {
			return fmt.Sprintf("wrote %v of generation %d after the fence to %d", id, id.gen, r.gen)
		}
		if id.seq <= r.newest[id.gen] {
			return fmt.Sprintf("wrote %v after sequence number %d of its generation", id, r.newest[id.gen])
		}
		r.newest[id.gen] = id.seq
		delete(before, id)
	}
	for id := range before {
		if after[id] || !r.reliable[id] || st.kind == 'r' || st.kind == 'x' || legless || id.gen != r.gen || r.newest[id.gen] > id.seq {
			continue
		}
		return fmt.Sprintf("disposed of reliable %v with nothing newer of its generation written", id)
	}

	led := r.s.led
	var writtenIn, queuedIn int64
	for _, id := range r.conn.written {
		if id.gen == r.gen {
			writtenIn++
		}
	}
	for _, h := range queue {
		if h.f.gen != r.gen {
			continue
		}
		queuedIn++
		if h.f.seq <= r.newest[r.gen] {
			return fmt.Sprintf("%v stays queued, overtaken by sequence number %d", frameID{h.f.gen, h.f.seq}, r.newest[r.gen])
		}
	}
	books := int64(len(r.conn.written)) + led.dropped.Load() + led.reordered.Load() + led.duplicate.Load() + int64(len(queue))
	if books != r.sent {
		return fmt.Sprintf("books: %d sent, %d written + dropped + reordered + duplicate + queued", r.sent, books)
	}
	if got := writtenIn + led.drained() + queuedIn; got != r.sentIn {
		return fmt.Sprintf("generation %d books: %d sent, %d written + drained + queued", r.gen, r.sentIn, got)
	}
	if live := frameAudit.takes.Load() - frameAudit.releases.Load(); live != int64(len(queue)) {
		return fmt.Sprintf("%d frame buffers live, %d queued", live, len(queue))
	}
	if st.kind == 'v' {
		for _, h := range queue {
			if !h.due.After(now) {
				return fmt.Sprintf("serve left %v queued, due", frameID{h.f.gen, h.f.seq})
			}
		}
	}
	return ""
}

// options lists the steps the enumeration may take next.
func (r *ruleRun) options() []ruleStep {
	if r.flushed {
		return nil
	}
	var opts []ruleStep
	if r.sends < 3 {
		for _, rel := range []bool{false, true} {
			for _, del := range []bool{false, true} {
				opts = append(opts, ruleStep{kind: 's', reliable: rel, delayed: del})
			}
		}
	}
	if r.serves < 2 && r.s.legTo(1) != nil {
		opts = append(opts, ruleStep{kind: 'v'}, ruleStep{kind: 'v', late: true})
	}
	if !r.fenced {
		opts = append(opts, ruleStep{kind: 'f'})
	}
	if !r.replaced {
		opts = append(opts, ruleStep{kind: 'r'}, ruleStep{kind: 'r', remove: true})
	}
	return append(opts, ruleStep{kind: 'x'})
}

// key is the replay's state: everything a later step or check reads.
func (r *ruleRun) key() string {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	k := fmt.Sprint(r.gen, r.seq, r.sent, r.sentIn, r.newest[1], r.newest[2], r.conn.written,
		r.sends, r.serves, r.fenced, r.replaced, r.flushed,
		r.s.led.dropped.Load(), r.s.led.reordered.Load(), r.s.led.duplicate.Load(), r.s.led.drained())
	if l := r.s.out[1]; l != nil {
		k += fmt.Sprint(" leg", l.lastSeq, l.seqGen)
		for _, h := range l.queue {
			id := frameID{h.f.gen, h.f.seq}
			k += fmt.Sprint(" ", id, r.reliable[id], h.due.After(time.Now()))
		}
	}
	return k
}

// TestSenderRuleEveryOrder replays every sequence of rule events and checks
// after every step that:
//   - the books balance: sent = written + dropped + reordered + duplicate +
//     queued, and within the current generation sent = written + drained +
//     queued;
//   - a reliable frame is disposed of only after a newer frame of its
//     generation was written, or on fence, replacement or flush;
//   - no frame from an older generation is written after a fence, and
//     within a generation written sequence numbers strictly increase;
//   - nothing queued is already overtaken by a written frame, and a serve
//     leaves nothing due queued (it writes the newest due frame);
//   - frame buffers taken equal those released plus those queued.
func TestSenderRuleEveryOrder(t *testing.T) {
	frameAudit.on.Store(true)
	defer frameAudit.on.Store(false)
	seen := map[string]bool{}
	var walk func(path []ruleStep)
	walk = func(path []ruleStep) {
		frameAudit.takes.Store(0)
		frameAudit.releases.Store(0)
		r := newRuleRun()
		for i, st := range path {
			if bad := r.step(st); bad != "" {
				t.Fatalf("%v: %s", path[:i+1], bad)
			}
		}
		key, opts := r.key(), r.options()
		r.s.flush()
		if takes, releases := frameAudit.takes.Load(), frameAudit.releases.Load(); takes != releases {
			t.Fatalf("%v: %d frame buffers taken, %d released", path, takes, releases)
		}
		if seen[key] {
			return
		}
		seen[key] = true
		for _, st := range opts {
			walk(append(path[:len(path):len(path)], st))
		}
	}
	walk(nil)
	t.Logf("%d distinct states", len(seen))
}
