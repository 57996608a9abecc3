package runtime

import (
	gort "runtime"
	"testing"
	"time"
)

// The message transport's mailboxes on their own: ports built as
// RunMessage builds them, driven by hand, no worker goroutines.

// messageFixture is RunMessage up to the point where the workers would
// start, each port bound to a private copy of X0.
func messageFixture(t testing.TB, cfg Config) (*run, []chanPort) {
	t.Helper()
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ports := r.messagePorts(make(chan struct{}, 1))
	for w := range ports {
		ports[w].view = append([]float64(nil), r.cfg.X0...)
	}
	return r, ports
}

// mailboxPair is two workers on four components: worker 0 owns [0, 2).
func mailboxPair(t *testing.T) (*run, []chanPort) {
	return messageFixture(t, Config{Op: &halfOp{n: 4}, Workers: 2})
}

// Newest wins: two publishes before the receiver looks are one delivery of
// the second and one drop of the first, and the books balance.
func TestMessageKeepsTheNewestBlock(t *testing.T) {
	r, ports := mailboxPair(t)
	for _, v := range []float64{1, 2} {
		if err := ports[0].Publish([]float64{v, v}, false); err != nil {
			t.Fatal(err)
		}
	}
	if in, err := ports[1].Drain(); err != nil || in != Fresh {
		t.Fatalf("Drain = %v, %v; want Fresh", in, err)
	}
	if v := ports[1].view; v[0] != 2 || v[1] != 2 {
		t.Errorf("receiver holds %v, want the second block (2, 2)", v[:2])
	}
	o := r.q.Observe()
	if o.Sent != 2 || o.Delivered != 1 || o.Dropped != 1 || o.InFlight() != 0 {
		t.Errorf("sent %d delivered %d dropped %d in flight %d, want 2, 1, 1, 0", o.Sent, o.Delivered, o.Dropped, o.InFlight())
	}
	if in, err := ports[1].Drain(); err != nil || in != 0 {
		t.Errorf("second Drain = %v, %v; want nothing", in, err)
	}
}

// A delivery reactivates a passive receiver, visibly to the double
// collect: the flag clears and the epoch moves.
func TestMessageDeliveryReactivates(t *testing.T) {
	r, ports := mailboxPair(t)
	r.q.SetPassive(1)
	if err := ports[0].Publish([]float64{1, 1}, false); err != nil {
		t.Fatal(err)
	}
	before := r.q.Observe()
	if !ports[1].Passive() || before.InFlight() != 1 {
		t.Fatalf("before the Drain: passive %v, in flight %d; want true, 1", ports[1].Passive(), before.InFlight())
	}
	if _, err := ports[1].Drain(); err != nil {
		t.Fatal(err)
	}
	after := r.q.Observe()
	if r.q.IsPassive(1) || after.Epoch == before.Epoch || after.InFlight() != 0 {
		t.Errorf("after the Drain: passive %v, epoch %d -> %d, in flight %d; want active, a moved epoch, 0",
			r.q.IsPassive(1), before.Epoch, after.Epoch, after.InFlight())
	}
}

// The reliable final repeats the block the phase has just published, which
// the mailbox already holds: it sends nothing and counts nothing.
func TestMessageReliablePublishSendsNothing(t *testing.T) {
	r, ports := mailboxPair(t)
	if err := ports[0].Publish([]float64{1, 1}, true); err != nil {
		t.Fatal(err)
	}
	if o := r.q.Observe(); o.Sent != 0 || o.Delivered != 0 || o.Dropped != 0 {
		t.Errorf("a reliable publish moved the counters: %+v", o)
	}
	if in, err := ports[1].Drain(); err != nil || in != 0 {
		t.Errorf("Drain after a reliable publish = %v, %v; want nothing", in, err)
	}
}

// Stop wins over a rung doorbell: Wait returns Stop and leaves the
// mailbox unread.
func TestMessageWaitAfterStop(t *testing.T) {
	r, ports := mailboxPair(t)
	if err := ports[0].Publish([]float64{1, 1}, false); err != nil {
		t.Fatal(err)
	}
	r.stop()
	for i := 0; i < 10; i++ { // select picks at random between the bell and stop
		if in, err := ports[1].Wait(); err != nil || in != Stop {
			t.Fatalf("Wait after stop = %v, %v; want Stop", in, err)
		}
	}
	if ports[1].view[0] != 0 || r.q.Observe().InFlight() != 1 {
		t.Errorf("a stopped worker read its mailbox: view %v, in flight %d", ports[1].view[:2], r.q.Observe().InFlight())
	}
}

// stalled runs call while the test holds b's lock, which call needs to
// finish, and reports whether reached came true while call was held there.
func stalled(t *testing.T, b *blockSlot, call func(), reached func() bool) bool {
	t.Helper()
	b.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		call()
	}()
	ok := true
	for deadline := time.Now().Add(5 * time.Second); !reached(); gort.Gosched() {
		if time.Now().After(deadline) {
			ok = false
			break
		}
	}
	b.mu.Unlock()
	<-done
	return ok
}

// The orderings the double collect rests on, each caught halfway by the
// mailbox's lock: a publish counts its message sent before the version
// moves (in flight is never negative), and a Drain accounts a passive
// receiver active before it acknowledges anything (quiescence.go's rule),
// so no collect taken mid-Drain reads quiet.
func TestMessageOrdering(t *testing.T) {
	r, ports := mailboxPair(t)
	box := &ports[0].boxes[0*2+1]
	publish := func() {
		if err := ports[0].Publish([]float64{1, 1}, false); err != nil {
			t.Error(err)
		}
	}
	if !stalled(t, box, publish, func() bool { return r.q.Sent() == 1 }) {
		t.Fatal("the publish was not counted sent before the mailbox changed")
	}

	r.q.SetPassive(0) // the sender has parked: only the receiver can clear AllPassive
	r.q.SetPassive(1)
	var mid Observation
	drain := func() {
		if _, err := ports[1].Drain(); err != nil {
			t.Error(err)
		}
	}
	if !stalled(t, box, drain, func() bool { mid = r.q.Observe(); return !mid.AllPassive }) {
		t.Fatal("a passive receiver was not accounted active before its Drain read the mailbox")
	}
	if mid.InFlight() != 1 {
		t.Errorf("mid-Drain collect: in flight %d, want 1 (acknowledged before the reactivation)", mid.InFlight())
	}
	if o := r.q.Observe(); o.InFlight() != 0 || o.Delivered != 1 {
		t.Errorf("after the Drain: %+v, want one delivery and nothing in flight", o)
	}
}
