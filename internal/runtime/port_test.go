package runtime

import (
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flexible"
)

// The in-process port on its own, in both box layouts: ports built as
// RunShared and RunMessage build them, driven by hand, no clock.

// halfOp is F_i(x) = x_i/2 and counts its evaluations.
type halfOp struct {
	n     int
	evals atomic.Int64
}

func (o *halfOp) Dim() int     { return o.n }
func (o *halfOp) Name() string { return "half" }
func (o *halfOp) Component(i int, x []float64) float64 {
	o.evals.Add(1)
	return x[i] / 2
}

// layouts are the two box layouts, by engine name.
var layouts = []struct {
	name    string
	perPair bool
}{{"shared", false}, {"message", true}}

// eachLayout runs test once per box layout, as a subtest.
func eachLayout(t *testing.T, test func(t *testing.T, perPair bool)) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) { test(t, l.perPair) })
	}
}

// portFixture is RunShared or RunMessage up to the point where the workers
// would start, each port bound to a private copy of X0.
func portFixture(t testing.TB, cfg Config, perPair bool) (*run, []port) {
	t.Helper()
	r, ports, _, err := newRun(cfg, perPair)
	if err != nil {
		t.Fatal(err)
	}
	return r, ports
}

// portPair is two workers on four components: worker 0 owns [0, 2).
func portPair(t *testing.T, perPair bool) (*run, []port) {
	return portFixture(t, Config{Op: &halfOp{n: 4}, Workers: 2}, perPair)
}

func fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// A reader never sees a half-written block: one writer publishes its block
// filled with 1, 2, ..., K while three readers drain, and every value of
// the block a reader holds is the same and never goes back. Under a
// flexible schedule the interpolated partials are whole blocks too. (Run
// under -race: the per-coordinate transport this replaced tore blocks.)
func TestSharedReadersSeeWholeBlocks(t *testing.T) {
	const final = 2000
	eachLayout(t, func(t *testing.T, perPair bool) {
		for _, sched := range []flexible.Schedule{flexible.None(), flexible.Uniform(4)} {
			_, ports := portFixture(t, Config{Op: &halfOp{n: 256}, Workers: 4, Flexible: sched}, perPair)
			lo, hi := ports[0].Block()
			var started, wg sync.WaitGroup
			for w := 1; w < len(ports); w++ {
				started.Add(1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					started.Done()
					prev, block := 0.0, ports[w].view[lo:hi]
					for prev < final {
						if _, err := ports[w].Drain(); err != nil {
							t.Error(err)
							return
						}
						for _, v := range block {
							if v != block[0] || v < prev {
								t.Errorf("reader %d holds a torn or stale block: %v next to %v, after %v", w, v, block[0], prev)
								return
							}
						}
						prev = block[0]
						gort.Gosched()
					}
				}()
			}
			started.Wait()
			vals := make([]float64, hi-lo)
			for k := 1; k <= final; k++ {
				fill(vals, float64(k))
				if err := ports[0].Publish(vals, false); err != nil {
					t.Fatal(err)
				}
				gort.Gosched() // let the readers in, on one CPU too
			}
			wg.Wait()
		}
	})
}

// waitScript is a port whose Wait runs a scripted step first.
type waitScript struct {
	*port
	before func()
}

func (p waitScript) Wait() (Input, error) {
	p.before()
	return p.port.Wait()
}

// Drain copies a peer block once per publish and reports Fresh only then,
// and a parked worker sleeps on its doorbell: it evaluates nothing on a
// wake-up with nothing to read, and re-verifies its block once per wake-up
// that brought a publish, however many versions that publish superseded.
func TestSharedDrainSkipsUnchangedBlocks(t *testing.T) {
	eachLayout(t, func(t *testing.T, perPair bool) {
		op := &halfOp{n: 8}
		r, ports := portFixture(t, Config{Op: op, Workers: 2, Tol: 1e-9}, perPair)
		lo, hi := ports[1].Block()
		peer := ports[0].view[lo:hi]
		drain := func(want Input) {
			t.Helper()
			if in, err := ports[0].Drain(); err != nil || in != want {
				t.Fatalf("Drain = %v, %v; want %v", in, err, want)
			}
		}
		publish := func(v float64) {
			vals := make([]float64, hi-lo)
			fill(vals, v)
			if err := ports[1].Publish(vals, false); err != nil {
				t.Error(err)
			}
		}

		drain(0) // nothing published yet
		publish(3)
		drain(Fresh)
		if peer[0] != 3 || peer[len(peer)-1] != 3 {
			t.Fatalf("Drain did not copy the published block: %v", peer)
		}
		fill(peer, -1)
		drain(0)
		if peer[0] != -1 {
			t.Fatal("Drain copied a block that was not published again")
		}

		// Worker 0 parked; before each Wait, one step of the script. The
		// first Wait takes the ring of the publish drained by hand above: a
		// wake-up with nothing to read.
		ports[0].Account(Passive)
		own, _ := ports[0].Block()
		evals := func() int64 { return op.evals.Load() / int64(lo-own) } // whole-block re-verifications
		wk := Worker{ID: 0, Op: op, Tol: 1e-9, Budget: 1 << 10, View: ports[0].view}
		waits := 0
		err := wk.Run(waitScript{&ports[0], func() {
			switch waits++; waits {
			case 2:
				if evals() != 0 {
					t.Errorf("a wake-up with nothing to read cost %d evaluations", op.evals.Load())
				}
				publish(4)
			case 3:
				if evals() != 1 {
					t.Errorf("%d block re-verifications after one publish, want 1", evals())
				}
				publish(5)
				publish(6)
			case 4:
				if evals() != 2 {
					t.Errorf("%d block re-verifications after a wake-up with two publishes, want 2 in all", evals())
				}
				r.stop()
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if waits != 4 || peer[0] != 6 || !ports[0].Passive() {
			t.Errorf("%d waits, peer block %v, passive %v; want 4 waits, the newest block (6), passive", waits, peer, ports[0].Passive())
		}
	})
}

// Newest wins: two publishes before the receiver looks are one delivery of
// the second and one drop of the first, and the books balance.
func TestMessageKeepsTheNewestBlock(t *testing.T) {
	eachLayout(t, func(t *testing.T, perPair bool) {
		r, ports := portPair(t, perPair)
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
	})
}

// One publish is one message per peer, and in flight is the versions the
// readers have not read: on the shared layout too, where three readers
// share the writer's one box, each reader's books balance on its own.
func TestPortBooksBalancePerReader(t *testing.T) {
	eachLayout(t, func(t *testing.T, perPair bool) {
		r, ports := portFixture(t, Config{Op: &halfOp{n: 8}, Workers: 4}, perPair)
		for _, v := range []float64{1, 2} {
			if err := ports[0].Publish([]float64{v, v}, false); err != nil {
				t.Fatal(err)
			}
		}
		for reader, want := range []int64{6, 4, 2, 0} {
			if o := r.q.Observe(); o.Sent != 6 || o.InFlight() != want {
				t.Fatalf("after %d readers drained: sent %d, in flight %d; want 6, %d", reader, o.Sent, o.InFlight(), want)
			}
			if reader < 3 {
				if _, err := ports[reader+1].Drain(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// A delivery reactivates a passive receiver, visibly to the double
// collect: the flag clears and the epoch moves.
func TestMessageDeliveryReactivates(t *testing.T) {
	eachLayout(t, func(t *testing.T, perPair bool) {
		r, ports := portPair(t, perPair)
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
	})
}

// The reliable final repeats the block the phase has just published, which
// the box already holds: it sends nothing and counts nothing.
func TestMessageReliablePublishSendsNothing(t *testing.T) {
	eachLayout(t, func(t *testing.T, perPair bool) {
		r, ports := portPair(t, perPair)
		if err := ports[0].Publish([]float64{1, 1}, true); err != nil {
			t.Fatal(err)
		}
		if o := r.q.Observe(); o.Sent != 0 || o.Delivered != 0 || o.Dropped != 0 {
			t.Errorf("a reliable publish moved the counters: %+v", o)
		}
		if in, err := ports[1].Drain(); err != nil || in != 0 {
			t.Errorf("Drain after a reliable publish = %v, %v; want nothing", in, err)
		}
	})
}

// Stop wins over a rung doorbell: Wait returns Stop and leaves the box
// unread.
func TestMessageWaitAfterStop(t *testing.T) {
	eachLayout(t, func(t *testing.T, perPair bool) {
		r, ports := portPair(t, perPair)
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
			t.Errorf("a stopped worker read its box: view %v, in flight %d", ports[1].view[:2], r.q.Observe().InFlight())
		}
	})
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
// box's lock: a publish counts its message sent before the version moves
// (in flight is never negative), and a Drain accounts a passive receiver
// active before it acknowledges anything (quiescence.go's rule), so no
// collect taken mid-Drain reads quiet.
func TestMessageOrdering(t *testing.T) {
	eachLayout(t, func(t *testing.T, perPair bool) {
		r, ports := portPair(t, perPair)
		box := &r.boxes[r.box(0, 1)]
		publish := func() {
			if err := ports[0].Publish([]float64{1, 1}, false); err != nil {
				t.Error(err)
			}
		}
		if !stalled(t, box, publish, func() bool { return r.q.Sent() == 1 }) {
			t.Fatal("the publish was not counted sent before the box changed")
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
			t.Fatal("a passive receiver was not accounted active before its Drain read the box")
		}
		if mid.InFlight() != 1 {
			t.Errorf("mid-Drain collect: in flight %d, want 1 (acknowledged before the reactivation)", mid.InFlight())
		}
		if o := r.q.Observe(); o.InFlight() != 0 || o.Delivered != 1 {
			t.Errorf("after the Drain: %+v, want one delivery and nothing in flight", o)
		}
	})
}

// exchangeFixture is the multigrid shape of the benchmark's shared and
// message workloads, over the named layout: 961 components, 2 blocks.
func exchangeFixture(t testing.TB, perPair bool) (exchange func()) {
	_, ports := portFixture(t, Config{Op: &halfOp{n: 961}, Workers: 2}, perPair)
	from, to := &ports[0], &ports[1]
	lo, hi := from.Block()
	vals := make([]float64, hi-lo)
	return func() {
		if err := from.Publish(vals, false); err != nil {
			t.Fatal(err)
		}
		if in, err := to.Drain(); err != nil || in != Fresh {
			t.Fatalf("Drain = %v, %v", in, err)
		}
	}
}

func TestSharedExchangeDoesNotAllocate(t *testing.T) {
	for _, l := range layouts {
		if avg := testing.AllocsPerRun(100, exchangeFixture(t, l.perPair)); avg != 0 {
			t.Errorf("%s: one Publish + one Drain allocate %v times, want 0", l.name, avg)
		}
	}
}

// BenchmarkSharedExchange is the port's share of a phase on the multigrid
// workloads: publish one 481-component block, drain one peer block.
func BenchmarkSharedExchange(b *testing.B) {
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			exchange := exchangeFixture(b, l.perPair)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exchange()
			}
		})
	}
}
