package runtime

import (
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/flexible"
)

// The shared-memory transport on its own: ports built as RunShared builds
// them, driven by hand, no clock.

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

// sharedFixture is RunShared up to the point where the workers would start.
func sharedFixture(t testing.TB, cfg Config) (*run, []sharedPort, []Worker) {
	t.Helper()
	r, err := newRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ports := r.sharedPorts()
	workers := make([]Worker, len(ports))
	for w := range workers {
		workers[w] = Worker{
			ID: w, Op: cfg.Op, Tol: r.cfg.Tol, Budget: r.cfg.MaxUpdatesPerWorker,
			View: append([]float64(nil), r.cfg.X0...),
		}
		ports[w].wk = &workers[w]
	}
	return r, ports, workers
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
	for _, sched := range []flexible.Schedule{flexible.None(), flexible.Uniform(4)} {
		_, ports, workers := sharedFixture(t, Config{Op: &halfOp{n: 256}, Workers: 4, Flexible: sched})
		lo, hi := ports[0].Block()
		var started, wg sync.WaitGroup
		for w := 1; w < len(ports); w++ {
			started.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				started.Done()
				prev, block := 0.0, workers[w].View[lo:hi]
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
}

// waitScript is a sharedPort whose Wait runs a scripted step first.
type waitScript struct {
	*sharedPort
	before func()
}

func (p waitScript) Wait() (Input, error) {
	p.before()
	return p.sharedPort.Wait()
}

// Drain copies a peer block once per publish and reports Fresh only then,
// so a parked worker re-evaluates its block when a peer published and not
// on every scheduler yield.
func TestSharedDrainSkipsUnchangedBlocks(t *testing.T) {
	op := &halfOp{n: 8}
	r, ports, workers := sharedFixture(t, Config{Op: op, Workers: 2, Tol: 1e-9})
	lo, hi := ports[1].Block()
	peer := workers[0].View[lo:hi]
	drain := func(want Input) {
		t.Helper()
		if in, err := ports[0].Drain(); err != nil || in != want {
			t.Fatalf("Drain = %v, %v; want %v", in, err, want)
		}
	}
	vals := make([]float64, hi-lo)
	fill(vals, 3)

	drain(0) // nothing published yet
	if err := ports[1].Publish(vals, false); err != nil {
		t.Fatal(err)
	}
	drain(Fresh)
	if peer[0] != 3 || peer[len(peer)-1] != 3 {
		t.Fatalf("Drain did not copy the published block: %v", peer)
	}
	fill(peer, -1)
	drain(0)
	if peer[0] != -1 {
		t.Fatal("Drain copied a block that was not published again")
	}

	// Worker 0 parked, worker 1 active (so nothing certifies): eight waits,
	// one peer publish before the fourth.
	r.q.SetPassive(0)
	waits := 0
	err := workers[0].Run(waitScript{&ports[0], func() {
		switch waits++; waits {
		case 4:
			if op.evals.Load() != 0 {
				t.Errorf("%d evaluations by a parked worker no peer published to", op.evals.Load())
			}
			if err := ports[1].Publish(vals, false); err != nil {
				t.Error(err)
			}
		case 8:
			r.stop()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := op.evals.Load(), int64(len(peer)); got != want {
		t.Errorf("%d evaluations over 8 waits with one peer publish, want one re-verification of the block = %d", got, want)
	}
	if peer[0] != 3 {
		t.Errorf("the parked worker did not absorb the publish: %v", peer)
	}
}

// exchangeFixture is the multigrid shape of the benchmark's shared and
// message workloads, over the named transport: 961 components, 2 blocks.
func exchangeFixture(t testing.TB, transport string) (exchange func()) {
	cfg := Config{Op: &halfOp{n: 961}, Workers: 2}
	var from, to Transport
	switch transport {
	case "shared":
		_, ports, _ := sharedFixture(t, cfg)
		from, to = &ports[0], &ports[1]
	case "message":
		_, ports := messageFixture(t, cfg)
		from, to = &ports[0], &ports[1]
	default:
		t.Fatalf("no transport %q", transport)
	}
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

var exchangeTransports = []string{"shared", "message"}

func TestSharedExchangeDoesNotAllocate(t *testing.T) {
	for _, transport := range exchangeTransports {
		if avg := testing.AllocsPerRun(100, exchangeFixture(t, transport)); avg != 0 {
			t.Errorf("%s: one Publish + one Drain allocate %v times, want 0", transport, avg)
		}
	}
}

// BenchmarkSharedExchange is the transport's share of a phase on the
// multigrid workloads: publish one 481-component block, drain one peer
// block.
func BenchmarkSharedExchange(b *testing.B) {
	for _, transport := range exchangeTransports {
		b.Run(transport, func(b *testing.B) {
			exchange := exchangeFixture(b, transport)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exchange()
			}
		})
	}
}
