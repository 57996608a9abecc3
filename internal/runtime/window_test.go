package runtime

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/operators"
	"repro/internal/vec"
)

// stencilOp is the multigrid scenario's 5-point Jacobi stencil on an n x n
// grid with weight w per neighbour (the scenario's is 1/4), so ||A||_inf =
// 4w.
func stencilOp(n int, w float64) *operators.SparseLinear {
	var entries []vec.COOEntry
	b := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := r*n + c
			b[i] = 1 + float64(i%5)/4
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] >= 0 && nb[0] < n && nb[1] >= 0 && nb[1] < n {
					entries = append(entries, vec.COOEntry{Row: i, Col: nb[0]*n + nb[1], Val: w})
				}
			}
		}
	}
	return operators.NewSparseLinear(vec.NewCSR(n*n, n*n, entries), b)
}

// windowStencil is a damped stencil on a 7 x 7 grid (q = 0.8) for three
// workers, which own rows [0, 17), [17, 33) and [33, 49): worker 2's rows
// read grid rows 4-6 and worker 0's rows 0-3, so neither reads the other's
// block and only the pairs of neighbours exchange anything.
func windowStencil() (*operators.SparseLinear, float64) {
	op := stencilOp(7, 0.2)
	return op, op.ContractionFactor()
}

// One publish per worker is one message per reader whose window is not
// empty: 4, not 6, on both layouts, and once every reader drained, nothing
// is in flight and no reader holds a value of a block it does not read.
func TestPortSendsOnlyToReaders(t *testing.T) {
	eachLayout(t, func(t *testing.T, perPair bool) {
		op, _ := windowStencil()
		r, ports := portFixture(t, Config{Op: op, Workers: 3}, perPair)
		for w := range ports {
			lo, hi := ports[w].Block()
			vals := make([]float64, hi-lo)
			fill(vals, float64(w+1))
			if err := ports[w].Publish(vals, false); err != nil {
				t.Fatal(err)
			}
		}
		if o := r.q.Observe(); o.Sent != 4 {
			t.Errorf("3 publishes sent %d messages, want 4 (0->1, 1->0, 1->2, 2->1)", o.Sent)
		}
		for w := range ports {
			if _, err := ports[w].Drain(); err != nil {
				t.Fatal(err)
			}
		}
		if o := r.q.Observe(); o.InFlight() != 0 || o.Delivered != 4 {
			t.Errorf("after every Drain: %+v, want 4 delivered and nothing in flight", o)
		}
		for d := range ports {
			var want [49]float64
			for s := range ports {
				lo, hi := r.window(s, d)
				for c := lo; c < hi; c++ {
					want[c] = float64(s + 1)
				}
			}
			lo, hi := ports[d].Block()
			for c, v := range ports[d].view {
				if (c < lo || c >= hi) && v != want[c] {
					t.Errorf("reader %d holds %v at component %d, want %v", d, v, c, want[c])
				}
			}
		}
	})
}

// A whole run on both layouts at p = 3: it converges to the fixed point
// within Tol/(1-q), every message it counts sent was delivered or dropped,
// and the blocks of the pair that exchanges nothing (0 and 2) are never
// written into each other's views. Done bounds the run: a port that counts
// a message to a peer that never reads it leaves one in flight for ever,
// and such a run ends cancelled instead of converged.
func TestPortRunExchangesOnlyWindows(t *testing.T) {
	op, q := windowStencil()
	const tol = 1e-10
	xstar, ok := operators.FixedPoint(op, nil, 1e-14, 1<<20)
	if !ok {
		t.Fatal("no reference fixed point")
	}
	eachLayout(t, func(t *testing.T, perPair bool) {
		done := make(chan struct{})
		timer := time.AfterFunc(20*time.Second, func() { close(done) })
		defer timer.Stop()
		r, ports, workers, err := newRun(Config{Op: op, Workers: 3, Tol: tol, MaxUpdatesPerWorker: 1 << 18, Done: done}, perPair)
		if err != nil {
			t.Fatal(err)
		}
		nan := func(d, s int) []float64 { return workers[d].View[r.blocks[s][0]:r.blocks[s][1]] }
		fill(nan(2, 0), math.NaN())
		fill(nan(0, 2), math.NaN())
		var wg sync.WaitGroup
		wg.Add(len(workers))
		for w := range workers {
			go func() {
				defer wg.Done()
				if err := workers[w].Run(&ports[w]); err != nil {
					r.fail(err)
				}
			}()
		}
		r.supervise()
		wg.Wait()
		if r.err != nil || !r.converged.Load() {
			t.Fatalf("err %v, converged %v, cancelled %v", r.err, r.converged.Load(), r.cancelled.Load())
		}
		x := make([]float64, len(xstar))
		sent := int64(0)
		for w, b := range r.blocks {
			copy(x[b[0]:b[1]], workers[w].View[b[0]:b[1]])
			sent += int64(workers[w].Updates) * ports[w].readers
		}
		if e := vec.DistInf(x, xstar); e > tol/(1-q) {
			t.Errorf("error %v above Tol/(1-q) = %v", e, tol/(1-q))
		}
		if o := r.q.Observe(); o.Sent != sent || o.Sent != o.Delivered+o.Dropped {
			t.Errorf("%+v: want %d sent (one per phase and reader) and all delivered or dropped", o, sent)
		}
		for _, v := range append(nan(2, 0), nan(0, 2)...) {
			if !math.IsNaN(v) {
				t.Fatalf("a view was written with a block it does not read: %v", v)
			}
		}
	})
}
