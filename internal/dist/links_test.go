package dist

import (
	"errors"
	"math"
	gort "runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/mldata"
	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// idleLinks returns the pairs idle in the free list.
func idleLinks() []linkPair {
	keptLinks.Lock()
	defer keptLinks.Unlock()
	return slices.Clone(keptLinks.pairs)
}

// dropIdleLinks closes every idle pair and empties the free list.
func dropIdleLinks() {
	keptLinks.Lock()
	defer keptLinks.Unlock()
	for _, pr := range keptLinks.pairs {
		pr.coord.Close()
		pr.worker.Close()
	}
	keptLinks.pairs = nil
}

// nanOp evaluates NaN everywhere: every solve of it diverges.
type nanOp struct{ operators.Operator }

func (nanOp) Component(int, []float64) float64 { return math.NaN() }

// TestStarLinksKeptAcrossSolves: a clean star solve leaves its links idle,
// the next one of its width runs on exactly those links — a lasso solve, then
// a ridge solve of the same data from another start, each reaching its own
// fixed point, so no frame of the first reached the second — and a solve
// that does not end cleanly (cancelled, killed by a chaos plan, diverged)
// returns no link. A pair with a frame left unread on one end is closed at
// retirement, never kept.
func TestStarLinksKeptAcrossSolves(t *testing.T) {
	dropIdleLinks()
	t.Cleanup(dropIdleLinks)
	const p, n, tol = 4, 32, 1e-10
	reg, err := mldata.NewRegression(mldata.RegressionConfig{N: n, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := reg.Smooth()
	lasso := operators.NewProxGradBF(f, prox.L1{Lambda: 0.02}, operators.MaxStep(f))
	ridge := operators.NewGradOp(f, operators.MaxStep(f))
	config := func(op operators.Operator, x0 []float64) Config {
		return Config{Config: runtime.Config{Op: op, Workers: p, X0: x0, Tol: tol, MaxUpdatesPerWorker: 1 << 20}, Timeout: time.Minute}
	}
	solve := func(op operators.Operator, x0 []float64) {
		t.Helper()
		ref, ok := operators.FixedPoint(op, make([]float64, n), 1e-13, 1<<20)
		if !ok {
			t.Fatal("no reference fixed point")
		}
		res, err := Run(config(op, x0))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge", op.Name())
		}
		if e := vec.DistInf(res.X, ref); e > 1e-7 {
			t.Errorf("%s: error %v to its own fixed point", op.Name(), e)
		}
	}
	// refill solves on fresh links until p are idle.
	refill := func() []linkPair {
		t.Helper()
		dropIdleLinks()
		solve(lasso, nil)
		kept := idleLinks()
		if len(kept) != p {
			t.Fatalf("%d links idle after a clean %d-worker star solve, want %d", len(kept), p, p)
		}
		return kept
	}
	// gone checks that a solve took the kept links and returned none.
	gone := func(what string, kept []linkPair) {
		t.Helper()
		if idle := idleLinks(); len(idle) != 0 {
			t.Errorf("%s: %d links returned to the free list", what, len(idle))
		}
		if _, err := kept[0].worker.Write(byeFrame); err == nil {
			t.Errorf("%s: a link it took is still open", what)
		}
	}

	kept := refill()
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1 + float64(i)/n
	}
	solve(ridge, x0)
	if idle := idleLinks(); len(idle) != p || !slices.ContainsFunc(kept, func(pr linkPair) bool { return pr == idle[0] }) {
		t.Fatalf("idle links after the second solve are not the first solve's: it dialed (%d idle)", len(idle))
	}
	for _, pr := range idleLinks() {
		if !slices.Contains(kept, pr) {
			t.Fatal("the second solve dialed a link")
		}
	}

	// Cancelled: no tolerance, so only the cancellation ends it.
	kept = refill()
	done := make(chan struct{})
	cfg := config(lasso, nil)
	cfg.Tol, cfg.MaxUpdatesPerWorker, cfg.Done = 0, 1<<30, done
	time.AfterFunc(20*time.Millisecond, func() { close(done) })
	if res, err := Run(cfg); err != nil || !res.Cancelled {
		t.Fatalf("cancelled solve: %v, %+v", err, res)
	}
	gone("cancelled solve", kept)

	// Diverged.
	kept = refill()
	if _, err := Run(config(nanOp{lasso}, nil)); !errors.Is(err, operators.ErrDiverged) {
		t.Fatalf("diverging solve: %v, want ErrDiverged", err)
	}
	gone("diverging solve", kept)

	// A chaos plan neither takes idle links nor returns its own.
	kept = refill()
	cfg = config(slowOp{op: lasso, delay: time.Millisecond}, nil)
	res, err := RunChaos(cfg, ChaosPlan{Events: []ChaosEvent{{Worker: 2, KillAfter: 20 * time.Millisecond, RestartAfter: 20 * time.Millisecond}}})
	if err != nil || !res.Converged || res.WorkersLost == 0 {
		t.Fatalf("chaos solve: %v, %+v", err, res)
	}
	if idle := idleLinks(); !slices.Equal(idle, kept) {
		t.Errorf("a chaos solve changed the free list: %d idle, want the %d it found", len(idle), len(kept))
	}

	// A stray frame left unread on one end.
	links, _, err := listenLocal(p, true)
	if err != nil || !slices.Equal(links, kept) {
		t.Fatalf("took %d links (%v), want the %d idle", len(links), err, len(kept))
	}
	if _, err := links[1].worker.Write(heartbeatFrame); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // loopback delivery
	retireLinks(links)
	if idle := idleLinks(); len(idle) != p-1 || slices.Contains(idle, links[1]) {
		t.Errorf("%d idle after retiring %d links, one with a stray frame; want %d without it", len(idle), p, p-1)
	}
	if _, err := links[1].worker.Write(byeFrame); err == nil {
		t.Error("the link with a stray frame was left open")
	}
}

// floorSolve returns one warm 4-worker star solve started at its fixed point
// (each worker evaluates its shard, finds it converged and parks; the least
// a run can do) on idle kept links: the dist engine's per-solve floor.
func floorSolve(t *testing.T) func() {
	dropIdleLinks()
	t.Cleanup(dropIdleLinks)
	op, xstar := contractingOp(t, 64, 3)
	x0 := make([]float64, len(xstar))
	return func() {
		copy(x0, xstar)
		res, err := Run(Config{Config: runtime.Config{Op: op, Workers: 4, X0: x0, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 20}, Timeout: time.Minute})
		if err != nil || !res.Converged {
			t.Fatalf("fixed-point solve: %v", err)
		}
	}
}

// TestDistFloorAllocs is the floor (floorSolve) as an allocation ratchet.
// It measured 294 allocations on linux/amd64: 565 before links were kept and
// welcomes and finals built at exact size, 318 before the inbox was sized by
// backpressure and the welcome and final went into pooled frames.
func TestDistFloorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	allocs := testing.AllocsPerRun(50, floorSolve(t))
	t.Logf("%.0f allocations per fixed-point solve", allocs)
	if limit := 1.1 * 294; allocs > limit {
		t.Errorf("%.0f allocations per fixed-point star solve, want <= %.0f", allocs, limit)
	}
}

// TestDistFloorBytes is the same floor as a ratchet in bytes: what the
// process allocated over 60 warm solves (runtime.MemStats.TotalAlloc), per
// solve. It measured ~38,000 bytes on linux/amd64 (~81,300 before the inbox
// was sized by backpressure and the welcome and final went into pooled
// frames).
func TestDistFloorBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	const solves, want = 60, 38000
	solve := floorSolve(t)
	solve() // warm: the kept links and the pools
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	for range solves {
		solve()
	}
	gort.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / solves
	t.Logf("%.0f bytes allocated per fixed-point solve", per)
	if limit := 1.1 * want; per > limit {
		t.Errorf("%.0f bytes allocated per fixed-point star solve, want <= %.0f", per, limit)
	}
}
