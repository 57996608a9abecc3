//go:build unix

package runtime

import (
	gort "runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// slowDiagOp is a diagonal contraction F_i(x) = 0.5 x_i + b_i whose
// component 0 sleeps for the first slowEvals evaluations. The diagonal
// makes every block independent: all workers but the owner of component 0
// converge almost immediately and then sit passive while that owner crawls
// — the workload that made the old 50µs sleep-polling idle loops burn CPU
// and allocate a timer per poll.
type slowDiagOp struct {
	n         int
	b         []float64
	sleep     time.Duration
	slowEvals int64
	evals     atomic.Int64
}

func (o *slowDiagOp) Dim() int     { return o.n }
func (o *slowDiagOp) Name() string { return "slowDiag" }
func (o *slowDiagOp) Component(i int, x []float64) float64 {
	if i == 0 && o.evals.Add(1) <= o.slowEvals {
		time.Sleep(o.sleep)
	}
	return 0.5*x[i] + o.b[i]
}

// TestPassiveIdleIsEventDriven pins the event-driven idle paths of both
// in-process engines: while three of four workers are passive for hundreds
// of milliseconds, neither they nor the supervisor may burn a poll loop
// (the shared engine's parked workers once yielded in a loop instead).
// The sharp assertion is on allocations — the old implementation allocated
// a fresh timer per 50µs poll per idle goroutine (tens of thousands over
// this run), the event-driven one allocates nothing while idle — with a
// coarse CPU-time ceiling on top.
func TestPassiveIdleIsEventDriven(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine.name, func(t *testing.T) { passiveIdleIsEventDriven(t, engine.run) })
	}
}

func passiveIdleIsEventDriven(t *testing.T, run func(Config) (*Result, error)) {
	op := &slowDiagOp{
		n:         8,
		b:         []float64{1, 2, 3, 4, 5, 6, 7, 8},
		sleep:     7 * time.Millisecond,
		slowEvals: 60, // component 0 needs ~35 evals to converge: ≈ 250ms of near-idle run time for everyone else
	}

	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		u := time.Duration(ru.Utime.Sec)*time.Second + time.Duration(ru.Utime.Usec)*time.Microsecond
		s := time.Duration(ru.Stime.Sec)*time.Second + time.Duration(ru.Stime.Usec)*time.Microsecond
		return u + s
	}
	var before, after gort.MemStats
	gort.GC()
	gort.ReadMemStats(&before)
	cpuBefore := cpuTime()
	wallBefore := time.Now()

	res, err := run(Config{
		Op: op, Workers: 4, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("slow-worker run did not converge")
	}

	wall := time.Since(wallBefore)
	cpu := cpuTime() - cpuBefore
	gort.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	if wall < 150*time.Millisecond {
		t.Fatalf("run finished in %v; the idle window this test needs never existed", wall)
	}
	// The old polling loops allocated >10k timers over a window this long;
	// the event-driven paths allocate only startup state and pooled churn.
	if allocs > 5000 {
		t.Errorf("idle run allocated %d objects (event-driven paths should stay in the hundreds)", allocs)
	}
	// Three passive workers + supervisor must not busy-spin: their share of
	// a mostly-sleeping run has to stay well under one core.
	if cpu > wall/2 {
		t.Errorf("run burned %v CPU over %v wall while mostly idle", cpu, wall)
	}
}
