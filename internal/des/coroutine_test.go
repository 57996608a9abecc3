package des

import (
	"errors"
	"math"
	goruntime "runtime"
	"sync"
	"testing"

	"repro/internal/flexible"
	"repro/internal/operators"
	"repro/internal/runtime"
)

// nanAfter halves its input for its first good evaluations and returns NaN
// from then on.
type nanAfter struct{ good, calls int }

func (*nanAfter) Dim() int     { return 8 }
func (*nanAfter) Name() string { return "nanAfter" }

func (o *nanAfter) Component(i int, x []float64) float64 {
	if o.calls++; o.calls > o.good {
		return math.NaN()
	}
	return 0.5 * x[i]
}

// TestRunsLeaveNoCoroutine: every exit of Run and RunSync — converged, out
// of updates, out of time, cancelled before and during the run, a
// validation error and a NaN — ends every worker coroutine it started, and
// the NaN still names the worker, phase and component that evaluated it.
func TestRunsLeaveNoCoroutine(t *testing.T) {
	op, xstar := contractingOp(t, 12, 50)
	closed := make(chan struct{})
	close(closed)
	base := Config{
		Config:   runtime.Config{Op: op, Workers: 4, X0: x0For(xstar)},
		XStar:    xstar,
		Seed:     51,
		Latency:  JitterLatency(0.1, 1),
		DropProb: 0.1,
	}
	cases := []struct {
		name string
		cfg  func() Config
		// want checks the outcome: a Result or SyncResult, or an error.
		want func(res any, err error) bool
	}{
		{"converged", func() Config { c := base; c.Tol = 1e-9; return c },
			func(res any, err error) bool { return err == nil && converged(res) }},
		{"max-updates", func() Config { c := base; c.MaxUpdatesPerWorker = 9; return c },
			func(res any, err error) bool { return err == nil && !converged(res) }},
		{"max-time", func() Config { c := base; c.MaxTime = 9.5; return c },
			func(res any, err error) bool { return err == nil && !converged(res) }},
		{"done-before", func() Config { c := base; c.Tol = 1e-9; c.Done = closed; return c },
			func(res any, err error) bool { return err == nil && cancelled(res) }},
		{"done-during", func() Config {
			c := base
			c.Tol = 1e-9
			done := make(chan struct{})
			var once sync.Once
			c.Done = done
			c.Cost = func(w, k int) float64 {
				if k == 3 {
					once.Do(func() { close(done) })
				}
				return 1
			}
			return c
		}, func(res any, err error) bool { return err == nil && cancelled(res) }},
		{"invalid", func() Config { c := base; c.Workers = 0; return c },
			func(res any, err error) bool { return err != nil }},
		{"nan", func() Config {
			// Two workers of four components: evaluations 9-12 are worker
			// 0's second phase, so the 12th is its component 3.
			return Config{Config: runtime.Config{Op: &nanAfter{good: 11}, Workers: 2, X0: []float64{1, 1, 1, 1, 1, 1, 1, 1}}}
		}, func(res any, err error) bool {
			var d *operators.DivergedError
			return errors.As(err, &d) && *d == operators.DivergedError{Worker: 0, Phase: 2, Component: 3}
		}},
	}
	for _, tc := range cases {
		for _, barrier := range []bool{false, true} {
			before := goruntime.NumGoroutine()
			var res any
			var err error
			if barrier {
				res, err = RunSync(tc.cfg())
			} else {
				res, err = Run(tc.cfg())
			}
			if after := goruntime.NumGoroutine(); after != before {
				t.Errorf("%s (barrier %v): %d goroutines after the run, %d before", tc.name, barrier, after, before)
			}
			if !tc.want(res, err) {
				t.Errorf("%s (barrier %v): result %+v, err %v", tc.name, barrier, res, err)
			}
		}
	}
}

func converged(res any) bool {
	switch r := res.(type) {
	case *Result:
		return r.Converged
	case *SyncResult:
		return r.Converged
	}
	return false
}

func cancelled(res any) bool {
	switch r := res.(type) {
	case *Result:
		return r.Cancelled && !r.Converged
	case *SyncResult:
		return r.Cancelled && !r.Converged
	}
	return false
}

// TestSteadyStateAllocationFree: a faulty run's allocations do not grow
// with its length beyond the logarithmic growth of Records and ErrorTrace:
// phases, partials and messages recycle their events and buffers.
func TestSteadyStateAllocationFree(t *testing.T) {
	op, xstar := contractingOp(t, 12, 52)
	allocs := func(updates int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(Config{
				Config:   runtime.Config{Op: op, Workers: 4, X0: x0For(xstar), MaxUpdatesPerWorker: updates / 4, Flexible: flexible.Uniform(2)},
				XStar:    xstar,
				DropProb: 0.2,
				Latency:  JitterLatency(0.1, 2),
				Seed:     53,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(400), allocs(40000)
	if long-short > 80 {
		t.Errorf("40000 updates allocate %v, 400 allocate %v: %v more, want at most 80", long, short, long-short)
	}
}
