package repro_test

// Tests of solve cancellation (WithContext) and live progress observation
// (WithProgress): a cancelled solve must return the context's error
// promptly instead of burning through its whole budget, and an attached
// Progress must see phases complete while the solve runs.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro"
)

// TestWithContextCancelStopsSolve starts an effectively unbounded solve
// (tolerance too tight to reach quickly, huge budgets) and cancels it after
// a few milliseconds; every engine must return promptly with the context
// error.
func TestWithContextCancelStopsSolve(t *testing.T) {
	spec, _ := lassoSpec(t)
	for _, engine := range repro.Engines() {
		engine := engine
		t.Run(engine.Name(), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(5*time.Millisecond, cancel)
			start := time.Now()
			res, err := repro.Solve(spec,
				repro.WithEngine(engine),
				repro.WithContext(ctx),
				repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}),
				repro.WithWorkers(4),
				repro.WithSeed(3),
				repro.WithTol(0), // stopping disabled: the run can only be cancelled
				repro.WithMaxIter(1<<30),
				repro.WithMaxUpdates(1<<30),
			)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("cancelled solve returned a report (converged=%v)", res.Converged)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("cancel took %v to take effect", elapsed)
			}
		})
	}
}

// TestDistCancelLeavesNothingBehind: a cancelled dist solve returns the
// context error without waiting for its Timeout (two minutes), and takes
// its coordinator, workers, reader and sender goroutines and sockets with
// it — on both data planes, with delayed relay deliveries pending.
func TestDistCancelLeavesNothingBehind(t *testing.T) {
	spec, _ := lassoSpec(t)
	for _, topology := range []string{"star", "mesh"} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		_, err := repro.Solve(spec,
			repro.WithEngine(repro.EngineDist),
			repro.WithTopology(topology),
			repro.WithContext(ctx),
			repro.WithWorkers(4),
			repro.WithFaults(repro.Faults{ReorderProb: 0.3, MaxLinkDelay: 2 * time.Millisecond}),
			repro.WithTol(0),
			repro.WithMaxUpdates(1<<30),
		)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", topology, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: cancel took %v to take effect", topology, elapsed)
		}
		leftNothingBehind(t, topology, before)
	}
}

// leftNothingBehind fails the test unless the goroutine count falls back to
// before. Solve has joined everything it started; goroutines it merely
// unblocked (net poller callbacks) may need a moment to unwind.
func leftNothingBehind(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%s: %d goroutines before the solve, %d after:\n%s",
			what, before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestWithContextDeadlinePreCancelled: a context that is already done must
// fail fast without running the engine at all.
func TestWithContextDeadlinePreCancelled(t *testing.T) {
	spec, _ := lassoSpec(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := repro.Solve(spec, repro.WithContext(ctx), repro.WithTol(1e-9))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestWithContextUncancelledRunsUnchanged: attaching a context that never
// fires must not perturb the deterministic engines' trajectories, and must
// not outlive the solve on the goroutine engines: their cancellation
// monitor leaves when the run stops, not when the context is finally
// cancelled.
func TestWithContextUncancelledRunsUnchanged(t *testing.T) {
	spec, _ := lassoSpec(t)
	for _, engine := range []repro.Engine{repro.EngineModel, repro.EngineSim, repro.EngineSimSync, repro.EngineShared, repro.EngineMessage} {
		engine := engine
		t.Run(engine.Name(), func(t *testing.T) {
			opts := func(extra ...repro.Option) []repro.Option {
				return append([]repro.Option{
					repro.WithEngine(engine),
					repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}),
					repro.WithWorkers(4),
					repro.WithSeed(3),
					repro.WithTol(1e-9),
					repro.WithMaxIter(2000000),
					repro.WithMaxUpdates(2000000),
				}, extra...)
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			withCtx, err := repro.Solve(spec, opts(repro.WithContext(ctx))...)
			if err != nil {
				t.Fatal(err)
			}
			leftNothingBehind(t, engine.Name(), before)
			if engine == repro.EngineShared || engine == repro.EngineMessage {
				return // scheduler-dependent trajectories: nothing to compare
			}
			plain, err := repro.Solve(spec, opts()...)
			if err != nil {
				t.Fatal(err)
			}
			if withCtx.Iterations != plain.Iterations || withCtx.Updates != plain.Updates {
				t.Fatalf("context changed the trajectory: iters %d/%d updates %d/%d",
					withCtx.Iterations, plain.Iterations, withCtx.Updates, plain.Updates)
			}
			for i := range plain.X {
				if withCtx.X[i] != plain.X[i] {
					t.Fatalf("component %d differs with context: %v != %v", i, withCtx.X[i], plain.X[i])
				}
			}
		})
	}
}

// TestWithProgressObservesUpdates runs a bounded solve with a Progress
// attached and checks the final counter matches the report's update count
// (and for a concurrent engine, that the counter is live, not just final).
func TestWithProgressObservesUpdates(t *testing.T) {
	spec, _ := lassoSpec(t)
	for _, engine := range []repro.Engine{repro.EngineModel, repro.EngineSim, repro.EngineShared, repro.EngineMessage, repro.EngineDist} {
		engine := engine
		t.Run(engine.Name(), func(t *testing.T) {
			p := new(repro.Progress)
			res, err := repro.Solve(spec,
				repro.WithEngine(engine),
				repro.WithProgress(p),
				repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}),
				repro.WithWorkers(4),
				repro.WithSeed(3),
				repro.WithTol(1e-9),
				repro.WithMaxIter(2000000),
				repro.WithMaxUpdates(2000000),
			)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(res.Updates)
			if engine == repro.EngineModel {
				want = int64(res.Iterations)
			}
			if got := p.Updates(); got != want {
				t.Fatalf("Progress.Updates() = %d, want %d", got, want)
			}
		})
	}
}
