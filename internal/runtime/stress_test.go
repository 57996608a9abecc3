package runtime

import (
	"fmt"
	"testing"

	"repro/internal/flexible"
	"repro/internal/obstacle"
	"repro/internal/operators"
	"repro/internal/vec"
)

// Oversubscription: far more workers than cores must still converge and
// terminate (scheduler-interleaving stress).
func TestSharedOversubscribed(t *testing.T) {
	op, xstar, _ := contractingOp(t, 128, 50)
	res, err := RunShared(Config{
		Op: op, Workers: 64, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("oversubscribed shared run did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-5 {
		t.Errorf("error %v", e)
	}
}

func TestMessageOversubscribed(t *testing.T) {
	op, xstar, _ := contractingOp(t, 128, 51)
	res, err := RunMessage(Config{
		Op: op, Workers: 32, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("oversubscribed message run did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-5 {
		t.Errorf("error %v", e)
	}
}

// Message runs of different shapes side by side (a server's job workers)
// share nothing but the scheduler: each must converge on its own
// mailboxes, and stay race-clean.
func TestMessageConcurrentRunsSharePayloads(t *testing.T) {
	shapes := []struct{ n, workers int }{{128, 4}, {37, 3}, {64, 2}, {128, 32}}
	errs := make(chan error, len(shapes))
	for k, s := range shapes {
		op, xstar, _ := contractingOp(t, s.n, 60+uint64(k))
		go func() {
			for rep := 0; rep < 3; rep++ {
				res, err := RunMessage(Config{Op: op, Workers: s.workers, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 18})
				if err == nil && !res.Converged {
					err = fmt.Errorf("n=%d workers=%d: did not converge", s.n, s.workers)
				}
				if err == nil && vec.DistInf(res.X, xstar) > 1e-5 {
					err = fmt.Errorf("n=%d workers=%d: error %v", s.n, s.workers, vec.DistInf(res.X, xstar))
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range shapes {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// Monotone workload end to end on real concurrency: the obstacle problem
// from a supersolution, with flexible partial stores.
func TestSharedObstacleMonotone(t *testing.T) {
	p := obstacle.Membrane(12)
	want, ok := operators.FixedPoint(p, p.Supersolution(), 1e-11, 1000000)
	if !ok {
		t.Fatal("reference failed")
	}
	res, err := RunShared(Config{
		Op: p, Workers: 4, X0: p.Supersolution(),
		Tol: 1e-10, MaxUpdatesPerWorker: 1 << 18,
		Flexible: flexible.Uniform(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if e := vec.DistInf(res.X, want); e > 1e-6 {
		t.Errorf("error vs reference %v", e)
	}
	rep := p.CheckComplementarity(res.X)
	if rep.MinGap < -1e-9 {
		t.Errorf("feasibility violated: %v", rep.MinGap)
	}
}

// Repeated runs under the race detector exercise different interleavings;
// every run must converge to the same fixed point.
func TestSharedRepeatedInterleavings(t *testing.T) {
	op, xstar, _ := contractingOp(t, 24, 52)
	for trial := 0; trial < 5; trial++ {
		res, err := RunShared(Config{
			Op: op, Workers: 6, Tol: 1e-10, MaxUpdatesPerWorker: 1 << 18,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		if e := vec.DistInf(res.X, xstar); e > 1e-6 {
			t.Fatalf("trial %d error %v", trial, e)
		}
	}
}

// All three transports agree on the solution of one problem.
func TestTransportsAgree(t *testing.T) {
	op, xstar, _ := contractingOp(t, 32, 53)
	shared, err := RunShared(Config{Op: op, Workers: 4, Tol: 1e-10, MaxUpdatesPerWorker: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := RunMessage(Config{Op: op, Workers: 4, Tol: 1e-10, MaxUpdatesPerWorker: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Converged || !msg.Converged {
		t.Fatal("a transport failed to converge")
	}
	for _, res := range []*Result{shared, msg} {
		if e := vec.DistInf(res.X, xstar); e > 1e-6 {
			t.Errorf("transport deviates by %v", e)
		}
	}
}
