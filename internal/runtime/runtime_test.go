package runtime

import (
	"math"
	"testing"

	"repro/internal/flexible"
	"repro/internal/operators"
	"repro/internal/vec"
)

// contractingOp builds a diagonally dominant Jacobi operator with known
// fixed point and contraction factor.
func contractingOp(t *testing.T, n int, seed uint64) (*operators.Linear, []float64, float64) {
	t.Helper()
	rng := vec.NewRNG(seed)
	m := vec.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 0.4*rng.Normal())
			}
		}
	}
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(m.At(i, j))
			}
		}
		m.Set(i, i, 2*off+1)
	}
	rhs := rng.NormalVector(n)
	op := operators.JacobiFromSystem(m, rhs)
	xstar, err := m.SolveGaussian(rhs)
	if err != nil {
		t.Fatal(err)
	}
	return op, xstar, op.ContractionFactor()
}

// engines are the two in-process engines, by name.
var engines = []struct {
	name string
	run  func(Config) (*Result, error)
}{{"shared", RunShared}, {"message", RunMessage}}

func TestRunSharedConverges(t *testing.T) {
	op, xstar, alpha := contractingOp(t, 32, 1)
	tol := 1e-10
	res, err := RunShared(Config{
		Op: op, Workers: 4, Tol: tol,
		MaxUpdatesPerWorker: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("shared-memory run did not converge")
	}
	// Displacement tol implies error <= tol/(1-alpha).
	bound := tol / (1 - alpha) * 10 // slack for concurrent interleaving
	if e := vec.DistInf(res.X, xstar); e > bound {
		t.Errorf("error %v exceeds bound %v", e, bound)
	}
	for w, u := range res.UpdatesPerWorker {
		if u == 0 {
			t.Errorf("worker %d performed no updates", w)
		}
	}
	if res.MessagesSent == 0 {
		t.Error("no messages sent")
	}
}

func TestRunSharedFlexible(t *testing.T) {
	op, xstar, alpha := contractingOp(t, 32, 2)
	tol := 1e-10
	for _, engine := range engines {
		res, err := engine.run(Config{
			Op: op, Workers: 4, Tol: tol,
			MaxUpdatesPerWorker: 1 << 18,
			Flexible:            flexible.Uniform(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("flexible %s run did not converge", engine.name)
		}
		if e := vec.DistInf(res.X, xstar); e > tol/(1-alpha)*10 {
			t.Errorf("%s: error %v too large", engine.name, e)
		}
		// Partials at 1/4, 1/2 and 3/4, then the block, to each of 3 peers.
		if phases := sum(res.UpdatesPerWorker); res.MessagesSent != int64(4*3*phases) {
			t.Errorf("%s: %d messages over %d phases, want 12 per phase", engine.name, res.MessagesSent, phases)
		}
	}
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

func TestRunSharedSingleWorker(t *testing.T) {
	op, xstar, _ := contractingOp(t, 8, 3)
	res, err := RunShared(Config{
		Op: op, Workers: 1, Tol: 1e-12, MaxUpdatesPerWorker: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("single worker did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-9 {
		t.Errorf("error %v", e)
	}
}

func TestRunSharedMaxUpdatesBound(t *testing.T) {
	op, _, _ := contractingOp(t, 8, 4)
	res, err := RunShared(Config{
		Op: op, Workers: 2, MaxUpdatesPerWorker: 10, // no Tol: never "converges"
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("should not report convergence without Tol")
	}
	for w, u := range res.UpdatesPerWorker {
		if u != 10 {
			t.Errorf("worker %d updates = %d, want 10", w, u)
		}
	}
}

func TestRunMessageConverges(t *testing.T) {
	op, xstar, alpha := contractingOp(t, 32, 5)
	tol := 1e-10
	res, err := RunMessage(Config{
		Op: op, Workers: 4, Tol: tol,
		MaxUpdatesPerWorker: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("message run did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > tol/(1-alpha)*10 {
		t.Errorf("error %v too large", e)
	}
	if res.MessagesSent == 0 {
		t.Error("no messages sent")
	}
}

func TestRunMessageTerminatesAtUpdateBound(t *testing.T) {
	op, _, _ := contractingOp(t, 8, 6)
	res, err := RunMessage(Config{
		Op: op, Workers: 4, Tol: 1e-30, // unreachable tolerance
		MaxUpdatesPerWorker: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("unreachable tolerance should not converge")
	}
}

func TestRunMessageDropsCovered(t *testing.T) {
	// Eight workers on one or two CPUs: a receiver is often descheduled
	// while a sender publishes again, so newer blocks supersede unread
	// ones and the run drops messages; convergence must survive, because
	// the newest block is the one that matters.
	op, xstar, _ := contractingOp(t, 64, 7)
	res, err := RunMessage(Config{
		Op: op, Workers: 8, Tol: 1e-9,
		MaxUpdatesPerWorker: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if e := vec.DistInf(res.X, xstar); e > 1e-5 {
		t.Errorf("error %v too large", e)
	}
}

func TestConfigValidation(t *testing.T) {
	op, _, _ := contractingOp(t, 4, 8)
	if _, err := RunShared(Config{}); err == nil {
		t.Error("expected error without operator")
	}
	if _, err := RunShared(Config{Op: op, Workers: 0}); err == nil {
		t.Error("expected error for zero workers")
	}
	if _, err := RunShared(Config{Op: op, Workers: 2, X0: []float64{1}}); err == nil {
		t.Error("expected error for bad X0")
	}
	if _, err := RunMessage(Config{Op: op, Workers: 0}); err == nil {
		t.Error("expected message error for zero workers")
	}
}

func TestWorkersClampedToDim(t *testing.T) {
	op, _, _ := contractingOp(t, 3, 9)
	res, err := RunShared(Config{Op: op, Workers: 16, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UpdatesPerWorker) != 3 {
		t.Errorf("workers not clamped: %d", len(res.UpdatesPerWorker))
	}
}

// Config.PerWorker gives every worker a time split whose parts sum to its
// elapsed time, within the run's; without it the result has none.
func TestRunPerWorkerSplit(t *testing.T) {
	op, _, _ := contractingOp(t, 32, 10)
	for _, engine := range engines {
		for _, on := range []bool{false, true} {
			res, err := engine.run(Config{Op: op, Workers: 3, Tol: 1e-9, MaxUpdatesPerWorker: 1 << 16, PerWorker: on})
			if err != nil || !res.Converged {
				t.Fatalf("%s: converged %v, err %v", engine.name, err == nil && res.Converged, err)
			}
			if !on {
				if res.PerWorker != nil {
					t.Errorf("%s: a time split nobody asked for: %+v", engine.name, res.PerWorker)
				}
				continue
			}
			if len(res.PerWorker) != 3 {
				t.Fatalf("%s: %d splits for 3 workers", engine.name, len(res.PerWorker))
			}
			for w, s := range res.PerWorker {
				if s.Compute+s.Publish+s.Drain+s.Parked != s.Elapsed || s.Elapsed <= 0 || s.Elapsed > res.Elapsed ||
					s.Compute <= 0 || s.Publish <= 0 || s.Accounts == 0 {
					t.Errorf("%s: worker %d split %+v (run %v)", engine.name, w, s, res.Elapsed)
				}
			}
		}
	}
}
