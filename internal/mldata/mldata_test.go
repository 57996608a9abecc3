package mldata

import (
	"errors"
	"math"
	"testing"

	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/vec"
)

func TestNewRegressionShape(t *testing.T) {
	r, err := NewRegression(RegressionConfig{N: 8, Samples: 40, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.A.Rows != 40 || r.A.Cols != 8 || len(r.Y) != 40 || len(r.XTrue) != 8 {
		t.Fatalf("bad shapes: A %dx%d, y %d, xtrue %d", r.A.Rows, r.A.Cols, len(r.Y), len(r.XTrue))
	}
}

func TestRegressionHessianDiagonallyDominant(t *testing.T) {
	for _, coupling := range []float64{0, 0.2, 0.6, 0.9} {
		r, err := NewRegression(RegressionConfig{N: 12, Coupling: coupling, Reg: 0.05, Seed: 2})
		if err != nil {
			t.Fatalf("coupling %v: %v", coupling, err)
		}
		f := r.Smooth()
		if dd, slack := f.Hessian().IsDiagonallyDominant(); !dd {
			t.Errorf("coupling %v: Hessian not diagonally dominant (slack %v)", coupling, slack)
		}
	}
}

func TestRegressionValidation(t *testing.T) {
	if _, err := NewRegression(RegressionConfig{N: 0}); err == nil {
		t.Error("expected error for N=0")
	}
	if _, err := NewRegression(RegressionConfig{N: 4, Coupling: 1.0}); err == nil {
		t.Error("expected error for Coupling=1")
	}
	if _, err := NewRegression(RegressionConfig{N: 8, Samples: 4}); err == nil {
		t.Error("expected error for Samples < N")
	}
}

func TestRegressionDeterministic(t *testing.T) {
	cfg := RegressionConfig{N: 6, Coupling: 0.4, Sparsity: 0.3, Noise: 0.1, Reg: 0.1, Seed: 42}
	a, _ := NewRegression(cfg)
	b, _ := NewRegression(cfg)
	if !vec.Equal(a.Y, b.Y, 0) || !vec.Equal(a.XTrue, b.XTrue, 0) {
		t.Error("same seed produced different problems")
	}
}

func TestRegressionSparsity(t *testing.T) {
	r, _ := NewRegression(RegressionConfig{N: 100, Coupling: 0.1, Sparsity: 0.7, Seed: 3})
	zeros := 0
	for _, v := range r.XTrue {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 50 || zeros > 90 {
		t.Errorf("zeros = %d out of 100, expected near 70", zeros)
	}
}

func TestRidgeRecoversXTrue(t *testing.T) {
	// With tiny noise and tiny regularization, minimizing the smooth part
	// recovers XTrue approximately.
	r, _ := NewRegression(RegressionConfig{N: 8, Coupling: 0.2, Noise: 0.001, Reg: 1e-4, Seed: 4})
	f := r.Smooth()
	gamma := operators.MaxStep(f)
	op := operators.NewGradOp(f, gamma)
	x, ok := operators.FixedPoint(op, make([]float64, 8), 1e-12, 200000)
	if !ok {
		t.Fatal("did not converge")
	}
	if !vec.Equal(x, r.XTrue, 0.05) {
		t.Errorf("recovered %v, want %v", x, r.XTrue)
	}
	if mse := r.MSE(x); mse > 0.01 {
		t.Errorf("MSE = %v", mse)
	}
}

func TestLassoZerosRecovered(t *testing.T) {
	// Lasso on a sparse ground truth should zero out at least some of the
	// truly-zero coefficients.
	r, _ := NewRegression(RegressionConfig{N: 16, Coupling: 0.2, Sparsity: 0.5, Noise: 0.01, Reg: 0.01, Seed: 5})
	f := r.Smooth()
	gamma := operators.MaxStep(f)
	op := operators.NewProxGradFB(f, prox.L1{Lambda: 0.1}, gamma)
	x, ok := operators.FixedPoint(op, make([]float64, 16), 1e-12, 400000)
	if !ok {
		t.Fatal("did not converge")
	}
	zeroMatches := 0
	trueZeros := 0
	for i, v := range r.XTrue {
		if v == 0 {
			trueZeros++
			if math.Abs(x[i]) < 1e-6 {
				zeroMatches++
			}
		}
	}
	if trueZeros == 0 {
		t.Skip("degenerate draw: no true zeros")
	}
	if zeroMatches == 0 {
		t.Errorf("lasso recovered no zero coefficients (%d true zeros)", trueZeros)
	}
}

func TestLogisticGradMatchesFiniteDifference(t *testing.T) {
	c := NewClassification(5, 30, 0.05, 0.1, 6)
	f := NewLogistic(c)
	x := vec.NewRNG(7).NormalVector(5)
	g := make([]float64, 5)
	f.Grad(g, x)
	const h = 1e-6
	for i := 0; i < 5; i++ {
		xp, xm := vec.Clone(x), vec.Clone(x)
		xp[i] += h
		xm[i] -= h
		fd := (f.Value(xp) - f.Value(xm)) / (2 * h)
		if math.Abs(fd-g[i]) > 1e-4 {
			t.Errorf("grad[%d] = %v, fd %v", i, g[i], fd)
		}
		if math.Abs(f.GradComponent(i, x)-g[i]) > 1e-10 {
			t.Errorf("GradComponent(%d) mismatch", i)
		}
	}
}

func TestLogisticTrainingImprovesAccuracy(t *testing.T) {
	c := NewClassification(8, 200, 0.05, 0.05, 8)
	f := NewLogistic(c)
	x0 := make([]float64, 8)
	acc0 := c.Accuracy(x0)
	gamma := operators.MaxStep(f)
	op := operators.NewGradOp(f, gamma)
	x, _ := operators.FixedPoint(op, x0, 1e-9, 50000)
	acc := c.Accuracy(x)
	if acc <= acc0 {
		t.Errorf("training did not improve accuracy: %v -> %v", acc0, acc)
	}
	if acc < 0.8 {
		t.Errorf("accuracy %v too low for near-separable data", acc)
	}
}

func TestLogisticLMu(t *testing.T) {
	c := NewClassification(4, 50, 0, 0.2, 9)
	f := NewLogistic(c)
	l, mu := f.LMu()
	if mu != 0.2 {
		t.Errorf("mu = %v, want Reg = 0.2", mu)
	}
	if l <= mu {
		t.Errorf("L = %v should exceed mu = %v", l, mu)
	}
}

// rescalesOf recovers how often NewRegression shrank the coupling rows by
// 0.8: the first coupling entry left the generator as coupling*z, z being
// the first Normal draw after the n diagonal Range draws.
func rescalesOf(r *Regression, cfg RegressionConfig) int {
	rng := vec.NewRNG(cfg.Seed)
	for i := 0; i < cfg.N; i++ {
		rng.Range(0.8, 1.2)
	}
	unscaled := cfg.Coupling * rng.Normal()
	return int(math.Round(math.Log(r.A.At(cfg.N, 0)/unscaled) / math.Log(0.8)))
}

// No registered scenario enters the rescale loop (Coupling 0.3 passes the
// first dominance check), so it is exercised here: Coupling 0.9 and 0.95 at
// N=16 need one and two rescales. The Gram the Regression retains must be
// the one of the FINAL design matrix, and the smooth part built on it must
// be the operator NewLeastSquares would assemble from scratch.
func TestRegressionRescaleKeepsFinalGram(t *testing.T) {
	for _, tc := range []struct {
		coupling float64
		rescales int
	}{{0.9, 1}, {0.95, 2}} {
		cfg := RegressionConfig{N: 16, Coupling: tc.coupling, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 3}
		r, err := NewRegression(cfg)
		if err != nil {
			t.Fatalf("coupling %v: %v", tc.coupling, err)
		}
		if got := rescalesOf(r, cfg); got != tc.rescales {
			t.Fatalf("coupling %v: %d rescales, want %d", tc.coupling, got, tc.rescales)
		}
		want := r.A.AtA()
		for i := range want.Data {
			want.Data[i] /= float64(r.A.Rows)
		}
		for i := range want.Data {
			if math.Float64bits(r.gram.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("coupling %v: retained Gram element %d = %v, AtA(final A)/m = %v",
					tc.coupling, i, r.gram.Data[i], want.Data[i])
			}
		}
		if dd, slack := r.gram.IsDiagonallyDominantShifted(r.Reg); !dd {
			t.Fatalf("coupling %v: result not diagonally dominant (slack %v)", tc.coupling, slack)
		}

		shared := r.Smooth()
		fresh := operators.NewLeastSquares(r.A, r.Y, r.Reg)
		// Hessian() is gram + Reg on the diagonal and Grad(0) is -A^T y/m,
		// so these two compare the operators' Gram and A^T y/m bit for bit.
		hs, hf := shared.Hessian(), fresh.Hessian()
		if dd, slack := hs.IsDiagonallyDominant(); !dd {
			t.Fatalf("coupling %v: Hessian not diagonally dominant (slack %v)", tc.coupling, slack)
		}
		gs, gf := make([]float64, cfg.N), make([]float64, cfg.N)
		zero := make([]float64, cfg.N)
		shared.Grad(gs, zero)
		fresh.Grad(gf, zero)
		for i := range hf.Data {
			if math.Float64bits(hs.Data[i]) != math.Float64bits(hf.Data[i]) {
				t.Fatalf("coupling %v: shared Hessian element %d = %v, fresh %v", tc.coupling, i, hs.Data[i], hf.Data[i])
			}
		}
		for i := range gf {
			if math.Float64bits(gs[i]) != math.Float64bits(gf[i]) {
				t.Fatalf("coupling %v: shared A^T y/m [%d] = %v, fresh %v", tc.coupling, i, -gs[i], -gf[i])
			}
		}
		ls, mus := shared.LMu()
		lf, muf := fresh.LMu()
		if ls != lf || mus != muf {
			t.Fatalf("coupling %v: shared (L, mu) = (%v, %v), fresh (%v, %v)", tc.coupling, ls, mus, lf, muf)
		}
	}
}

// The sharded build must retain the very same Gram as the serial one.
func TestRegressionShardedGramBitIdentical(t *testing.T) {
	cfg := RegressionConfig{N: 40, Coupling: 0.9, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 6}
	serial, err := NewRegression(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 64} {
		r, err := NewRegressionSharded(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.gram.Data {
			if math.Float64bits(r.gram.Data[i]) != math.Float64bits(serial.gram.Data[i]) {
				t.Fatalf("shards=%d: Gram element %d = %v, serial %v", shards, i, r.gram.Data[i], serial.gram.Data[i])
			}
		}
	}
}

// Coupling < 1 alone cannot exhaust the rescale budget (0.8^60 leaves no
// coupling mass), so the failure path is reached the one way it can be: a
// Reg that cancels a diagonal entry, leaving that row no slack however
// small the coupling gets. With one sample and one feature there are no
// coupling rows and the Gram is the single entry A_00^2.
func TestRegressionNotDominantIsTypedError(t *testing.T) {
	probe, err := NewRegression(RegressionConfig{N: 1, Samples: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a00 := probe.A.At(0, 0)
	_, err = NewRegression(RegressionConfig{N: 1, Samples: 1, Seed: 9, Reg: -(a00 * a00)})
	if !errors.Is(err, ErrNotDominant) {
		t.Fatalf("err = %v, want ErrNotDominant", err)
	}
}
