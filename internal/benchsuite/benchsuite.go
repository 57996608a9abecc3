// Package benchsuite holds the micro-benchmarks that `go run ./benchmark`
// (the repository's benchmark of record, declared in BENCHMARK.json) cannot
// express: the BlockEval pairs, whose block-vs-per-component multiple CI
// gates within one capture, and a small recorded-not-gated ledger of the
// non-solve layers of a served job (Gram assembly, scenario build, Report
// codec, one operator application). Whole solves — every engine, the served
// path, the dist deployments — are timed by benchmark/ only. The same cases
// run under `go test -bench` (the root bench_test.go delegates here) and
// `asyncsolve bench`, which writes the BENCH_<rev>.json capture that
// `asyncsolve bench-compare` reads. Workload generation happens in each
// case's Setup, outside the timed region.
package benchsuite

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro"
)

// Case is one benchmark: Setup builds the workload (untimed) and returns
// the op to measure. UnitsPerOp is how many units of work (component
// updates, builds, encodes) one op performs, so a rate can be derived from
// ns/op.
type Case struct {
	Name       string
	UnitsPerOp float64
	Setup      func() (op func() error, err error)
}

// Result is one measured case in the BENCH JSON schema.
type Result struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"` // always "micro": schema_version 1 carries it
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// SolveRate is units of work per wall-clock second (0 when the case
	// has no meaningful unit count).
	SolveRate float64 `json:"solve_rate_per_sec"`
	Err       string  `json:"error,omitempty"`
}

// MicroCases returns every case of the suite.
func MicroCases() []Case {
	return []Case{
		// BlockEval pairs: identical workload and block partition, evaluated
		// through the whole-block fast path vs the forced per-component
		// fallback. The rate ratio within one capture is the block
		// contract's measured multiple (CI gates on it via bench-compare).
		{
			Name: "BlockEvalN1024", UnitsPerOp: 1024,
			Setup: blockSweepCase(blockLassoOp, 1024, 128, false),
		},
		{
			Name: "BlockEvalN1024PerComponent", UnitsPerOp: 1024,
			Setup: blockSweepCase(blockLassoOp, 1024, 128, true),
		},
		{
			Name: "BlockEvalN4096", UnitsPerOp: 4096,
			Setup: blockSweepCase(blockSeparableLassoOp, 4096, 512, false),
		},
		{
			Name: "BlockEvalN4096PerComponent", UnitsPerOp: 4096,
			Setup: blockSweepCase(blockSeparableLassoOp, 4096, 512, true),
		},
		// The two layers of a served job that are neither the solve nor
		// HTTP: building the scenario (dominated by the Gram assembly) and
		// the Report codec. One op is one assembly / build / encode / decode.
		{
			Name: "GramAssemble256", UnitsPerOp: 1,
			Setup: func() (func() error, error) {
				rng := repro.NewRNG(23)
				a := repro.NewDense(1024, 256)
				for i := range a.Data {
					a.Data[i] = rng.Normal()
				}
				return func() error {
					if g := a.AtA(); g.Rows != 256 {
						return fmt.Errorf("gram is %dx%d", g.Rows, g.Cols)
					}
					return nil
				}, nil
			},
		},
		{
			Name: "ScenarioBuildLasso64", UnitsPerOp: 1,
			Setup: scenarioBuildCase("lasso", 64),
		},
		{
			Name: "ScenarioBuildLasso256", UnitsPerOp: 1,
			Setup: scenarioBuildCase("lasso", 256),
		},
		{
			Name: "ReportMarshalLasso64", UnitsPerOp: 1,
			Setup: func() (func() error, error) {
				rep, _, err := servedLassoReport()
				if err != nil {
					return nil, err
				}
				return func() error {
					_, err := json.Marshal(rep)
					return err
				}, nil
			},
		},
		{
			Name: "ReportUnmarshalLasso64", UnitsPerOp: 1,
			Setup: func() (func() error, error) {
				rep, data, err := servedLassoReport()
				if err != nil {
					return nil, err
				}
				return func() error {
					var got repro.Report
					if err := json.Unmarshal(data, &got); err != nil {
						return err
					}
					if !slices.Equal(got.X, rep.X) || !slices.Equal(got.Boundaries, rep.Boundaries) {
						return fmt.Errorf("decoded report drifted")
					}
					return nil
				}, nil
			},
		},
		{
			Name: "ProxGradBFApply", UnitsPerOp: 1,
			Setup: func() (func() error, error) {
				reg, err := repro.NewRegression(repro.RegressionConfig{
					N: 64, Coupling: 0.3, Sparsity: 0.5, Reg: 0.1, Seed: 5,
				})
				if err != nil {
					return nil, err
				}
				f := reg.Smooth()
				op := repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f))
				scr := repro.NewOperatorScratch()
				x := make([]float64, 64)
				dst := make([]float64, 64)
				return func() error {
					repro.ApplyOperator(op, scr, dst, x)
					return nil
				}, nil
			},
		},
	}
}

// perComponent forwards the componentwise and scratch fast paths of its
// inner operator but hides BlockScratchOperator, so EvalBlock takes the
// per-component fallback — the exact pre-block-contract hot loop, measured
// as the baseline of every BlockEval pair.
type perComponent struct{ inner repro.Operator }

func (w perComponent) Dim() int                             { return w.inner.Dim() }
func (w perComponent) Component(i int, x []float64) float64 { return w.inner.Component(i, x) }
func (w perComponent) Name() string                         { return w.inner.Name() }

func (w perComponent) ComponentScratch(scr *repro.OperatorScratch, i int, x []float64) float64 {
	return repro.EvalComponent(w.inner, scr, i, x)
}

func (w perComponent) ApplyScratch(scr *repro.OperatorScratch, dst, x []float64) {
	repro.ApplyOperator(w.inner, scr, dst, x)
}

// blockLassoOp builds the n-dim ProxGradBF lasso operator of the BlockEval
// cases. The design matrix keeps a thin slab of dense coupling rows so the
// Gram matrix stays genuinely coupled without the O(samples*n^2) assembly
// cost of the default 4n-sample generator at this scale.
func blockLassoOp(n int) (repro.Operator, error) {
	reg, err := repro.NewRegression(repro.RegressionConfig{
		N: n, Samples: n + 32, Coupling: 0.2, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: 17,
	})
	if err != nil {
		return nil, err
	}
	f := reg.Smooth()
	return repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f)), nil
}

// blockSeparableLassoOp builds the n-dim ProxGradBF operator over the
// paper's Section V separable smooth model — O(n) memory, so the BlockEval
// case can scale to dimensions where a dense Gram matrix would not fit.
// This is the regime where a block phase is O(n + b) against the
// per-component path's O(b*n).
func blockSeparableLassoOp(n int) (repro.Operator, error) {
	rng := repro.NewRNG(18)
	a := make([]float64, n)
	t := make([]float64, n)
	for i := range a {
		a[i] = 1 + rng.Float64()
		t[i] = rng.Normal()
	}
	f := repro.NewSeparable(a, t)
	return repro.NewProxGradBF(f, repro.L1{Lambda: 0.02}, repro.MaxStep(f)), nil
}

// blockSweepCase measures one full round of block phases — every contiguous
// worker block of the n-dim lasso operator evaluated once — through the
// block fast path or (perComp) the forced per-component fallback.
// UnitsPerOp is n, so solve_rate_per_sec is component updates per second
// and the pair's ratio is the block contract's speedup multiple.
func blockSweepCase(build func(int) (repro.Operator, error), n, blockSize int, perComp bool) func() (func() error, error) {
	return func() (func() error, error) {
		op, err := build(n)
		if err != nil {
			return nil, err
		}
		if perComp {
			op = perComponent{op}
		}
		scr := repro.NewOperatorScratch()
		x := repro.NewRNG(19).NormalVector(n)
		out := make([]float64, blockSize)
		return func() error {
			for lo := 0; lo < n; lo += blockSize {
				hi := lo + blockSize
				if hi > n {
					hi = n
				}
				repro.EvalBlock(op, scr, lo, hi, x, out[:hi-lo])
			}
			return nil
		}, nil
	}
}

// scenarioBuildCase measures one complete scenario build at size n, the
// per-job cost a served solve pays before its first iteration.
func scenarioBuildCase(scenario string, n int) func() (func() error, error) {
	return func() (func() error, error) {
		return func() error {
			_, err := repro.BuildScenario(scenario, n, 1)
			return err
		}, nil
	}
}

// servedLassoReport is the report a served model-engine lasso n=64 job
// streams back, and its wire bytes.
func servedLassoReport() (*repro.Report, []byte, error) {
	inst, err := repro.BuildScenario("lasso", 64, 1)
	if err != nil {
		return nil, nil, err
	}
	rep, err := repro.Solve(inst.Spec,
		repro.WithEngine(repro.EngineModel),
		repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 1}),
		repro.WithSeed(1))
	if err != nil {
		return nil, nil, err
	}
	data, err := json.Marshal(rep)
	return rep, data, err
}

// Measure runs one case: Setup untimed, then the op repeated until at least
// benchtime has elapsed (exactly once when benchtime is 0, the quick mode),
// reporting per-op time and allocation figures.
func Measure(c Case, benchtime time.Duration) Result {
	res := Result{Name: c.Name, Kind: "micro"}
	op, err := c.Setup()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	// Warm up once so lazily grown buffers do not count against the
	// steady-state numbers.
	if err := op(); err != nil {
		res.Err = err.Error()
		return res
	}

	var before, after runtime.MemStats
	iters := 0
	var elapsed time.Duration
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for elapsed < benchtime || iters == 0 {
		if err := op(); err != nil {
			res.Err = err.Error()
			return res
		}
		iters++
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)

	res.Iterations = iters
	res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(iters)
	res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(iters)
	res.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
	if c.UnitsPerOp > 0 && res.NsPerOp > 0 {
		res.SolveRate = c.UnitsPerOp / res.NsPerOp * 1e9
	}
	return res
}
