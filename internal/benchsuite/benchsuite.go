// Package benchsuite defines the repository's performance suite once, so
// the same workloads are measured everywhere: `go test -bench` (via the
// root bench_test.go, which delegates here) and `asyncsolve bench` (which
// runs the suite standalone and emits a machine-readable BENCH_<rev>.json
// consumed by CI). ns/op measures solving only — workload generation happens
// in each case's Setup, outside the timed region.
package benchsuite

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/server"
)

// Case is one benchmark: Setup builds the workload (untimed) and returns
// the op to measure. UnitsPerOp is how many solver iterations/updates one
// op performs, so throughput ("solve rate") can be derived from ns/op.
// Once marks heavyweight cases (full experiments) that are timed over a
// single run instead of auto-scaled repetitions.
type Case struct {
	Name       string
	Kind       string // "micro" | "experiment"
	UnitsPerOp float64
	Once       bool
	Setup      func() (op func() error, err error)
}

// Result is one measured case in the BENCH JSON schema.
type Result struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// SolveRate is solver iterations/updates per wall-clock second (0 when
	// the case has no meaningful unit count).
	SolveRate float64 `json:"solve_rate_per_sec"`
	Err       string  `json:"error,omitempty"`
}

// benchLinearOp builds the 64-dim diagonally dominant Jacobi operator the
// engine micro-benchmarks share, plus its exact solution.
func benchLinearOp() (*repro.Linear, []float64, error) {
	rng := repro.NewRNG(7)
	n := 64
	m := repro.NewDense(n, n)
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := 0.3 * rng.Normal()
				m.Set(i, j, v)
				if v < 0 {
					off -= v
				} else {
					off += v
				}
			}
		}
		m.Set(i, i, 1.7*off+1)
	}
	rhs := rng.NormalVector(n)
	op := repro.JacobiFromSystem(m, rhs)
	xstar, err := m.SolveGaussian(rhs)
	if err != nil {
		return nil, nil, err
	}
	return op, xstar, nil
}

func solveCase(spec repro.Spec, check func(*repro.Report) error) func() error {
	return func() error {
		res, err := repro.Solve(spec)
		if err != nil {
			return err
		}
		return check(res)
	}
}

// MicroCases returns the engine and kernel micro-benchmarks.
func MicroCases() []Case {
	return []Case{
		{
			Name: "ModelEngineIteration", Kind: "micro", UnitsPerOp: 1000,
			Setup: func() (func() error, error) {
				op, _, err := benchLinearOp()
				if err != nil {
					return nil, err
				}
				spec := repro.NewSpec(op,
					repro.WithEngine(repro.EngineModel),
					repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 3}),
					repro.WithMaxIter(1000),
				)
				return solveCase(spec, func(r *repro.Report) error {
					if r.Iterations != 1000 {
						return fmt.Errorf("ran %d iterations", r.Iterations)
					}
					return nil
				}), nil
			},
		},
		{
			Name: "ModelEngineIterationScratch", Kind: "micro", UnitsPerOp: 1000,
			Setup: func() (func() error, error) {
				op, _, err := benchLinearOp()
				if err != nil {
					return nil, err
				}
				scr := repro.NewScratch()
				spec := repro.NewSpec(op,
					repro.WithEngine(repro.EngineModel),
					repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 3}),
					repro.WithMaxIter(1000),
					repro.WithScratch(scr),
				)
				return solveCase(spec, func(r *repro.Report) error {
					if r.Iterations != 1000 {
						return fmt.Errorf("ran %d iterations", r.Iterations)
					}
					return nil
				}), nil
			},
		},
		{
			Name: "DESUpdatePhase", Kind: "micro", UnitsPerOp: 1000,
			Setup: func() (func() error, error) {
				op, _, err := benchLinearOp()
				if err != nil {
					return nil, err
				}
				spec := repro.NewSpec(op,
					repro.WithEngine(repro.EngineSim),
					repro.WithWorkers(8),
					repro.WithMaxUpdates(1000),
					repro.WithSeed(4),
				)
				return solveCase(spec, func(r *repro.Report) error {
					if r.Updates < 1000 {
						return fmt.Errorf("ran %d updates", r.Updates)
					}
					return nil
				}), nil
			},
		},
		{
			Name: "SharedMemoryGoroutines", Kind: "micro", UnitsPerOp: 1600,
			Setup: func() (func() error, error) {
				op, _, err := benchLinearOp()
				if err != nil {
					return nil, err
				}
				spec := repro.NewSpec(op,
					repro.WithEngine(repro.EngineShared),
					repro.WithWorkers(8),
					repro.WithMaxUpdatesPerWorker(200),
				)
				return solveCase(spec, func(r *repro.Report) error {
					if len(r.UpdatesPerWorker) != 8 {
						return fmt.Errorf("%d workers", len(r.UpdatesPerWorker))
					}
					return nil
				}), nil
			},
		},
		{
			Name: "MessagePassingGoroutines", Kind: "micro", UnitsPerOp: 1600,
			Setup: func() (func() error, error) {
				op, _, err := benchLinearOp()
				if err != nil {
					return nil, err
				}
				spec := repro.NewSpec(op,
					repro.WithEngine(repro.EngineMessage),
					repro.WithWorkers(8),
					repro.WithMaxUpdatesPerWorker(200),
				)
				return solveCase(spec, func(r *repro.Report) error {
					if len(r.UpdatesPerWorker) != 8 {
						return fmt.Errorf("%d workers", len(r.UpdatesPerWorker))
					}
					return nil
				}), nil
			},
		},
		{
			// One op is a complete distributed solve over localhost TCP:
			// listener + 4 worker sockets, 100 phases each, coordinator
			// relay and probe rounds included — the end-to-end cost of the
			// dist engine rather than just its inner loop.
			Name: "DistTCPWorkers", Kind: "micro", UnitsPerOp: 400,
			Setup: func() (func() error, error) {
				op, _, err := benchLinearOp()
				if err != nil {
					return nil, err
				}
				spec := repro.NewSpec(op,
					repro.WithEngine(repro.EngineDist),
					repro.WithWorkers(4),
					repro.WithMaxUpdatesPerWorker(100),
				)
				return solveCase(spec, func(r *repro.Report) error {
					if len(r.UpdatesPerWorker) != 4 {
						return fmt.Errorf("%d workers", len(r.UpdatesPerWorker))
					}
					if r.MessagesSent == 0 {
						return fmt.Errorf("no TCP traffic")
					}
					return nil
				}), nil
			},
		},
		{
			// Star and mesh at 8 workers over the same workload: the pair
			// CI captures to show the mesh data plane removing the
			// coordinator as the bandwidth bottleneck (mesh solve rate
			// should be at or above star).
			Name: "DistStarWorkers", Kind: "micro", UnitsPerOp: 800,
			Setup: distTopologyCase("star"),
		},
		{
			Name: "DistMeshWorkers", Kind: "micro", UnitsPerOp: 800,
			Setup: distTopologyCase("mesh"),
		},
		{
			// The same star solve with elastic membership on (heartbeats,
			// checkpoints, generation-fenced frames) and zero churn: the
			// price of elasticity on a healthy run, to compare against
			// DistStarWorkers.
			Name: "DistElasticWorkers", Kind: "micro", UnitsPerOp: 800,
			Setup: distElasticCase(),
		},
		{
			// One op is one complete lasso solve, so solve_rate_per_sec is
			// end-to-end solves per second — the denominator ServeSustained
			// is normalized against in bench-compare.
			Name: "ScenarioSolveLasso", Kind: "micro", UnitsPerOp: 1,
			Setup: func() (func() error, error) {
				inst, err := repro.BuildScenario("lasso", 32, 1)
				if err != nil {
					return nil, err
				}
				return func() error {
					res, err := repro.Solve(inst.Spec,
						repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}))
					if err != nil {
						return err
					}
					if !res.Converged {
						return fmt.Errorf("did not converge")
					}
					return nil
				}, nil
			},
		},
		{
			// End-to-end lasso solve at 10x the dimension of
			// ScenarioSolveLasso: large enough that the block path's shared
			// prox/gradient work dominates the solve rate.
			Name: "ScenarioSolveLassoLarge", Kind: "micro", UnitsPerOp: 1,
			Setup: func() (func() error, error) {
				inst, err := repro.BuildScenario("lasso", 320, 1)
				if err != nil {
					return nil, err
				}
				return func() error {
					res, err := repro.Solve(inst.Spec,
						repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}))
					if err != nil {
						return err
					}
					if !res.Converged {
						return fmt.Errorf("did not converge")
					}
					return nil
				}, nil
			},
		},
		// BlockEval pairs: identical workload and block partition, evaluated
		// through the whole-block fast path vs the forced per-component
		// fallback. The solve-rate ratio within one capture is the block
		// contract's measured multiple (CI gates on it via bench-compare).
		{
			Name: "BlockEvalN1024", Kind: "micro", UnitsPerOp: 1024,
			Setup: blockSweepCase(blockLassoOp, 1024, 128, false),
		},
		{
			Name: "BlockEvalN1024PerComponent", Kind: "micro", UnitsPerOp: 1024,
			Setup: blockSweepCase(blockLassoOp, 1024, 128, true),
		},
		{
			Name: "BlockEvalN4096", Kind: "micro", UnitsPerOp: 4096,
			Setup: blockSweepCase(blockSeparableLassoOp, 4096, 512, false),
		},
		{
			Name: "BlockEvalN4096PerComponent", Kind: "micro", UnitsPerOp: 4096,
			Setup: blockSweepCase(blockSeparableLassoOp, 4096, 512, true),
		},
		{
			// One op pushes a batch of lasso jobs through a real HTTP solve
			// server (internal/server) over localhost TCP — admission,
			// queueing, scratch-pool checkout, NDJSON streaming and report
			// marshalling all inside the timed region. UnitsPerOp is the
			// batch size, so solve_rate_per_sec is sustained served
			// solves/sec; bench-compare normalizes it against
			// ScenarioSolveLasso (the same solve without the server) within
			// the same capture.
			Name: "ServeSustained", Kind: "micro", UnitsPerOp: serveBatch,
			Setup: serveSustainedCase,
		},
		// The two layers of a served job that are neither the solve nor
		// HTTP: building the scenario (dominated by the Gram assembly) and
		// the Report codec. One op is one assembly / build / encode / decode.
		{
			Name: "GramAssemble256", Kind: "micro", UnitsPerOp: 1,
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
			Name: "ScenarioBuildLasso64", Kind: "micro", UnitsPerOp: 1,
			Setup: scenarioBuildCase("lasso", 64),
		},
		{
			Name: "ScenarioBuildLasso256", Kind: "micro", UnitsPerOp: 1,
			Setup: scenarioBuildCase("lasso", 256),
		},
		{
			Name: "ReportMarshalLasso64", Kind: "micro", UnitsPerOp: 1,
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
			Name: "ReportUnmarshalLasso64", Kind: "micro", UnitsPerOp: 1,
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
			Name: "ProxGradBFApply", Kind: "micro", UnitsPerOp: 1,
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
// streams back (per-iteration Records included) and its wire bytes.
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

// ServeSustained batch shape: serveClients closed-loop clients push
// serveBatch jobs total through the server per op. The jobs are identical
// (same signature), so after the warm-up op the scratch pool serves every
// checkout from its free lists — the steady state of a real deployment.
const (
	serveBatch   = 32
	serveClients = 4
)

// serveSustainedCase starts an in-process solve server on an ephemeral
// port (it lives for the remainder of the benchmark process) and returns
// an op that pushes one closed-loop batch through it.
func serveSustainedCase() (func() error, error) {
	srv := server.New(server.Config{
		Addr:       "127.0.0.1:0",
		QueueDepth: 2 * serveClients,
		Workers:    serveClients,
	})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	c := &server.Client{Base: "http://" + srv.Addr()}
	req := server.JobRequest{Scenario: "lasso", N: 32, Seed: 1, Engine: "model"}
	return func() error {
		var wg sync.WaitGroup
		errCh := make(chan error, serveClients)
		for w := 0; w < serveClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < serveBatch/serveClients; i++ {
					out, err := c.Solve(context.Background(), req)
					switch {
					case err != nil:
						errCh <- err
						return
					case out.Rejected:
						errCh <- fmt.Errorf("closed-loop job rejected (queue misconfigured)")
						return
					case out.JobErr != "":
						errCh <- fmt.Errorf("job failed: %s", out.JobErr)
						return
					case out.Report == nil || !out.Report.Converged:
						errCh <- fmt.Errorf("served solve did not converge")
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errCh:
			return err
		default:
			return nil
		}
	}, nil
}

// distTopologyCase builds the 8-worker × 100-phase end-to-end TCP solve
// used to compare the star and mesh data planes under identical load.
func distTopologyCase(topology string) func() (func() error, error) {
	return func() (func() error, error) {
		op, _, err := benchLinearOp()
		if err != nil {
			return nil, err
		}
		spec := repro.NewSpec(op,
			repro.WithEngine(repro.EngineDist),
			repro.WithTopology(topology),
			repro.WithWorkers(8),
			repro.WithMaxUpdatesPerWorker(100),
		)
		return solveCase(spec, func(r *repro.Report) error {
			if len(r.UpdatesPerWorker) != 8 {
				return fmt.Errorf("%d workers", len(r.UpdatesPerWorker))
			}
			if r.MessagesSent == 0 {
				return fmt.Errorf("no TCP traffic")
			}
			return nil
		}), nil
	}
}

// distElasticCase is distTopologyCase("star") with elastic membership on —
// a churn-free run that prices the heartbeat/checkpoint control traffic.
func distElasticCase() func() (func() error, error) {
	return func() (func() error, error) {
		op, _, err := benchLinearOp()
		if err != nil {
			return nil, err
		}
		spec := repro.NewSpec(op,
			repro.WithEngine(repro.EngineDist),
			repro.WithTopology("star"),
			repro.WithWorkers(8),
			repro.WithMaxUpdatesPerWorker(100),
			repro.WithElastic(repro.Elastic{HeartbeatEvery: 10 * time.Millisecond}),
		)
		return solveCase(spec, func(r *repro.Report) error {
			if len(r.UpdatesPerWorker) != 8 {
				return fmt.Errorf("%d workers", len(r.UpdatesPerWorker))
			}
			if r.WorkersLost != 0 || r.Resharding != 0 {
				return fmt.Errorf("churn on a healthy run: lost=%d reshardings=%d",
					r.WorkersLost, r.Resharding)
			}
			return nil
		}), nil
	}
}

// ExperimentCases returns one heavyweight case per registered experiment;
// each op runs the complete experiment (workload generation included, as
// that is the cost of regenerating the table).
func ExperimentCases() []Case {
	var cases []Case
	for _, e := range experiments.Registry() {
		id := e.ID
		run := e.Run
		cases = append(cases, Case{
			Name: "Experiment" + id, Kind: "experiment", UnitsPerOp: 1, Once: true,
			Setup: func() (func() error, error) {
				return func() error {
					rep := run()
					if !rep.Pass {
						return fmt.Errorf("%s failed acceptance criteria", id)
					}
					return nil
				}, nil
			},
		})
	}
	return cases
}

// Measure runs one case: Setup untimed, then the op repeated until at least
// benchtime has elapsed (or exactly once for Once cases / quick mode via a
// tiny benchtime), reporting per-op time and allocation figures.
func Measure(c Case, benchtime time.Duration) Result {
	res := Result{Name: c.Name, Kind: c.Kind}
	op, err := c.Setup()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	// Warm up once so lazily grown buffers, pools and scheduler state do
	// not count against the steady-state numbers; Once cases skip this
	// (one warm-up would double their cost for no extra signal).
	if !c.Once {
		if err := op(); err != nil {
			res.Err = err.Error()
			return res
		}
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
		if c.Once {
			break
		}
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
