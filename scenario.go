package repro

// Scenario registry: named builders for the library's workloads, so any
// workload x delay x steering x flexible x engine combination is composable
// by name (CLI: asyncsolve -scenario lasso -engine sim -delay bounded:8).
// Packages may add their own scenarios with RegisterScenario.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/mldata"
	"repro/internal/multigrid"
	"repro/internal/netflow"
	"repro/internal/obstacle"
	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/sssp"
	"repro/internal/vec"
)

// ScenarioInstance is one built workload: a ready-to-Solve Spec plus a
// workload-specific quality report.
type ScenarioInstance struct {
	// Spec is the base specification (problem, sensible stopping
	// defaults); adjust it with Solve options (engine, delay, workers...).
	Spec Spec
	// Describe reports workload-specific solution quality (MSE, KKT
	// imbalance, complementarity, deviation from Dijkstra, ...) for a
	// final iterate. May be nil.
	Describe func(x []float64) string
}

// Scenario is a named workload builder.
type Scenario struct {
	// Name is the registry key (lower-case, unique).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// DefaultN is the problem size used when the caller passes n <= 0.
	DefaultN int
	// Build constructs the workload at size n with the given seed. The
	// tuning knobs are available at build time so builders that make
	// build-time structural choices (e.g. the LeastSquares Gram form via
	// Tuning.GramPrecompute, or sharded precomputation via
	// Tuning.IntraParallelism) can honor them; builders with no such
	// choice simply ignore the argument.
	Build func(n int, seed uint64, t Tuning) (*ScenarioInstance, error)
}

var (
	scenarioMu  sync.RWMutex
	scenarioReg = map[string]Scenario{}
)

// RegisterScenario adds s to the registry. It errors on an empty name, a
// nil builder, or a duplicate registration.
func RegisterScenario(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("repro: RegisterScenario requires a name")
	}
	if s.Build == nil {
		return fmt.Errorf("repro: scenario %q has no builder", s.Name)
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioReg[s.Name]; dup {
		return fmt.Errorf("repro: scenario %q already registered", s.Name)
	}
	scenarioReg[s.Name] = s
	return nil
}

// Scenarios returns all registered scenarios sorted by name.
func Scenarios() []Scenario {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	out := make([]Scenario, 0, len(scenarioReg))
	for _, s := range scenarioReg {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioByName looks up a registered scenario.
func ScenarioByName(name string) (Scenario, bool) {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	s, ok := scenarioReg[name]
	return s, ok
}

// BuildScenario builds the named scenario at size n (DefaultN when n <= 0)
// with default tuning.
func BuildScenario(name string, n int, seed uint64) (*ScenarioInstance, error) {
	return BuildScenarioTuned(name, n, seed, DefaultTuning())
}

// BuildScenarioTuned builds the named scenario with the given tuning knobs:
// the builder sees them for build-time choices, and the returned Spec
// carries them so the solve runs with the same settings.
func BuildScenarioTuned(name string, n int, seed uint64, t Tuning) (*ScenarioInstance, error) {
	s, ok := ScenarioByName(name)
	if !ok {
		known := make([]string, 0)
		for _, sc := range Scenarios() {
			known = append(known, sc.Name)
		}
		return nil, fmt.Errorf("repro: unknown scenario %q (registered: %s)",
			name, strings.Join(known, " "))
	}
	if n <= 0 {
		n = s.DefaultN
	}
	inst, err := s.Build(n, seed, t)
	if err != nil {
		return nil, err
	}
	inst.Spec.Tuning = t
	return inst, nil
}

func mustRegister(s Scenario) {
	if err := RegisterScenario(s); err != nil {
		panic(err)
	}
}

// ParseDelay parses a delay-model string of the form "name" or
// "name:param": fresh | constant:D | bounded:B | sqrt | log | ooo:W.
// Parameters default to constant:1, bounded:8, ooo:16 and must be >= 1 when
// given — a zero parameter (constant:0, bounded:0, ooo:0) would silently
// degenerate to the fresh model and is rejected instead. The seed feeds the
// randomized models.
func ParseDelay(s string, seed uint64) (DelayModel, error) {
	name, param := s, 0
	hasParam := false
	if k := strings.IndexByte(s, ':'); k >= 0 {
		name = s[:k]
		v, err := strconv.Atoi(s[k+1:])
		if err != nil || v < 1 {
			return nil, fmt.Errorf("repro: bad delay parameter in %q (want an integer >= 1)", s)
		}
		param, hasParam = v, true
	}
	switch name {
	case "fresh":
		if hasParam {
			return nil, fmt.Errorf("repro: delay model fresh takes no parameter (got %q)", s)
		}
		return FreshDelay{}, nil
	case "constant", "const":
		if !hasParam {
			param = 1
		}
		return ConstantDelay{D: param}, nil
	case "bounded", "chaotic":
		if !hasParam {
			param = 8
		}
		return BoundedRandomDelay{B: param, Seed: seed + 1}, nil
	case "sqrt":
		if hasParam {
			return nil, fmt.Errorf("repro: delay model sqrt takes no parameter (got %q)", s)
		}
		return SqrtGrowthDelay{}, nil
	case "log":
		if hasParam {
			return nil, fmt.Errorf("repro: delay model log takes no parameter (got %q)", s)
		}
		return LogGrowthDelay{}, nil
	case "ooo", "outoforder":
		if !hasParam {
			param = 16
		}
		return OutOfOrderDelay{W: param, Seed: seed + 2}, nil
	}
	return nil, fmt.Errorf("repro: unknown delay model %q (want fresh | constant:D | bounded:B | sqrt | log | ooo:W)", s)
}

// ---------------------------------------------------------------------------
// Built-in scenarios.

func init() {
	mustRegister(Scenario{
		Name:     "lasso",
		Summary:  "L1-regularized regression via the Definition 4 backward-forward operator",
		DefaultN: 64,
		Build:    buildLasso,
	})
	mustRegister(Scenario{
		Name:     "ridge",
		Summary:  "ridge regression via the gradient operator on an L-smooth least-squares loss",
		DefaultN: 64,
		Build:    buildRidge,
	})
	mustRegister(Scenario{
		Name:     "logistic",
		Summary:  "regularized logistic-regression training (Section V machine learning setting)",
		DefaultN: 24,
		Build:    buildLogistic,
	})
	mustRegister(Scenario{
		Name:     "netflow",
		Summary:  "convex separable network flow by distributed dual relaxation [6]",
		DefaultN: 6,
		Build:    buildNetflow,
	})
	mustRegister(Scenario{
		Name:     "obstacle",
		Summary:  "discretized obstacle problem by projected relaxation [26]",
		DefaultN: 16,
		Build:    buildObstacle,
	})
	mustRegister(Scenario{
		Name:     "routing",
		Summary:  "asynchronous Bellman-Ford shortest-path routing (Arpanet setting)",
		DefaultN: 64,
		Build:    buildRouting,
	})
	mustRegister(Scenario{
		Name:     "multigrid",
		Summary:  "2-D Poisson fine-grid relaxation, the chaotic smoother workload of [5]",
		DefaultN: 15,
		Build:    buildMultigrid,
	})
}

// buildRegression generates the regression data honoring the build-time
// tuning knob that applies to it: IntraParallelism > 1 shards the build's
// one (bit-identical) Gram assembly.
func buildRegression(n int, seed uint64, t Tuning) (*mldata.Regression, error) {
	return mldata.NewRegressionSharded(mldata.RegressionConfig{
		N: n, Coupling: 0.3, Sparsity: 0.5, Noise: 0.01, Reg: 0.1, Seed: seed,
	}, t.IntraParallelism)
}

// regressionSmooth builds the least-squares smooth part: on the Gram the
// Regression already holds, or, with GramPrecompute=false, in the lean
// residual form that holds none.
func regressionSmooth(reg *mldata.Regression, t Tuning) *operators.LeastSquares {
	if !t.GramPrecomputed() {
		return reg.SmoothLean()
	}
	return reg.Smooth()
}

func buildLasso(n int, seed uint64, t Tuning) (*ScenarioInstance, error) {
	reg, err := buildRegression(n, seed, t)
	if err != nil {
		return nil, err
	}
	f := regressionSmooth(reg, t)
	op := operators.NewProxGradBF(f, prox.L1{Lambda: 0.02}, operators.MaxStep(f))
	return &ScenarioInstance{
		Spec: NewSpec(op, WithTol(1e-9), WithMaxIter(5000000), WithMaxUpdates(5000000)),
		Describe: func(x []float64) string {
			xp := op.Primal(x)
			return fmt.Sprintf("lasso MSE: %.6f (truth %.6f)", reg.MSE(xp), reg.MSE(reg.XTrue))
		},
	}, nil
}

func buildRidge(n int, seed uint64, t Tuning) (*ScenarioInstance, error) {
	reg, err := buildRegression(n, seed, t)
	if err != nil {
		return nil, err
	}
	f := regressionSmooth(reg, t)
	op := operators.NewGradOp(f, operators.MaxStep(f))
	return &ScenarioInstance{
		Spec: NewSpec(op, WithTol(1e-9), WithMaxIter(5000000), WithMaxUpdates(5000000)),
		Describe: func(x []float64) string {
			return fmt.Sprintf("ridge MSE: %.6f (truth %.6f)", reg.MSE(x), reg.MSE(reg.XTrue))
		},
	}, nil
}

func buildLogistic(n int, seed uint64, _ Tuning) (*ScenarioInstance, error) {
	data := mldata.NewClassification(n, 25*n, 0.05, 0.1, seed)
	f := mldata.NewLogistic(data)
	op := operators.NewGradOp(f, operators.MaxStep(f))
	return &ScenarioInstance{
		Spec: NewSpec(op, WithTol(1e-8), WithMaxIter(5000000), WithMaxUpdates(5000000)),
		Describe: func(x []float64) string {
			return fmt.Sprintf("logistic: accuracy %.4f, loss %.6f", data.Accuracy(x), f.Value(x))
		},
	}, nil
}

func buildNetflow(n int, seed uint64, _ Tuning) (*ScenarioInstance, error) {
	side := n
	if side < 2 {
		side = 2
	}
	if side > 12 {
		side = 12
	}
	net, err := netflow.Grid(side, side, 4.0, 2.5, 0.2, seed)
	if err != nil {
		return nil, err
	}
	op := netflow.NewRelaxOp(net)
	return &ScenarioInstance{
		Spec: NewSpec(op, WithTol(1e-9), WithMaxIter(5000000), WithMaxUpdates(5000000)),
		Describe: func(x []float64) string {
			rep := net.CheckKKT(x)
			return fmt.Sprintf("network flow: max imbalance %.2e, primal cost %.4f",
				rep.MaxImbalance, rep.Cost)
		},
	}, nil
}

func buildObstacle(n int, seed uint64, _ Tuning) (*ScenarioInstance, error) {
	side := n
	if side < 4 {
		side = 4
	}
	if side > 128 {
		side = 128
	}
	p := obstacle.Membrane(side)
	return &ScenarioInstance{
		Spec: NewSpec(p, WithX0(p.Supersolution()), WithTol(1e-9),
			WithMaxIter(10000000), WithMaxUpdates(10000000)),
		Describe: func(x []float64) string {
			rep := p.CheckComplementarity(x)
			return fmt.Sprintf("obstacle: min gap %.2e, worst residual %.2e, slack %.2e, contact %d/%d",
				rep.MinGap, rep.WorstResidual, rep.WorstSlackProduct,
				len(p.ContactSet(x, 1e-8)), p.Dim())
		},
	}, nil
}

func buildRouting(n int, seed uint64, _ Tuning) (*ScenarioInstance, error) {
	g, err := sssp.RandomGraph(n, 3*n, seed)
	if err != nil {
		return nil, err
	}
	op, err := sssp.NewBellmanFordOp(g, 0)
	if err != nil {
		return nil, err
	}
	want := g.Dijkstra(0)
	return &ScenarioInstance{
		Spec: NewSpec(op, WithX0(op.InitialDistances()), WithXStar(want),
			WithTol(1e-10), WithMaxIter(8000000), WithMaxUpdates(8000000)),
		Describe: func(x []float64) string {
			dev := 0.0
			for i := range want {
				if d := math.Abs(x[i] - want[i]); d > dev {
					dev = d
				}
			}
			return fmt.Sprintf("routing: max deviation from Dijkstra %.2e", dev)
		},
	}, nil
}

// buildMultigrid assembles the damped-Jacobi relaxation operator of the 2-D
// Poisson fine grid — the smoothing iteration the multigrid workload of [5]
// runs chaotically. The 5-point stencil gives the sparse fixed-point map
// x_i <- (f_i + sum of neighbours)/4 with f = h^2 * load.
func buildMultigrid(n int, seed uint64, _ Tuning) (*ScenarioInstance, error) {
	if n < 3 {
		n = 3
	}
	if n > 63 {
		n = 63
	}
	f := multigrid.PoissonRHS(n, func(x, y float64) float64 { return 1 + x*y })
	dim := n * n
	idx := func(r, c int) int { return r*n + c }
	var entries []vec.COOEntry
	b := make([]float64, dim)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := idx(r, c)
			b[i] = f[i] / 4
			if r > 0 {
				entries = append(entries, vec.COOEntry{Row: i, Col: idx(r-1, c), Val: 0.25})
			}
			if r < n-1 {
				entries = append(entries, vec.COOEntry{Row: i, Col: idx(r+1, c), Val: 0.25})
			}
			if c > 0 {
				entries = append(entries, vec.COOEntry{Row: i, Col: idx(r, c-1), Val: 0.25})
			}
			if c < n-1 {
				entries = append(entries, vec.COOEntry{Row: i, Col: idx(r, c+1), Val: 0.25})
			}
		}
	}
	op := operators.NewSparseLinear(vec.NewCSR(dim, dim, entries), b)
	_ = seed
	return &ScenarioInstance{
		Spec: NewSpec(op, WithTol(1e-8), WithMaxIter(20000000), WithMaxUpdates(20000000)),
		Describe: func(x []float64) string {
			return fmt.Sprintf("poisson grid %dx%d: fixed-point residual %.2e",
				n, n, operators.Residual(op, x))
		},
	}, nil
}
