package repro

import (
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/flexible"
	"repro/internal/macroiter"
	"repro/internal/metrics"
	"repro/internal/mldata"
	"repro/internal/multigrid"
	"repro/internal/netflow"
	"repro/internal/newton"
	"repro/internal/obstacle"
	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/runtime"
	"repro/internal/sssp"
	"repro/internal/steering"
	"repro/internal/trace"
	"repro/internal/vec"
)

// ---------------------------------------------------------------------------
// Operators and smooth functions.

type (
	// Operator is a fixed-point map relaxed componentwise by the engines.
	Operator = operators.Operator
	// Smooth is an L-smooth, mu-strongly convex differentiable function.
	Smooth = operators.Smooth
	// Linear is the affine operator x -> Ax + b.
	Linear = operators.Linear
	// GradOp is the gradient-descent operator x - gamma*grad f(x).
	GradOp = operators.GradOp
	// ProxGradBF is the paper's Definition 4 approximate gradient-type
	// operator (backward-forward).
	ProxGradBF = operators.ProxGradBF
	// ProxGradFB is the standard forward-backward proximal gradient.
	ProxGradFB = operators.ProxGradFB
	// InnerIterated is the Remark 2 approximate operator performing K inner
	// gradient steps.
	InnerIterated = operators.InnerIterated
	// Quadratic is f(x) = 1/2 x^T Q x - b^T x + c.
	Quadratic = operators.Quadratic
	// Separable is the fully separable strongly convex model of Section V.
	Separable = operators.Separable
	// LeastSquares is the ridge/lasso smooth part.
	LeastSquares = operators.LeastSquares
	// OperatorScratch is a per-worker bundle of reusable work vectors for
	// allocation-free operator evaluation (see NewOperatorScratch).
	OperatorScratch = operators.Scratch
	// BlockOperator is what an operator implements, besides Component, when
	// its components share work (the prox vector, the gradient pass), so a
	// phase pays for it once per block; it is the only optional interface
	// an Operator is ever asked for. See EvalBlock.
	BlockOperator = operators.BlockScratchOperator
	// RangeGradSmooth is the gradient-range fast path a Smooth implements
	// so block evaluation shares the whole-gradient work (Hessian/Gram row
	// slab, logistic residual pass) across a component range.
	RangeGradSmooth = operators.RangeGradSmooth
)

// Constructors re-exported from the operators package.
var (
	NewLinear        = operators.NewLinear
	NewSparseLinear  = operators.NewSparseLinear
	JacobiFromSystem = operators.JacobiFromSystem
	NewGradOp        = operators.NewGradOp
	NewProxGradBF    = operators.NewProxGradBF
	NewProxGradFB    = operators.NewProxGradFB
	NewInnerIterated = operators.NewInnerIterated
	NewQuadratic     = operators.NewQuadratic
	NewSeparable     = operators.NewSeparable
	NewLeastSquares  = operators.NewLeastSquares
	FixedPoint       = operators.FixedPoint
	OperatorResidual = operators.Residual
	MaxStep          = operators.MaxStep
	TheoreticalRho   = operators.TheoreticalRho
	EstimateContract = operators.EstimateContraction
	UniformWeights   = operators.Ones
	// NewOperatorScratch returns an empty per-worker scratch; thread it
	// through EvalBlock/EvalComponent/ApplyOperator to evaluate operators
	// like ProxGradBF without per-call allocation.
	NewOperatorScratch = operators.NewScratch
	// EvalBlock evaluates the component range [lo, hi) of F at x into out —
	// the call every engine phase makes, and the one evaluation there is:
	// through the operator's BlockOperator method when it has one and scr
	// is non-nil, as the Component loop otherwise.
	EvalBlock = operators.EvalBlock
	// EvalComponent evaluates F_i(x): EvalBlock on [i, i+1).
	EvalComponent = operators.EvalComponent
	// ApplyOperator evaluates F(x) into dst: EvalBlock on [0, n).
	// OperatorResidual (above) is that plus a subtract, on its own scratch.
	ApplyOperator = operators.ApplyInto
)

// ---------------------------------------------------------------------------
// Proximal operators (separable non-smooth g).

type (
	// Prox is a separable proximal operator.
	Prox = prox.Prox
	// L1 is lambda*||x||_1 (soft thresholding).
	L1 = prox.L1
	// SquaredL2 is (lambda/2)||x||^2.
	SquaredL2 = prox.SquaredL2
	// ElasticNet combines L1 and squared L2.
	ElasticNet = prox.ElasticNet
	// Box is the indicator of a box (projection).
	Box = prox.Box
	// NonNeg is the indicator of the nonnegative orthant.
	NonNeg = prox.NonNeg
	// ZeroProx is g = 0.
	ZeroProx = prox.Zero
)

// NewBoxScalar returns the box [lo, hi]^n prox.
var NewBoxScalar = prox.NewBoxScalar

// ---------------------------------------------------------------------------
// Delay models (label functions l_i(j)) and steering policies (S_j).

type (
	// DelayModel yields the labels l_i(j) of Definition 1.
	DelayModel = delay.Model
	// FreshDelay reads the immediately preceding iterate.
	FreshDelay = delay.Fresh
	// ConstantDelay applies a fixed delay.
	ConstantDelay = delay.Constant
	// BoundedRandomDelay is the chaotic-relaxation regime (condition d).
	BoundedRandomDelay = delay.BoundedRandom
	// SqrtGrowthDelay is Baudet's unbounded-delay example.
	SqrtGrowthDelay = delay.SqrtGrowth
	// LogGrowthDelay has delays growing like log j.
	LogGrowthDelay = delay.LogGrowth
	// OutOfOrderDelay produces non-monotone labels (message reordering).
	OutOfOrderDelay = delay.OutOfOrder
	// DelayReport is the admissibility-condition check result.
	DelayReport = delay.Report
)

// Delay-model helpers.
var (
	CheckDelayConditions = delay.CheckConditions
	CheckChaoticBound    = delay.CheckChaoticBound
	DelaySeries          = delay.DelaySeries
)

type (
	// SteeringPolicy produces the sets S_j of Definition 1.
	SteeringPolicy = steering.Policy
)

// Steering constructors.
var (
	NewCyclic         = steering.NewCyclic
	NewAllComponents  = steering.NewAll
	NewBlockCyclic    = steering.NewBlockCyclic
	NewRandomSubset   = steering.NewRandomSubset
	NewGaussSouthwell = steering.NewGaussSouthwell
	NewFair           = steering.NewFair
	CheckConditionC   = steering.CheckConditionC
)

// ---------------------------------------------------------------------------
// Flexible communication (Definition 3).

type (
	// FlexSchedule describes when partial updates are published.
	FlexSchedule = flexible.Schedule
	// Constraint3Report is the norm-constraint (3) check result.
	Constraint3Report = flexible.Constraint3Report
)

// Flexible-communication helpers.
var (
	NewFlexSchedule  = flexible.NewSchedule
	UniformFlex      = flexible.Uniform
	NoFlex           = flexible.None
	CheckConstraint3 = flexible.CheckConstraint3
)

// ---------------------------------------------------------------------------
// Macro-iterations (Definition 2), epochs, stopping.

type (
	// MacroTracker computes the Definition 2 sequence online.
	MacroTracker = macroiter.Tracker
	// EpochTracker computes the epoch sequence of Mishchenko et al. [30].
	EpochTracker = macroiter.EpochTracker
	// IterationRecord captures one iteration for offline analysis.
	IterationRecord = macroiter.Record
	// StopCriterion is the macro-iteration based stopping rule [15].
	StopCriterion = macroiter.StopCriterion
)

// Macro-iteration helpers.
var (
	NewMacroTracker  = macroiter.NewTracker
	NewEpochTracker  = macroiter.NewEpochTracker
	MacroBoundaries  = macroiter.Boundaries
	StrictBoundaries = macroiter.StrictBoundaries
	EpochBoundaries  = macroiter.EpochBoundaries
	EpochStaleness   = macroiter.EpochStaleness
	NewStopCriterion = macroiter.NewStopCriterion
)

// ---------------------------------------------------------------------------
// Engines.

type (
	// ModelResult reports a model run.
	ModelResult = core.Result
	// Theorem1Report is the inequality (5) validation result.
	Theorem1Report = core.Theorem1Report
	// SimResult reports an asynchronous simulated run.
	SimResult = des.Result
	// SimSyncResult reports a barrier-synchronous simulated run.
	SimSyncResult = des.SyncResult
	// ConcurrentResult reports a goroutine run.
	ConcurrentResult = runtime.Result
	// WorkerStats is one worker's time split (Report.PerWorker).
	WorkerStats = runtime.Stats
	// DistResult reports a distributed TCP run.
	DistResult = dist.Result
	// DistFault configures the TCP engine's per-link fault injection.
	DistFault = dist.Fault
	// CostFunc models per-phase compute durations.
	CostFunc = des.CostFunc
	// LatencyFunc models link latencies.
	LatencyFunc = des.LatencyFunc
)

// BoxReport is the nested level-set ("boxes") validation result of the
// General Convergence Theorem structure (Section III).
type BoxReport = core.BoxReport

// Engine helpers.
var (
	CheckTheorem1          = core.CheckTheorem1
	RunWithComponentErrors = core.RunWithComponentErrors
	CheckBoxes             = core.CheckBoxes
	// ErrDiverged matches (errors.Is) the error Solve returns, on every
	// engine, when the operator produces NaN: the evaluated block is tested
	// before it is installed, so no Report ever carries a NaN iterate. The
	// error names the first bad component and the iteration (model) or the
	// worker and its phase (every other engine). +Inf is a legal value.
	ErrDiverged = operators.ErrDiverged

	UniformCost       = des.UniformCost
	HeterogeneousCost = des.HeterogeneousCost
	FixedLatency      = des.FixedLatency
	JitterLatency     = des.JitterLatency
	ChainNeighbors    = des.ChainNeighbors
)

// ---------------------------------------------------------------------------
// Workloads.

type (
	// Regression is a synthetic linear-regression problem.
	Regression = mldata.Regression
	// RegressionConfig controls generation.
	RegressionConfig = mldata.RegressionConfig
	// Classification is a synthetic binary classification problem.
	Classification = mldata.Classification
	// Logistic is the regularized logistic loss (Smooth).
	Logistic = mldata.Logistic
	// FlowNetwork is a convex separable network flow instance.
	FlowNetwork = netflow.Network
	// FlowArc is one arc with quadratic cost.
	FlowArc = netflow.Arc
	// FlowRelaxOp is the per-node dual relaxation operator of [6].
	FlowRelaxOp = netflow.RelaxOp
	// ObstacleProblem is the discretized obstacle problem of [26].
	ObstacleProblem = obstacle.Problem
	// RoutingGraph is a directed graph for Bellman-Ford routing.
	RoutingGraph = sssp.Graph
	// BellmanFordOp is the asynchronous distance-vector operator.
	BellmanFordOp = sssp.BellmanFordOp
)

// Workload constructors.
var (
	NewRegression     = mldata.NewRegression
	NewClassification = mldata.NewClassification
	NewLogistic       = mldata.NewLogistic

	NewFlowNetwork = netflow.New
	FlowGrid       = netflow.Grid
	FlowRandom     = netflow.Random
	NewFlowRelaxOp = netflow.NewRelaxOp

	NewObstacle      = obstacle.New
	ObstacleMembrane = obstacle.Membrane

	NewRoutingGraph  = sssp.NewGraph
	RandomGraph      = sssp.RandomGraph
	GridGraph        = sssp.GridGraph
	NewBellmanFordOp = sssp.NewBellmanFordOp
)

// ---------------------------------------------------------------------------
// Second-order operators ([25]) and multigrid smoothers ([5]).

type (
	// HessianProvider exposes second-order information for Newton-type
	// operators.
	HessianProvider = newton.HessianProvider
	// QuadraticHessian adapts Quadratic to HessianProvider.
	QuadraticHessian = newton.QuadraticHessian
	// DiagNewton is the modified Newton operator with diagonal curvature.
	DiagNewton = newton.DiagNewton
	// BlockNewton performs exact block Newton steps.
	BlockNewton = newton.BlockNewton
	// Multisplitting combines overlapping block-Newton solves.
	Multisplitting = newton.Multisplitting
	// MGSolver is the 2-D Poisson multigrid solver with asynchronous
	// (chaotic) smoothing.
	MGSolver = multigrid.Solver
	// MGSmoother selects the multigrid relaxation scheme.
	MGSmoother = multigrid.Smoother
)

// Newton/multigrid constructors and constants.
var (
	NewDiagNewton          = newton.NewDiagNewton
	NewBlockNewton         = newton.NewBlockNewton
	NewMultisplitting      = newton.NewMultisplitting
	NewLeastSquaresHessian = newton.NewLeastSquaresHessian
	NewMGSolver            = multigrid.NewSolver
	PoissonRHS             = multigrid.PoissonRHS
	MeanConvergenceFactor  = multigrid.MeanConvergenceFactor
	SmootherJacobi         = multigrid.SmootherJacobi
	SmootherChaotic        = multigrid.SmootherChaotic
)

// ---------------------------------------------------------------------------
// Reporting, tracing and numeric helpers.

type (
	// Table is an aligned text table for experiment output.
	Table = metrics.Table
	// TraceLog records update phases and messages.
	TraceLog = trace.Log
	// TraceEvent is one recorded occurrence.
	TraceEvent = trace.Event
	// RNG is the deterministic random generator used across the library.
	RNG = vec.RNG
	// Dense is a row-major dense matrix.
	Dense = vec.Dense
	// CSR is a compressed sparse row matrix.
	CSR = vec.CSR
)

// Reporting and numeric helpers.
var (
	NewTable           = metrics.NewTable
	Speedup            = metrics.Speedup
	Efficiency         = metrics.Efficiency
	FitContractionRate = metrics.FitContractionRate

	RenderGantt   = trace.RenderGantt
	WriteTraceCSV = trace.WriteCSV

	NewRNG          = vec.NewRNG
	NewDense        = vec.NewDense
	DenseFromRows   = vec.DenseFromRows
	NewCSR          = vec.NewCSR
	DistInf         = vec.DistInf
	Dist2           = vec.Dist2
	WeightedMaxNorm = vec.WeightedMaxNorm
)
