package repro

// The unified solver entry point. The paper's whole point is that ONE
// asynchronous iterative scheme (Definitions 1-3) subsumes many execution
// regimes — bounded or unbounded delays, out-of-order messages, flexible
// communication, shared memory or message passing. Solve mirrors that: a
// single Spec describes the iteration, and interchangeable Engines execute
// it under the regime of interest.
//
// A Spec separates four concerns:
//
//   - Problem:   WHAT is solved (operator, start, reference, norm weights)
//   - Dynamics:  HOW reads are stale (delay labels, steering, flexible
//     communication)
//   - Execution: WHERE it runs (workers, compute costs, link latencies,
//     loss, topology, seed, tracing)
//   - Stopping:  WHEN it ends (tolerance and iteration/update/time budgets)
//
// Engines honour the subset of knobs their regime models; the rest are
// ignored (see the Engine docs in engine.go for the per-engine contract).

import (
	"context"
	"errors"
	"time"
)

// Problem identifies the fixed-point problem being solved.
type Problem struct {
	// Op is the fixed-point operator whose components are relaxed.
	Op Operator
	// X0 is the initial iterate; defaults to the zero vector.
	X0 []float64
	// XStar, when known, enables exact error tracking, error-based stopping
	// on the simulated engines, Theorem 1 checking and constraint (3)
	// validation. Engines that need it for stopping compute a synchronous
	// reference solution when it is omitted.
	XStar []float64
	// Weights is the positive weight vector u of the weighted max norm;
	// defaults to all ones. (Model engine only.)
	Weights []float64
}

// Dynamics describes the asynchrony of the iteration: which components are
// relaxed when, how stale the values they read are, and whether partial
// results are published mid-phase (Definition 3).
type Dynamics struct {
	// Delay produces the labels l_i(j) of Definition 1; defaults to Fresh.
	// (Model engine; the simulated and goroutine engines derive their
	// delays from the execution schedule instead.)
	Delay DelayModel
	// Steering produces the sets S_j of Definition 1; defaults to cyclic.
	// (Model engine.)
	Steering SteeringPolicy
	// Theta in [0, 1] enables flexible communication on the model engine:
	// reads blend the labelled value toward the freshest available state.
	Theta float64
	// Flexible publishes partial updates mid-phase on the simulated,
	// shared-memory and message engines (the hatched arrows of Fig. 2).
	Flexible FlexSchedule
	// DeltaThreshold enables flexible communication on the wire (dist
	// engine): a broadcast ships one frame covering the span of shard
	// components that moved by more than the threshold since last shipped,
	// and nothing when nothing moved; the reliable final re-broadcast
	// always carries the whole shard. Choose it at or below Tol.
	DeltaThreshold float64
	// ValidateConstraint3 checks inequality (3) at every read when XStar is
	// known (model engine with Theta > 0).
	ValidateConstraint3 bool
}

// Execution describes the machine the iteration runs on.
type Execution struct {
	// Workers is the number of processors (simulated or goroutines);
	// components are block-partitioned among them. Defaults to 4 on the
	// engines that use it (clamped to the dimension).
	Workers int
	// WorkerOf maps a component to the machine that owns it, for the epoch
	// bookkeeping of the model engine; defaults to a contiguous block
	// partition when Workers is set, identity otherwise.
	WorkerOf func(i int) int
	// Cost models per-phase compute durations (simulated engines; default
	// UniformCost(1)).
	Cost CostFunc
	// Latency models link transit times (simulated engines; default
	// FixedLatency(0.1)).
	Latency LatencyFunc
	// DropProb is the iid probability a message is lost in transit
	// (asynchronous simulator and dist engine).
	DropProb float64
	// ReorderProb is the iid probability a relayed block is held back long
	// enough for later messages to overtake it (dist engine fault
	// injection).
	ReorderProb float64
	// MaxLinkDelay adds a uniform random transit delay in [0, MaxLinkDelay]
	// to every relayed block (dist engine fault injection).
	MaxLinkDelay time.Duration
	// Topology selects the dist engine's data plane: "star" (default —
	// every shard frame relayed through the coordinator) or "mesh" (direct
	// worker-to-worker TCP links; the coordinator keeps only the control
	// plane).
	Topology string
	// Elastic paces the dist engine's worker-churn survival: loss
	// detection, checkpoints and rejoin. See Elastic / WithElastic.
	Elastic Elastic
	// ApplyStale lets late messages carrying older labels overwrite the
	// receiver's view (asynchronous simulator).
	ApplyStale bool
	// Neighbors restricts broadcasts to the listed peers (asynchronous
	// simulator); nil means all-to-all.
	Neighbors [][]int
	// Seed drives all randomness of the simulated engines.
	Seed uint64
	// Tuning holds the kernel-performance knob group (intra-block
	// goroutine lanes, Gram precomputation). The zero value is the
	// default; every engine installs it on its worker scratches, so
	// pooled scratches reused across solves always run with the current
	// solve's knobs. See Tuning for the bit-identity guarantee.
	Tuning Tuning
	// Trace, when non-nil, records update phases and messages (asynchronous
	// simulator); shared and message fill Report.PerWorker instead.
	Trace *TraceLog
	// Scratch, when non-nil, lets repeated Solves of the same shape reuse
	// hot-path buffers (operator temporaries, read vectors). See NewScratch;
	// a Scratch must not be shared by concurrent Solves.
	Scratch *Scratch
	// Ctx, when non-nil, cancels the solve: when the context is done the
	// engine stops at the next phase boundary and Solve returns the
	// context's error (the report is discarded — a cancelled trajectory is
	// not a result). Honoured by every engine.
	Ctx context.Context
	// Progress, when non-nil, is bumped once per completed updating phase
	// so concurrent observers (a serving layer streaming progress events)
	// can watch the solve live. See Progress.
	Progress *Progress
}

// Stopping bounds the run and sets the convergence tolerance.
type Stopping struct {
	// Tol is the convergence tolerance. Model engine: fixed-point residual
	// (or error when XStar is given). Simulated engines: max-norm error to
	// XStar. Goroutine engines: per-block displacement. Zero disables.
	Tol float64
	// MaxIter bounds the model engine's global iterations.
	MaxIter int
	// MaxUpdates bounds the simulated engines' total updating phases; on
	// the goroutine engines it is divided by Workers into a per-worker
	// budget unless MaxUpdatesPerWorker is set.
	MaxUpdates int
	// MaxUpdatesPerWorker bounds each goroutine worker's updating phases.
	MaxUpdatesPerWorker int
	// MaxTime bounds the simulated engines' virtual clock.
	MaxTime float64
}

// Spec is the complete description of one asynchronous solve. The zero
// value of every field except Problem.Op is usable; Engine defaults to
// EngineModel.
type Spec struct {
	Problem
	Dynamics
	Execution
	Stopping
	// Engine selects the execution regime; defaults to EngineModel.
	Engine Engine
}

// NewSpec returns a Spec for op with every other field at its default,
// optionally adjusted by opts.
func NewSpec(op Operator, opts ...Option) Spec {
	spec := Spec{Problem: Problem{Op: op}}
	for _, o := range opts {
		o(&spec)
	}
	return spec
}

// Option mutates a Spec; pass options to Solve (or NewSpec) to adjust a
// base specification without copying it field by field.
type Option func(*Spec)

// WithEngine selects the execution engine.
func WithEngine(e Engine) Option { return func(s *Spec) { s.Engine = e } }

// WithX0 sets the initial iterate.
func WithX0(x0 []float64) Option { return func(s *Spec) { s.X0 = x0 } }

// WithXStar provides the known fixed point for error tracking and
// error-based stopping.
func WithXStar(xstar []float64) Option { return func(s *Spec) { s.XStar = xstar } }

// WithWeights sets the weighted max-norm weight vector u.
func WithWeights(u []float64) Option { return func(s *Spec) { s.Weights = u } }

// WithDelay sets the label function l_i(j) (model engine).
func WithDelay(d DelayModel) Option { return func(s *Spec) { s.Delay = d } }

// WithSteering sets the steering policy S_j (model engine).
func WithSteering(p SteeringPolicy) Option { return func(s *Spec) { s.Steering = p } }

// WithTheta sets the flexible-communication blend fraction (model engine).
func WithTheta(theta float64) Option { return func(s *Spec) { s.Theta = theta } }

// WithFlexible sets the mid-phase partial-publication schedule (simulated
// and shared-memory engines).
func WithFlexible(sched FlexSchedule) Option { return func(s *Spec) { s.Flexible = sched } }

// WithWorkers sets the processor count.
func WithWorkers(w int) Option { return func(s *Spec) { s.Workers = w } }

// WithCost sets the per-phase compute-cost model (simulated engines).
func WithCost(c CostFunc) Option { return func(s *Spec) { s.Cost = c } }

// WithLatency sets the link-latency model (simulated engines).
func WithLatency(l LatencyFunc) Option { return func(s *Spec) { s.Latency = l } }

// WithTopology selects the dist engine's data plane: "star" (coordinator
// relay, the default) or "mesh" (direct worker-to-worker TCP links).
func WithTopology(topology string) Option { return func(s *Spec) { s.Topology = topology } }

// WithDeltaThreshold enables flexible communication on the dist engine's
// wire: a broadcast ships one frame covering the span of shard components
// that moved by more than the threshold since last shipped, and nothing
// when nothing moved. Choose it at or below Tol; the reliable final
// re-broadcast always carries the whole shard.
func WithDeltaThreshold(threshold float64) Option {
	return func(s *Spec) { s.DeltaThreshold = threshold }
}

// WithApplyStale lets stale messages overwrite the receiver's view
// (asynchronous simulator).
func WithApplyStale(apply bool) Option { return func(s *Spec) { s.ApplyStale = apply } }

// WithNeighbors restricts broadcasts to a topology (asynchronous simulator).
func WithNeighbors(nb [][]int) Option { return func(s *Spec) { s.Neighbors = nb } }

// WithSeed sets the seed of the simulated engines' randomness.
func WithSeed(seed uint64) Option { return func(s *Spec) { s.Seed = seed } }

// WithTrace records update phases and messages into lg (asynchronous
// simulator); on the shared and message engines it fills Report.PerWorker.
func WithTrace(lg *TraceLog) Option { return func(s *Spec) { s.Trace = lg } }

// WithScratch attaches reusable solver state so repeated Solves of the same
// shape avoid re-allocating hot-path buffers. Not safe for concurrent
// Solves sharing one Scratch.
func WithScratch(scr *Scratch) Option { return func(s *Spec) { s.Scratch = scr } }

// WithContext makes the solve cancellable: when ctx is done the engine
// stops at the next phase boundary and Solve returns ctx's error. This is
// how a serving layer stops abandoned jobs from burning workers.
func WithContext(ctx context.Context) Option { return func(s *Spec) { s.Ctx = ctx } }

// WithProgress attaches a live progress counter bumped once per completed
// updating phase, readable from other goroutines while the solve runs.
func WithProgress(p *Progress) Option { return func(s *Spec) { s.Progress = p } }

// WithTol sets the convergence tolerance.
func WithTol(tol float64) Option { return func(s *Spec) { s.Tol = tol } }

// WithMaxIter bounds the model engine's iterations.
func WithMaxIter(n int) Option { return func(s *Spec) { s.MaxIter = n } }

// WithMaxUpdates bounds the total updating phases.
func WithMaxUpdates(n int) Option { return func(s *Spec) { s.MaxUpdates = n } }

// WithMaxUpdatesPerWorker bounds each goroutine worker's updating phases.
func WithMaxUpdatesPerWorker(n int) Option { return func(s *Spec) { s.MaxUpdatesPerWorker = n } }

// WithMaxTime bounds the simulated engines' virtual clock.
func WithMaxTime(t float64) Option { return func(s *Spec) { s.MaxTime = t } }

// WithValidateConstraint3 enables inequality (3) validation at every read
// (model engine, Theta > 0, XStar known).
func WithValidateConstraint3(check bool) Option {
	return func(s *Spec) { s.ValidateConstraint3 = check }
}

// Solve executes the asynchronous iteration described by spec, adjusted by
// opts, on the selected engine (EngineModel when unset), and returns the
// unified Report.
func Solve(spec Spec, opts ...Option) (*Report, error) {
	for _, o := range opts {
		o(&spec)
	}
	if spec.Op == nil {
		return nil, errors.New("repro: Spec.Problem.Op is required")
	}
	if spec.Engine == nil {
		spec.Engine = EngineModel
	}
	if spec.Ctx != nil {
		if err := spec.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	return spec.Engine.Solve(spec)
}
