package repro

// Engines: the interchangeable execution backends behind Solve. Each one
// adapts an internal engine package to the common Spec/Report contract.
// Only model is a deterministic state machine of its own. The other five
// are one worker loop (internal/runtime, loop.go). sim and simsync run it
// as coroutines over the virtual-time port of internal/des, which charges
// each phase its simulated cost (asynchronously, or behind a barrier per
// round). shared, message and dist run it over three transports: the
// in-process port, whose newest-wins boxes are laid out one per worker
// (shared) or one per pair of workers (message), and the TCP star relay
// and TCP mesh of internal/dist. Those three take one configuration
// (runtime.Config, which dist.Config embeds next to its network knobs) and
// report through one mapping (concurrentReport).
//
// Per-engine contract (which Spec knobs are honoured):
//
//   - EngineModel   — the mathematical model of Definitions 1 and 3
//     (internal/core): Problem, Delay, Steering, Theta,
//     ValidateConstraint3, Workers/WorkerOf (epoch bookkeeping), Tol,
//     MaxIter. It checks its fixed-point residual every n iterations.
//   - EngineSim     — the free-running asynchronous discrete-event
//     simulator (internal/des): Problem, Flexible, Workers, Cost, Latency,
//     DropProb, ApplyStale, Neighbors, Seed, Trace, Tol, MaxUpdates,
//     MaxTime.
//   - EngineSimSync — the barrier-synchronous simulated baseline
//     (internal/des): Problem, Workers, Cost, Latency, Seed, Tol,
//     MaxUpdates, MaxTime.
//
// The worker-loop engines all honour Problem (Op, X0), Workers, Tol and
// MaxUpdates/MaxUpdatesPerWorker (a worker goes passive after two
// consecutive phases within Tol), and add:
//
//   - EngineShared  — goroutines over shared memory, a locked block per
//     worker (internal/runtime): Flexible, Trace (Report.PerWorker).
//   - EngineMessage — goroutines over newest-wins mailboxes, one per
//     pair of workers (internal/runtime): Flexible, Trace.
//   - EngineDist    — TCP workers with per-link fault injection
//     (internal/dist): Topology ("star" relay or "mesh" worker-to-worker
//     links), DeltaThreshold (flexible communication on the wire),
//     DropProb, ReorderProb, MaxLinkDelay, Seed, and Elastic (how a lost
//     worker is detected and re-sharded around; see WithElastic).
//
// Every engine honours Ctx and Progress. Knobs outside an engine's list are ignored, so one Spec can be re-run
// across engines unchanged. The simulated engines stop on the max-norm
// error to XStar; when Tol is set and XStar is omitted they first compute a
// synchronous reference solution (see ensureReference).
//
// The worker loop's policies hold on every transport: a worker turns
// passive only after a reliable final publish and a re-verification; a
// parked worker that receives input re-verifies local convergence before it
// may publish again; a worker out of budget stays in the run, spent,
// absorbing and re-verifying, and never reports passive on data it could
// not iterate away. Termination is the two-phase double-collect quiescence
// protocol (quiescence.go): stop is broadcast only after two identical
// observations of "every worker parked — passive or spent — and nothing in
// flight"; Converged means every worker was passive.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/dist"
	"repro/internal/operators"
	"repro/internal/runtime"
	"repro/internal/vec"
)

// Engine executes a Spec under one regime of the paper's asynchronous
// iteration scheme.
type Engine interface {
	// Name is the stable identifier used by EngineByName and CLI flags.
	Name() string
	// Solve runs the iteration and assembles the unified Report.
	Solve(spec Spec) (*Report, error)
}

// The built-in engines.
var (
	// EngineModel executes the paper's mathematical model (Definitions 1
	// and 3) deterministically with explicit steering and delay labels.
	EngineModel Engine = modelEngine{}
	// EngineSim executes the free-running asynchronous discrete-event
	// simulation of heterogeneous workers and lossy/reordering links.
	EngineSim Engine = simEngine{}
	// EngineSimSync executes the barrier-synchronous simulated baseline.
	EngineSimSync Engine = simSyncEngine{}
	// EngineShared executes real goroutines over shared memory.
	EngineShared Engine = sharedEngine{}
	// EngineMessage executes real goroutines over newest-wins mailboxes.
	EngineMessage Engine = messageEngine{}
	// EngineDist executes real TCP workers through a fault-injecting
	// coordinator (localhost by default; see internal/dist and the
	// asyncsolve dist-coordinator / dist-worker subcommands for
	// multi-process deployment).
	EngineDist Engine = distEngine{}
)

// Engines returns the built-in engines in presentation order.
func Engines() []Engine {
	return []Engine{EngineModel, EngineSim, EngineSimSync, EngineShared, EngineMessage, EngineDist}
}

// EngineByName resolves an engine identifier ("model", "sim", "simsync",
// "shared", "message", "dist"); a few aliases are accepted.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "model", "math":
		return EngineModel, nil
	case "sim", "des", "async":
		return EngineSim, nil
	case "simsync", "sim-sync", "sync":
		return EngineSimSync, nil
	case "shared", "shm":
		return EngineShared, nil
	case "message", "msg", "channel":
		return EngineMessage, nil
	case "dist", "tcp":
		return EngineDist, nil
	}
	return nil, fmt.Errorf("repro: unknown engine %q (want model | sim | simsync | shared | message | dist)", name)
}

// defaultWorkers is the processor count used by the worker-based engines
// when Spec.Workers is zero.
const defaultWorkers = 4

func (s Spec) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return defaultWorkers
}

// done returns the cancellation channel of Spec.Ctx (nil when no context is
// attached, which the engines treat as "never cancelled").
func (s Spec) done() <-chan struct{} {
	if s.Ctx == nil {
		return nil
	}
	return s.Ctx.Done()
}

// ctxErr is the error a cancelled solve returns: the context's own error
// when one is attached, context.Canceled as the fallback.
func (s Spec) ctxErr() error {
	if s.Ctx != nil {
		if err := s.Ctx.Err(); err != nil {
			return err
		}
	}
	return context.Canceled
}

// ensureReference fills in spec.XStar with a synchronous reference solution
// when an engine needs it for error-based stopping. The reference is solved
// an order of magnitude tighter than the requested tolerance.
func ensureReference(spec *Spec) error {
	if spec.Tol <= 0 || spec.XStar != nil {
		return nil
	}
	refTol := spec.Tol / 10
	if refTol < 1e-14 {
		refTol = 1e-14
	}
	x0 := spec.X0
	if x0 == nil {
		x0 = make([]float64, spec.Op.Dim())
	}
	xstar, ok := operators.FixedPoint(spec.Op, x0, refTol, 4000000)
	if !ok {
		return errors.New("repro: engine stops on the error to XStar and the synchronous reference solve did not converge; provide Spec.Problem.XStar")
	}
	spec.XStar = xstar
	return nil
}

// blockOwner maps components to contiguous block owners, the partition the
// worker-based engines use.
func blockOwner(n, workers int) (func(i int) int, int) {
	blocks := vec.Blocks(n, workers)
	owner := make([]int, n)
	for w, b := range blocks {
		for i := b[0]; i < b[1]; i++ {
			owner[i] = w
		}
	}
	return func(i int) int { return owner[i] }, len(blocks)
}

// ---------------------------------------------------------------------------
// Model engine.

type modelEngine struct{}

func (modelEngine) Name() string { return "model" }

func (modelEngine) Solve(spec Spec) (*Report, error) {
	cfg := core.Config{
		Op:               spec.Op,
		Steering:         spec.Steering,
		Delay:            spec.Delay,
		X0:               spec.X0,
		Theta:            spec.Theta,
		MaxIter:          spec.MaxIter,
		Tol:              spec.Tol,
		XStar:            spec.XStar,
		Weights:          spec.Weights,
		WorkerOf:         spec.WorkerOf,
		Workers:          spec.Workers,
		CheckConstraint3: spec.ValidateConstraint3,
		Scratch:          spec.Scratch.modelScratch(),
		Tuning:           spec.Tuning.operatorTuning(),
		Done:             spec.done(),
		Progress:         spec.Progress.counter(),
	}
	// Unified Workers semantics: a machine count without an explicit
	// component-to-machine map means the same contiguous block partition
	// the other engines use.
	if cfg.WorkerOf == nil && spec.Workers > 0 {
		cfg.WorkerOf, cfg.Workers = blockOwner(spec.Op.Dim(), spec.Workers)
	}
	r, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	if r.Cancelled {
		return nil, spec.ctxErr()
	}
	rep := &Report{
		Engine:           "model",
		X:                r.X,
		Converged:        r.Converged,
		Iterations:       r.Iterations,
		Updates:          r.Updates,
		FinalResidual:    r.FinalResidual,
		Errors:           r.Errors,
		Boundaries:       r.Boundaries,
		StrictBoundaries: r.StrictBoundaries,
		Epochs:           r.Epochs,
		model:            r,
	}
	rep.finish(spec)
	return rep, nil
}

// ---------------------------------------------------------------------------
// Asynchronous discrete-event simulator.

type simEngine struct{}

func (simEngine) Name() string { return "sim" }

func (s Spec) desConfig() des.Config {
	return des.Config{
		Op:         s.Op,
		Workers:    s.workers(),
		X0:         s.X0,
		XStar:      s.XStar,
		Tol:        s.Tol,
		MaxUpdates: s.MaxUpdates,
		MaxTime:    s.MaxTime,
		Cost:       s.Cost,
		Latency:    s.Latency,
		DropProb:   s.DropProb,
		Flexible:   s.Flexible,
		ApplyStale: s.ApplyStale,
		Neighbors:  s.Neighbors,
		Seed:       s.Seed,
		Trace:      s.Trace,
		Scratches:  s.Scratch.workerScratches(s.workers()),
		Tuning:     s.Tuning.operatorTuning(),
		Done:       s.done(),
		Progress:   s.Progress.counter(),
	}
}

func (simEngine) Solve(spec Spec) (*Report, error) {
	if err := ensureReference(&spec); err != nil {
		return nil, err
	}
	r, err := des.Run(spec.desConfig())
	if err != nil {
		return nil, err
	}
	if r.Cancelled {
		return nil, spec.ctxErr()
	}
	rep := &Report{
		Engine:           "sim",
		X:                r.X,
		Converged:        r.Converged,
		Iterations:       r.Updates,
		Updates:          r.Updates,
		FinalError:       r.FinalError,
		ErrorTrace:       r.ErrorTrace,
		Boundaries:       r.Boundaries,
		StrictBoundaries: r.StrictBoundaries,
		Epochs:           r.Epochs,
		UpdatesPerWorker: r.UpdatesPerWorker,
		MessagesSent:     int64(r.MessagesSent),
		MessagesDropped:  int64(r.MessagesDropped),
		MessagesStale:    int64(r.MessagesStale),
		Time:             r.Time,
		sim:              r,
	}
	rep.finish(spec)
	return rep, nil
}

// ---------------------------------------------------------------------------
// Barrier-synchronous simulated baseline.

type simSyncEngine struct{}

func (simSyncEngine) Name() string { return "simsync" }

func (simSyncEngine) Solve(spec Spec) (*Report, error) {
	if err := ensureReference(&spec); err != nil {
		return nil, err
	}
	r, err := des.RunSync(spec.desConfig())
	if err != nil {
		return nil, err
	}
	if r.Cancelled {
		return nil, spec.ctxErr()
	}
	rep := &Report{
		Engine:     "simsync",
		X:          r.X,
		Converged:  r.Converged,
		Iterations: r.Rounds,
		Updates:    r.Rounds * len(r.ComputeTime),
		FinalError: r.FinalError,
		ErrorTrace: r.ErrorTrace,
		Time:       r.Time,
		simSync:    r,
	}
	rep.finish(spec)
	return rep, nil
}

// ---------------------------------------------------------------------------
// Goroutine engines.

func (s Spec) runtimeConfig() runtime.Config {
	maxPerWorker := s.MaxUpdatesPerWorker
	if maxPerWorker <= 0 && s.MaxUpdates > 0 {
		// Divide by the worker count the runtime will actually use (it
		// clamps to the dimension), so the total budget stays MaxUpdates.
		w := s.workers()
		if n := s.Op.Dim(); w > n {
			w = n
		}
		maxPerWorker = s.MaxUpdates / w
		if maxPerWorker < 1 {
			maxPerWorker = 1
		}
	}
	return runtime.Config{
		Op:                  s.Op,
		Workers:             s.workers(),
		X0:                  s.X0,
		Tol:                 s.Tol,
		MaxUpdatesPerWorker: maxPerWorker,
		Flexible:            s.Flexible,
		Scratches:           s.Scratch.workerScratches(s.workers()),
		Tuning:              s.Tuning.operatorTuning(),
		Done:                s.done(),
		Progress:            s.Progress.counter(),
		PerWorker:           s.Trace != nil,
	}
}

// concurrentReport is the one Result -> Report mapping of the three
// engines that run the Worker loop. A run that certified convergence before
// a cancel landed is a result; only a genuinely cut-short run reports the
// context error.
func concurrentReport(engine string, r *runtime.Result, spec Spec) (*Report, error) {
	if r.Cancelled && !r.Converged {
		return nil, spec.ctxErr()
	}
	updates := 0
	for _, u := range r.UpdatesPerWorker {
		updates += u
	}
	rep := &Report{
		Engine:           engine,
		X:                r.X,
		Converged:        r.Converged,
		Updates:          updates,
		UpdatesPerWorker: r.UpdatesPerWorker,
		MessagesSent:     r.MessagesSent,
		MessagesDropped:  r.MessagesDropped,
		Elapsed:          r.Elapsed,
		PerWorker:        r.PerWorker,
		concurrent:       r,
	}
	rep.finish(spec)
	return rep, nil
}

type sharedEngine struct{}

func (sharedEngine) Name() string { return "shared" }

func (sharedEngine) Solve(spec Spec) (*Report, error) {
	r, err := runtime.RunShared(spec.runtimeConfig())
	if err != nil {
		return nil, err
	}
	return concurrentReport("shared", r, spec)
}

type messageEngine struct{}

func (messageEngine) Name() string { return "message" }

func (messageEngine) Solve(spec Spec) (*Report, error) {
	r, err := runtime.RunMessage(spec.runtimeConfig())
	if err != nil {
		return nil, err
	}
	return concurrentReport("message", r, spec)
}

// ---------------------------------------------------------------------------
// Distributed TCP engine.

type distEngine struct{}

func (distEngine) Name() string { return "dist" }

// DistConfig is the one Spec -> dist.Config mapping: what the dist engine
// runs, and what the dist-coordinator and chaos subcommands start from
// before setting what is theirs alone. Timeout is left at dist's default.
func (s Spec) DistConfig() dist.Config {
	return dist.Config{
		Config:         s.runtimeConfig(),
		Topology:       s.Topology,
		DeltaThreshold: s.DeltaThreshold,
		Fault: dist.Fault{
			DropProb:    s.DropProb,
			ReorderProb: s.ReorderProb,
			MaxDelay:    s.MaxLinkDelay,
			Seed:        s.Seed,
		},
		Elastic: s.Elastic,
	}
}

func (distEngine) Solve(spec Spec) (*Report, error) {
	r, err := dist.Run(spec.DistConfig())
	if err != nil {
		return nil, err
	}
	rep, err := concurrentReport("dist", &r.Result, spec)
	if err != nil {
		return nil, err
	}
	rep.MessagesStale = r.MessagesStale
	rep.MessagesReordered = r.MessagesReordered
	rep.MessagesDuplicate = r.MessagesDuplicate
	rep.BytesSent = r.BytesSent
	rep.BytesReceived = r.BytesReceived
	rep.WorkersLost = r.WorkersLost
	rep.WorkersRejoined = r.WorkersRejoined
	rep.Resharding = r.Resharding
	rep.dist = r
	return rep, nil
}
