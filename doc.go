// Package repro is a Go implementation of parallel and distributed
// asynchronous iterative algorithms with unbounded delays, possible
// out-of-order messages, and flexible communication, for convex
// optimization and machine learning — a reproduction of D. El-Baz, "On
// Parallel or Distributed Asynchronous Iterations with Unbounded Delays and
// Possible Out of Order Messages or Flexible Communication for Convex
// Optimization Problems and Machine Learning" (IPDPS Workshops 2022).
//
// The paper's point is that ONE asynchronous iterative scheme (Definitions
// 1-3) subsumes many execution regimes. The API mirrors that: a single
// Solve entry point runs one Spec — problem, asynchrony dynamics,
// execution model, stopping rule — on any of six interchangeable engines:
//
//   - EngineModel   — the mathematical model of Definitions 1 and 3
//     (explicit steering sets S_j and delay labels l_i(j), deterministic);
//   - EngineSim     — a deterministic discrete-event simulation of
//     heterogeneous workers and lossy/reordering links (virtual time);
//   - EngineSimSync — the barrier-synchronous simulated baseline;
//   - EngineShared  — real goroutines over shared memory, one published
//     block per worker that every peer reads;
//   - EngineMessage — real goroutines over newest-wins mailboxes, one per
//     pair of workers;
//   - EngineDist    — real multi-worker execution over TCP sockets with
//     per-link fault injection (drops, reordering, transit delay).
//
// # Distributed execution, elasticity, one loop
//
// EngineDist runs the distributed-memory setting over TCP (internal/dist,
// whose package doc is the full account): workers own contiguous shards and
// exchange binary shard frames (wire.go) under per-link fault injection —
// WithFaults(Faults{DropProb, ReorderProb, MaxLinkDelay}): iid loss,
// hold-backs so later frames overtake, transit jitter. A sender discards a
// frame a later one from the same source overtook (the label discipline for
// out-of-order messages), counted MessagesReordered and drained from the
// in-flight count like a drop; a leg writes only its newest due frame, so it
// sheds stale frames too and a fault-free run can report reordered frames. A
// worker's final is reliable. WithTopology picks "star" (default: the
// coordinator relays every frame) or "mesh" (worker-to-worker links);
// rendezvous, probe-round termination, membership and final collection go
// through the coordinator either way. WithDeltaThreshold ships one
// [offset, len) span of the shard components that moved past it (nothing
// when none did). The asyncsolve dist-coordinator and dist-worker
// subcommands run the same protocol as separate processes.
//
// Membership is elastic: a worker whose link fails, or that stays silent
// past max(6×HeartbeatEvery, 200ms), is lost, and the coordinator re-shards
// over the survivors behind a generation-fenced barrier; a restarted worker
// rejoins with bounded backoff and warm-starts from the merged iterate.
// With zero churn the trajectory is bit-identical whatever the knobs say;
// WithElastic(Elastic{...}) only paces heartbeats, checkpoints
// (CheckpointEvery, CheckpointPath for a restarted coordinator) and how
// long rejoins are retried (MaxRejoinWait). A worker lost after stop leaves
// its run unconverged. Report.WorkersLost, WorkersRejoined and Resharding
// count the churn; asyncsolve chaos exercises kill/restart schedules.
//
// Every engine but the model runs ONE worker loop (internal/runtime,
// loop.go, whose doc states its policies) over a transport: the two
// simulated engines over a virtual-time port (internal/des, one coroutine
// per worker), the three concurrent ones over one in-process port whose
// boxes are laid out per worker (shared) or per pair of workers (message),
// the TCP star relay and the TCP mesh: the loop makes every decision, a
// transport only moves values. A worker goes passive after two
// consecutive phases within Tol, a fixed count as the model engine's
// residual check every n iterations is. Termination is one two-phase
// double-collect quiescence protocol (quiescence.go; probe rounds over
// TCP, between events on the virtual clock): stop follows two identical
// observations of "every
// worker parked — passive or spent its MaxUpdatesPerWorker — and nothing
// in flight"; the run converged when every worker was passive. Every engine
// honours WithContext, and Solve returns the context's error.
//
// Quick start (asynchronous proximal-gradient for lasso):
//
//	reg, _ := repro.NewRegression(repro.RegressionConfig{N: 32, Sparsity: 0.5, Reg: 0.1, Seed: 1})
//	f := reg.Smooth()
//	op := repro.NewProxGradBF(f, repro.L1{Lambda: 0.05}, repro.MaxStep(f))
//	res, _ := repro.Solve(repro.NewSpec(op),
//		repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}),
//		repro.WithTol(1e-9))
//	fmt.Println(res.Converged, res.Iterations, res.FinalResidual)
//
// The same spec runs unchanged on any other engine:
//
//	res, _ = repro.Solve(repro.NewSpec(op),
//		repro.WithEngine(repro.EngineSim),
//		repro.WithWorkers(8),
//		repro.WithCost(repro.HeterogeneousCost([]float64{1, 1, 1, 5})),
//		repro.WithTol(1e-9))
//
// Every engine returns the unified *Report (final iterate, convergence,
// update counts, residual and error series, macro-iteration and epoch
// sequences); engine-specific detail stays reachable through
// Report.ModelDetail, SimDetail, SimSyncDetail and ConcurrentDetail.
//
// Named workloads (lasso, ridge, logistic, netflow, obstacle, routing,
// multigrid) are registered in a scenario registry, so any workload x
// delay x steering x flexible x engine combination is composable by name
// (BuildScenario, or asyncsolve -scenario lasso -engine sim -delay
// bounded:8; README "Quick start" shows both). Custom workloads join the
// registry via RegisterScenario.
//
// # Serving
//
// internal/server (asyncsolve serve) exposes the scenario x engine matrix,
// dist included, as an HTTP job service: POST /v1/solve takes one JSON job
// (the CLI's flags as fields) and streams NDJSON events — accepted,
// started, progress, then one terminal event carrying the Report, whose
// non-finite values encode as "Infinity"/"-Infinity"/"NaN". A bounded queue
// answers 503 with Retry-After when full, every job runs under a deadline
// delivered as WithContext cancellation, and solves reuse Scratch buffers
// pooled by problem signature (safe: scratch reuse is bit-identical). A job
// does not rebuild the instance a previous job built: each server keeps
// built scenario instances in an LRU cache keyed by scenario, resolved n,
// seed and tuning, holding at most 32 MiB (a constant: each entry charged
// the heap bytes its build allocated plus 64 KiB), and hands every job
// with that key the same immutable instance (safe: engines copy X0 and
// only read the operator). GET /v1/scenarios and GET /healthz report the
// registry, queue state and scratch and instance reuse;
// SIGINT/SIGTERM drains. asyncsolve load drives a server and reports
// sustained solves/sec; make serve-smoke requires every accepted job to
// converge, at least one to be rejected and a repeated job to reuse its
// instance.
//
// Beyond solving, the package exposes the paper's analysis apparatus:
// macro-iteration sequences (Definition 2), epoch sequences (Mishchenko et
// al.), Theorem 1 bound checking (inequality (5)), delay-condition and
// constraint (3) validation, and execution tracing.
//
// # Performance
//
// The engine hot paths are allocation-free in steady state: vec kernels have
// ...Into variants, every engine threads one per-worker operator scratch
// (NewOperatorScratch) through its evaluations, the simulator pools events,
// and the TCP data plane pools frames, leg queues and the coordinator's
// events channel process-wide (per-run pools made a solve's allocations
// follow the machine's load). Repeated Solves of one shape share buffers
// through one Scratch (NewScratch, WithScratch), whose per-worker scratches
// also keep each worker's view, block output, boxes and dist's last-sent
// shard: a warm solve allocates little beyond its Report. A dense row slab
// (every dense-Gram phase, reverify and residual check) runs four rows per
// pass through one SSE2 kernel on amd64 (internal/vec/dot4x4_amd64.s, Go
// elsewhere) that keeps each row's canonical reduction order, so its rows
// carry the one-row loop's bits at about 2.5x its speed. The in-process
// port moves only what a reader's rows read when the operator says
// (SparseLinear: its CSR column span): a multigrid peer takes a 31-value
// halo of a 481-component block, and a pair that reads nothing no message.
//
// There is one way to evaluate an operator: Component is the definition;
// BlockOperator (EvalBlockScratch) is the optional shared-work path,
// componentwise bit-identical to it. Every engine phase calls EvalBlock
// (EvalComponent is the block [i, i+1), ApplyOperator and OperatorResidual
// the block [0, n)), so a b-component phase of ProxGradBF costs one shared
// prox pass plus a gradient range instead of O(b*n), its residual
// O(n + apply) instead of O(n^2), and InnerIterated runs its K iterations
// once per block; RangeGradSmooth shares gradient
// work the same way. The scratch-slot budget is on BlockScratchOperator
// (internal/operators/block.go); blockpath_test.go pins identical
// trajectories whichever path runs.
//
// The model engine (internal/core) executes Definitions 1 and 3 literally
// at O(window) per iteration: History.Read keeps its read vector and moves
// it through the updates since the minimum label (delay.Labels gives it in
// O(1) for stateless models, about b hashes for the hash models), each
// resolved from its own entry, and those that left that window since; all
// n (O(n log k)) once that window holds n, as under Jacobi steering and a
// growing delay. The components it moved are all the read can differ at
// since the previous read, and Run hints the operator scratch with them
// (operators.Scratch.Hint): ProxGradBF keeps its prox point there and
// re-applies the prox only at those, to the same bits. A warmed Solve
// allocates its Report and its per-iteration log, nothing else; README
// "Tuning" has the per-layer CPU table of a served job.
//
// A lasso or ridge build assembles the Gram (1/m)A^T A once
// (mldata.NewRegression, kernel vec.AtAShard: upper triangle in L1-sized
// tiles, mirrored, per-element order unchanged) and shares it read-only
// with every operator built from it. A Report on the wire is its outcome,
// 1.7 KB for a served lasso at n=64; the per-iteration log (58 KB there)
// stays on the engine results. Its JSON encoder is hand-written
// (Report.MarshalJSON), its decoder encoding/json over a mirror struct
// (Report.UnmarshalJSON), both held to the reflective codec by fixtures and
// FuzzReportUnmarshal. On that event line (medians of 5 runs, 2 vCPU, Go
// 1.24) encoding costs 37 us and 2 allocations against a reflective
// encoder's 58 us and 131, which the server would pay per job; decoding,
// which only clients do, costs 75 us and 44 allocations (the hand-written
// reader it replaced: 44 us and 37; reflective floats: 103 us and 167).
//
// # Tuning knobs
//
// The kernel-level performance knobs live in one group, Tuning, set with
// WithTuning (or the per-knob WithIntraParallelism, WithGramPrecompute);
// the fault-injection knobs form a second group,
// Faults, set with WithFaults. Both groups are declared exactly once in the
// knob table (KnobTable): the asyncsolve CLI flags, the dist coordinator's
// flags, the server's /v1/solve JSON fields and the load generator all
// derive from the same entries, so the surfaces cannot drift.
//
//	knob               flag              JSON              default  effect
//	Tuning.IntraParallelism
//	                   -intra-parallel   intra_parallel    0        goroutine lanes for block evaluations of
//	                                                                at least 2^19 multiply-adds; helps when
//	                                                                blocks are large and cores are idle
//	Tuning.GramPrecompute
//	                   -gram-precompute  gram_precompute   true     false = lean LeastSquares residual form:
//	                                                                no n^2 Gram memory, O(m(b+n)) slabs
//	Faults.DropProb    -drop             drop_prob         0        iid per-link message loss
//	Faults.ReorderProb -reorder          reorder_prob      0        per-link hold-back reordering
//	Faults.MaxLinkDelay
//	                   -maxdelay         max_link_delay    0s       uniform per-link transit delay
//	Topology           -topology         topology          ""       dist data plane: star (default) | mesh
//	DeltaThreshold     -delta            delta_threshold   0        dist flexible communication on the wire
//
// The Elastic fields and the two dist-engine fields are table entries too,
// so a served engine=dist job can ask for them; an engine ignores knobs
// outside its list. IntraParallelism never changes a trajectory: every dot
// product reduces in one canonical 4-accumulator order (s0..s3 over j mod
// 4, sequential tail, fixed combine) and lanes write disjoint rows.
// GramPrecompute is the
// one knob that changes bits (a different, equivalent gradient form for
// problems where the n x n Gram is the memory bottleneck). Engines install
// Spec.Tuning on every worker scratch at solve start; tuning_test.go and
// internal/operators pin the knob matrix.
//
// # Measuring performance and static analysis
//
// The repository benchmark (go run ./benchmark, declared in BENCHMARK.json,
// documented in benchmark/README.md) is the one record of how fast a whole
// solve is; go test -bench is for measuring while working. README
// "Measuring performance" says which number answers which question.
// reprolint (cmd/reprolint; make lint, CI) enforces what a test run would
// miss: allocation-free hot paths, one reduction order, one knob table,
// bit-reproducible trajectories (README "Static analysis"). See examples/
// for complete programs and EXPERIMENTS.md for the reproduction of the
// paper's figures and claims.
package repro
