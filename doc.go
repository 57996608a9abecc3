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
//     block per worker;
//   - EngineMessage — real goroutines over lossy buffered channels;
//   - EngineDist    — real multi-worker execution over TCP sockets with
//     per-link fault injection (drops, reordering, transit delay).
//
// # Distributed execution and termination
//
// EngineDist runs the paper's distributed-memory setting on a genuine
// network path: TCP workers each own a contiguous multi-component shard of
// the iterate and exchange length-prefixed binary shard frames
// (little-endian; see internal/dist wire.go for the exact format), with
// fault injection per directed link — WithFaults(Faults{DropProb,
// ReorderProb, MaxLinkDelay}): iid loss, hold-backs so later blocks
// overtake, uniform transit jitter — so unbounded-delay and out-of-order message
// regimes are exercised end to end. On every directed link, frames
// overtaken by a later-sequenced frame from the same source are discarded
// by the sender (the label discipline for out-of-order messages):
// never written, never applied, counted MessagesReordered (or
// MessagesDuplicate for an equal sequence number) and drained from the
// termination protocol's in-flight count like a drop. A worker's final
// re-broadcast is reliable, i.e. exempt from drop and reorder injection.
// In-process Solve calls run everything over localhost; the asyncsolve
// dist-coordinator and dist-worker subcommands deploy the identical
// protocol as separate OS processes.
//
// # Topologies
//
// WithTopology selects the dist engine's data plane; the control plane —
// rendezvous, config distribution, probe-round termination, final shard
// collection — always runs through the coordinator:
//
//   - "star" (default): every shard frame is relayed by the coordinator.
//     Simple, and the only topology that needs no worker-to-worker
//     reachability, but the coordinator carries all p(p-1) logical links.
//   - "mesh": after rendezvous the coordinator hands every worker the full
//     peer table and workers exchange shard frames over direct
//     worker-to-worker TCP connections.
//
// Either way one piece of code does the sending (internal/dist sender.go),
// and every worker sends through one: its mesh links on mesh, on star an
// uplink onto its control link to the coordinator, which relays through one
// more per source link. The faulty one (the mesh worker's, the relay) draws
// the fault injection per (frame, destination) from a per-source RNG
// stream, so identical seeds draw identical decisions on both topologies,
// though not always for the same frames; every one filters by sequence
// number, so a frame overtaken on its leg is discarded instead of written;
// and each leg keeps a one-frame newest-wins outbox, so a source that
// outruns a socket supersedes its own unsent frames (counted
// MessagesReordered) instead of queueing stale values — which is why a
// fault-free run on either topology can report superseded frames.
//
// WithDeltaThreshold adds flexible communication on the wire for either
// topology: a broadcast ships one [offset, len) frame covering the span of
// shard components that moved by more than the threshold since they were
// last shipped (sub-threshold creep accumulates, and one frame per
// broadcast means a broadcast is delivered or lost atomically — the
// sequence filter can never keep half of one), and ships nothing when
// nothing moved. On loss-free delivery peer staleness stays bounded by the
// threshold; a frame lost to injection or superseded before delivery
// leaves its components stale until the reliable final, which always
// carries the whole shard. Report.DistDetail exposes
// the topology that ran and the per-link byte matrix (LinkBytes[i][j] =
// data-plane wire bytes from worker i to worker j), alongside the
// transport accounting (messages sent/delivered/stale/dropped/reordered/
// duplicate, coordinator wire bytes, probe rounds). The repository
// benchmark times both topologies end to end (workloads dist-star-faulty
// and dist-mesh-clean; see "Measuring performance").
//
// # Elasticity
//
// Every dist run has elastic membership (wire protocol v3): a worker whose
// link fails is declared lost, and the coordinator re-shards the component
// space over the survivors mid-solve through a generation-fenced barrier:
// the membership
// generation is bumped, survivors pause and acknowledge with their current
// shards, the coordinator merges them into its warm-start iterate and
// re-issues the shard table (and, on mesh, the peer address table). Every
// block and status frame carries its generation, so frames from before a
// re-shard self-discard instead of corrupting the new assignment. A
// restarted worker that rejoins (bounded exponential backoff with jitter)
// warm-starts from the merged iterate instead of X0, the delay-tolerant
// regime's arbitrarily-stale-contribution case. WithElastic(Elastic{...})
// only paces this: HeartbeatEvery picks how silence is detected (workers
// heartbeat the control link, and one silent past max(6×HeartbeatEvery,
// 200ms) is lost too — the only way to catch a stalled process),
// CheckpointEvery has heartbeating workers stream shard checkpoints for
// fresher warm starts, MaxRejoinWait bounds a restarted worker's retries
// (and how long a coordinator that lost every worker waits for one), and
// CheckpointPath persists the merged iterate to disk so a restarted
// coordinator can warm-start the whole solve. A worker lost after the stop
// never uploads its final shard, so that run does not report convergence.
// A re-shard counts as a
// reactivation under the termination protocol below (the epoch bump
// invalidates any probe round in flight), so quiescence is never certified
// across a membership change; with zero churn the trajectory is
// bit-identical whatever the knobs say. Report.WorkersLost, WorkersRejoined and
// Resharding count the churn events; the asyncsolve chaos subcommand (and
// the chaos-smoke CI job) exercise kill/restart schedules end to end.
//
// # One loop, four transports
//
// The three concurrent engines run ONE worker loop (internal/runtime,
// loop.go) over four transports — block shared memory, buffered channels,
// the TCP star relay and the TCP mesh. The loop holds every decision of
// the active/passive protocol; a transport only moves values and makes
// state transitions visible. The policies are therefore the same
// everywhere:
//
//   - A worker whose block displacement stayed within Tol for
//     SweepsBelowTol consecutive phases publishes its block reliably,
//     absorbs what arrived meanwhile, re-verifies, and only then turns
//     passive.
//   - A parked worker that receives input re-verifies local convergence
//     before anything else: input that leaves its block within Tol
//     re-passivates it without a publish, input that breaks convergence
//     resumes the active path.
//   - A worker that has spent MaxUpdatesPerWorker stays in the run, spent,
//     absorbing and re-verifying input until the run stops; it never
//     reports passive on data it could not iterate away, so such a run
//     ends as not converged.
//   - A parked worker consumes no budget. On the channel and TCP
//     transports it blocks on its inbox (a TCP worker wakes on a timer only
//     when a heartbeat is due) and the message engine's supervisor blocks
//     on a doorbell: those idle paths never poll. Shared memory has no
//     event to block on; a parked worker there yields between read-only
//     watch sweeps.
//
// Termination is one two-phase double-collect quiescence protocol
// (quiescence.go): stop is broadcast only after two identical observations
// of "every worker parked — passive or spent — and nothing in flight",
// bracketing an optional re-certification; the run has converged when every
// worker was passive. Over TCP the two observations are Safra-style probe
// rounds. Workers publish reactivation before acknowledging the input that
// caused it, which closes the torn-read stop races polling supervisors are
// prone to. Every engine honours WithContext: the in-process engines stop
// their workers at the next phase boundary, the dist coordinator drops its
// links, and Solve returns the context's error.
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
// The internal/server package (CLI: asyncsolve serve) exposes the scenario
// x engine matrix as a multi-tenant HTTP job service. POST /v1/solve takes
// one JSON job — scenario, n, seed, engine, delay, tolerance and the
// flexible-communication knobs, mirroring the CLI flags — and streams
// NDJSON events: accepted, started, periodic progress (live update counts
// via WithProgress), then exactly one terminal event carrying the full
// Report verbatim. Report is JSON-round-trippable for exactly this use;
// non-finite values (routing's Bellman-Ford starts at +Inf) encode as
// "Infinity"/"-Infinity"/"NaN" strings. A bounded job queue provides
// admission control — a full queue answers 503 with a Retry-After hint
// instead of queueing without bound — and every job runs under a
// per-request deadline delivered to the engines as context cancellation
// (WithContext), so an abandoned or overlong request frees its worker.
// Solves reuse Scratch buffers from a pool keyed by problem signature
// (scenario, engine, n, workers), safe because scratch reuse is
// bit-identical by contract. Every engine is served; a dist job runs its
// coordinator and workers inside the server process over localhost TCP.
// GET /v1/scenarios lists the registry, GET /healthz reports
// queue/worker/pool state, and SIGINT/SIGTERM drains gracefully: running
// and queued jobs finish their streams, new jobs get 503.
//
// asyncsolve load drives a running server (closed- or open-loop, mixed
// scenario round-robin) and reports sustained solves/sec with a latency
// histogram; make serve-smoke stands the pair up with admission capacity
// below the offered load and requires both that every accepted job
// converges and that at least one job is 503-rejected. The repository
// benchmark's serve-mix workload records served solves/sec and what the
// server adds to a solve (server.overhead_frac, server.admit_ms).
//
// Beyond solving, the package exposes the paper's analysis apparatus:
// macro-iteration sequences (Definition 2), epoch sequences (Mishchenko et
// al.), Theorem 1 bound checking (inequality (5)), delay-condition and
// constraint (3) validation, and execution tracing.
//
// # Performance
//
// The engine hot paths are allocation-free in steady state: the vec
// kernels have explicit ...Into variants, every engine threads one
// per-worker operator scratch (NewOperatorScratch) through its evaluations,
// the discrete-event simulator pools its events and messages, and the
// message-passing transport pools its payload buffers across runs (how many
// a run has in flight at its peak is up to the scheduler, so a per-run pool
// made a solve's allocations follow the machine's load). The TCP data plane
// does the same for its frames and delay timers: a frame is encoded, read,
// relayed and delayed in one pooled, reference-counted buffer.
//
// There is one way to evaluate an operator. Implement Component — it is the
// definition of F and the reference every test compares against; implement
// BlockOperator (EvalBlockScratch(scr, lo, hi, x, out)) as well when
// components share work, componentwise bit-identical to Component. The
// paper's iterations update a worker's whole block per phase, so every
// engine phase calls EvalBlock, which takes the block path when the
// operator has one and the scratch is non-nil and the Component loop
// otherwise; EvalComponent is the block [i, i+1), ApplyOperator and
// OperatorResidual the block [0, n). For ProxGradBF that turns a
// b-component phase from O(b*n) — each component materializing the full
// prox vector — into one shared prox pass plus a gradient range, and the
// fixed-point residual of a coupled operator from O(n^2) into O(n + apply);
// InnerIterated runs its prox + K gradient iterations once per block.
// Smooth functions share their whole-gradient work across a component
// range the same way, through RangeGradSmooth (GradRange). The scratch-slot
// budget of every implementation is on BlockScratchOperator in
// internal/operators/block.go; blockpath_test.go pins that the
// deterministic engines produce identical Report trajectories whichever
// path runs.
//
// Repeated Solves of the same shape can share those buffers across runs
// through one Scratch (NewScratch, WithScratch), one per calling goroutine.
//
// The model engine (internal/core) executes Definitions 1 and 3 literally,
// and one iteration costs one O(n) copy plus O(window). History.Read gets
// min_h l_h(j) from delay.Labels without a label row for the stateless
// models (O(1), or the hash models' scan up to the floor max(0, j-b), about
// b hashes); any other model fills the row component by component. x(l(j))
// is a copy of the freshest iterate with one history lookup, and one label,
// per update made since that minimum, the only components where the two
// can differ. When that window holds n or more updates — Jacobi steering
// under a growing delay — all n are looked up, O(n log k) as the definition
// reads. The lasso prox vector is one inline loop (prox.ApplyVec on an L1).
// History, label row and update order live in the Scratch: a warmed Solve
// allocates its Report and its per-iteration log, nothing else. README
// "Tuning" has the per-layer CPU table of a served job.
//
// Build: a lasso or ridge build needs the Hessian (1/m)A^T A + reg I for
// the dominance check and the Gershgorin (L, mu) bounds. mldata.NewRegression
// assembles (1/m)A^T A once (once per rescale of the coupling rows, which no
// registered scenario needs), reads dominance off it with the reg shift
// applied on the fly, and keeps it; Regression.Smooth() hands that matrix to
// operators.NewLeastSquaresGram, which reads (L, mu) off it the same way and
// never writes to it, so one Gram is shared read-only by every operator and
// solve built from the Regression. The kernel (vec.AtAShard) computes the
// upper triangle in L1-sized tiles of Gram rows and mirrors it; per element
// the sample order is unchanged, so every trajectory is bit-identical
// (pinned by the golden in regression_build_test.go and the naive-oracle
// test in internal/vec). Tuning.IntraParallelism fans the one assembly out.
//
// Codec: a Report on the wire is the outcome (iterate, counts, error series,
// macro-iteration and epoch sequences), 1.7 KB for a served lasso at n=64;
// the per-iteration log those sequences are computed from would make it
// 58 KB and stays on the engine results (see Report). The
// server encodes its events with encoding/json, which calls
// Report.MarshalJSON; the client's json.Unmarshal calls Report.UnmarshalJSON,
// a single-pass decoder. Both are hand-written and held to the reflective
// codec they replaced (the oracle in report_json_test.go) by fixtures and
// FuzzReportUnmarshal. They stay hand-written because on that 1.7 KB event
// line (json.Marshal + json.Unmarshal) the reflective codec costs 43 + 61 us
// and 136 + 171 allocations against 18 + 22 us and 3 + 35.
//
// # Tuning knobs
//
// The kernel-level performance knobs live in one group, Tuning, set with
// WithTuning (or the per-knob WithBlockSize, WithIntraParallelism,
// WithGramPrecompute); the fault-injection knobs form a second group,
// Faults, set with WithFaults. Both groups are declared exactly once in the
// knob table (KnobTable): the asyncsolve CLI flags, the dist coordinator's
// flags, the server's /v1/solve JSON fields and the load generator all
// derive from the same entries, so the surfaces cannot drift.
//
//	knob               flag              JSON              default  effect
//	Tuning.BlockSize   -block-size       block_size        0        column-tile width of dense row-slab
//	                                                                matvecs (0 = untiled); helps when rows
//	                                                                stop fitting in cache (n in the thousands)
//	Tuning.IntraParallelism
//	                   -intra-parallel   intra_parallel    0        goroutine lanes for block evaluations
//	                                                                at least 64 rows tall; helps when blocks
//	                                                                are tall and cores are otherwise idle
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
// The Elastic fields (-heartbeat, -checkpoint, -rejoin-wait,
// -checkpoint-file) and the two dist-engine fields above are table entries
// like the rest, so a served engine=dist job can ask for the mesh data plane
// or a delta threshold; an engine ignores the knobs outside its list.
//
// BlockSize and IntraParallelism are BIT-IDENTICAL to the scalar reference
// and never change a trajectory: every dot product in the tree reduces in
// one canonical 4-accumulator order (s0..s3 over j mod 4, sequential tail,
// fixed combine), tiling carries the accumulator quartet across tiles, and
// parallel lanes write disjoint output rows. GramPrecompute is the one
// knob that changes bits — it selects a different (internally consistent,
// mathematically equivalent) gradient form at scenario build, for problems
// where the n x n Gram matrix is the memory bottleneck. Engines install
// Spec.Tuning on every worker scratch at solve start, so pooled scratches
// reused across jobs always run with the current job's knobs. The knob
// matrix is pinned by tuning_test.go (trajectory equality per engine per
// combination) and internal/operators (per-block bit identity).
//
// # Measuring performance
//
// There is one record of how fast a whole solve is: the repository
// benchmark, a stand-alone main package declared in BENCHMARK.json and
// documented in benchmark/README.md (six workloads, seven end-to-end
// metrics each, a per-layer ledger from a traced pass); every PR is
// compared against its parent on it.
//
//	go run ./benchmark                  # six workloads, about 4 minutes
//	go run ./benchmark -workload W -seed S -seconds T -trace 0|1
//	go run ./benchmark -quick           # smoke test (what go test ./benchmark runs)
//	go run ./benchmark -compare a.json b.json
//
// The only other way to time code is `go test -bench` (root bench_test.go,
// internal/server's BenchmarkServeMix), for measuring while working: no
// file records it, no gate reads it. README "Measuring performance" says
// which number answers which question.
//
// # Static analysis
//
// Of the invariants above, the ones a test run would miss — allocation-free
// hot paths, ONE canonical reduction order, a single knob table,
// bit-reproducible trajectories and locks released on every path — are
// enforced mechanically by reprolint (cmd/reprolint, built on
// internal/analysis), which runs standalone, as `go vet
// -vettool=$(which reprolint)`, under `make lint`, and in CI. Its five
// analyzers (hotpath, vecorder, knobdrift, determinism, lockdiscipline)
// are specified in their package docs under internal/analysis and
// tabulated, with the //repro: directives that suppress them, in README
// "Static analysis". Stoppable loops, joined goroutines and the
// scratch-slot partition are the engine, cancellation and operator
// contract tests' job.
//
// See the examples/ directory for complete programs and EXPERIMENTS.md for
// the reproduction of the paper's figures and claims.
package repro
