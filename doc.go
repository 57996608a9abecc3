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
// network path (internal/dist; its package doc is the full account): TCP
// workers each own a contiguous multi-component shard of the iterate and
// exchange length-prefixed binary shard frames (wire.go), under per-link
// fault injection — WithFaults(Faults{DropProb, ReorderProb,
// MaxLinkDelay}): iid loss, hold-backs so later frames overtake, uniform
// transit jitter. A frame overtaken on its link by a later one from the
// same source is discarded by the sender (the label discipline for
// out-of-order messages), counted MessagesReordered (MessagesDuplicate for
// an equal sequence number) and drained from the termination protocol's
// in-flight count like a drop; each link's one-frame newest-wins outbox
// sheds unsent stale frames the same way, which is why a fault-free run can
// report reordered frames. A worker's final re-broadcast is reliable. In
// process, Solve runs everything over localhost; the asyncsolve
// dist-coordinator and dist-worker subcommands run the same protocol as
// separate OS processes.
//
// WithTopology picks the data plane: "star" (default) relays every shard
// frame through the coordinator; "mesh" has workers exchange them over
// direct worker-to-worker links. Rendezvous, probe-round termination,
// membership and final collection always run through the coordinator.
// WithDeltaThreshold is flexible communication on the wire: a broadcast
// ships one [offset, len) frame spanning the shard components that moved by
// more than the threshold since last shipped, and nothing when none did; a
// lost span leaves its components stale until the reliable final, which
// carries the whole shard. Report.DistDetail holds the topology, the
// per-link byte matrix and the transport accounting; the repository
// benchmark times both topologies (dist-star-faulty, dist-mesh-clean).
//
// # Elasticity
//
// Every dist run has elastic membership (wire protocol v4): a worker whose
// link fails is lost, and the coordinator re-shards over the survivors
// behind a generation-fenced barrier; a restarted worker rejoins (bounded
// exponential backoff) and warm-starts from the merged iterate. A re-shard
// is a reactivation under the termination protocol, so quiescence is never
// certified across one, and with zero churn the trajectory is bit-identical
// whatever the knobs say. WithElastic(Elastic{...}) only paces it:
// HeartbeatEvery also declares a worker silent past max(6×HeartbeatEvery,
// 200ms) lost, CheckpointEvery streams shard checkpoints for fresher warm
// starts, MaxRejoinWait bounds a rejoiner's retries (and how long a
// coordinator that lost every worker waits), and CheckpointPath persists
// the merged iterate for a restarted coordinator. A worker lost after stop
// never uploads its final shard, so that run does not report convergence.
// Report.WorkersLost, WorkersRejoined and Resharding count the churn; the
// asyncsolve chaos subcommand and the chaos-smoke CI job exercise
// kill/restart schedules end to end.
//
// # One loop, four transports
//
// The three concurrent engines run ONE worker loop (internal/runtime,
// loop.go, whose doc states its policies) over four transports — block
// shared memory, buffered channels, the TCP star relay and the TCP mesh.
// The loop holds every decision of the active/passive protocol: when a
// worker turns passive, what a reactivated one must re-verify, and that a
// worker which spent MaxUpdatesPerWorker stays in the run, spent, so such
// a run ends as not converged; a transport only moves values and makes
// state transitions visible. A parked worker consumes no budget, and only
// shared memory, with no event to block on, watches by polling.
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
