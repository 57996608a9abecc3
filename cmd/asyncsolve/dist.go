package main

// The dist-coordinator / dist-worker subcommands run the TCP engine as
// separate OS processes — the same protocol the in-process "dist" engine
// and its tests use over localhost, deployed for real:
//
//	asyncsolve dist-coordinator -listen 127.0.0.1:7000 -workers 2 -scenario lasso &
//	asyncsolve dist-worker -connect 127.0.0.1:7000 -scenario lasso &
//	asyncsolve dist-worker -connect 127.0.0.1:7000 -scenario lasso
//
// Every process builds the same scenario (name, size, seed) locally, so
// only coordinates — never operators — cross the wire. With
// -topology mesh the coordinator keeps only the control plane: each worker
// opens its own listener, the coordinator distributes the peer table, and
// shard frames flow over direct worker-to-worker TCP links (the workers
// learn the topology, fault config and delta threshold from the welcome
// frame, so no extra worker-side flags are needed).

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro"
	"repro/internal/dist"
)

// distScenario resolves the workload every dist process must agree on.
func distScenario(scenario string, n int, seed uint64) (*repro.ScenarioInstance, error) {
	if scenario == "" {
		scenario = "lasso"
	}
	return repro.BuildScenario(scenario, n, seed)
}

// topologyName is the data plane a config runs on: an unset -topology is the
// engine's default.
func topologyName(cfg dist.Config) string {
	if cfg.Topology == "" {
		return dist.TopologyStar
	}
	return cfg.Topology
}

func runDistCoordinator(args []string) {
	fs := flag.NewFlagSet("dist-coordinator", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7000", "address to accept workers on")
	workers := fs.Int("workers", 2, "number of worker processes to wait for")
	scenario := fs.String("scenario", "lasso", "workload scenario (must match the workers')")
	n := fs.Int("n", 0, "problem size; 0 = scenario default (must match the workers')")
	seed := fs.Uint64("seed", 1, "workload seed (must match the workers')")
	tol := fs.Float64("tol", -1, "convergence tolerance; negative = scenario default")
	maxUpdates := fs.Int("maxupdates", 0, "per-worker update budget; 0 = default")
	// -drop, -reorder, -maxdelay, the elastic knobs (-heartbeat,
	// -checkpoint, -rejoin-wait, -checkpoint-file) and the dist knobs
	// (-topology, -delta) come from the shared knob table so the coordinator
	// accepts the same spellings as every other surface.
	knobs := repro.RegisterKnobFlags(fs, "faults", "elastic", "dist")
	timeout := fs.Duration("timeout", 2*time.Minute, "run timeout")
	fs.Parse(args)

	knobOpts, err := knobs.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	inst, err := distScenario(*scenario, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec := inst.Spec
	for _, o := range append(knobOpts, repro.WithWorkers(*workers), repro.WithSeed(*seed)) {
		o(&spec)
	}
	if *tol >= 0 {
		spec.Tol = *tol
	}
	cfg := spec.DistConfig()
	cfg.Timeout = *timeout
	if *maxUpdates > 0 {
		cfg.MaxUpdatesPerWorker = *maxUpdates
	}
	dim := spec.Op.Dim()
	if cfg.Workers > dim {
		cfg.Workers = dim
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("coordinator: scenario=%s n=%d topology=%s waiting for %d workers on %s\n",
		*scenario, dim, topologyName(cfg), cfg.Workers, ln.Addr())
	res, err := dist.Serve(ln, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("converged=%v elapsed=%v updates per worker=%v\n",
		res.Converged, res.Elapsed, res.UpdatesPerWorker)
	fmt.Printf("messages sent=%d delivered=%d stale=%d dropped=%d reordered=%d\n",
		res.MessagesSent, res.MessagesDelivered, res.MessagesStale,
		res.MessagesDropped, res.MessagesReordered)
	fmt.Printf("bytes out=%d in=%d probe rounds=%d\n",
		res.BytesSent, res.BytesReceived, res.ProbeRounds)
	if res.WorkersLost > 0 || res.WorkersRejoined > 0 || res.Resharding > 0 {
		fmt.Printf("workers lost=%d rejoined=%d reshardings=%d\n",
			res.WorkersLost, res.WorkersRejoined, res.Resharding)
	}
	if inst.Describe != nil {
		fmt.Println(inst.Describe(res.X))
	}
	if !res.Converged {
		os.Exit(1)
	}
}

func runDistWorker(args []string) {
	fs := flag.NewFlagSet("dist-worker", flag.ExitOnError)
	connect := fs.String("connect", "127.0.0.1:7000", "coordinator address")
	scenario := fs.String("scenario", "lasso", "workload scenario (must match the coordinator's)")
	n := fs.Int("n", 0, "problem size; 0 = scenario default (must match the coordinator's)")
	seed := fs.Uint64("seed", 1, "workload seed (must match the coordinator's)")
	retrySeed := fs.Uint64("retry-seed", 0, "backoff jitter seed; seed it from the worker's identity for reproducible retry schedules")
	// How long to keep retrying dial/register is the knob table's
	// -rejoin-wait; the rest of the elastic group reaches a worker in its
	// welcome frame.
	knobs := repro.RegisterKnobFlags(fs, "rejoin-wait")
	fs.Parse(args)
	spec, err := knobs.Spec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	inst, err := distScenario(*scenario, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	err = dist.ConnectWorker(*connect, inst.Spec.Op, dist.WorkerOptions{
		Rejoin: dist.Rejoin{MaxWait: spec.Elastic.RejoinWait(), Seed: *retrySeed},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
