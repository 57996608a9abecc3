// Command asyncsolve solves any registered scenario with a chosen engine
// and delay model through the unified repro.Solve API:
//
//	asyncsolve -scenario lasso    -engine sim    -delay bounded:8
//	asyncsolve -scenario netflow  -engine simsync
//	asyncsolve -scenario obstacle -engine model  -mode flexible -theta 0.7
//	asyncsolve -scenario routing  -engine shared -workers 8
//	asyncsolve -list
//
// It prints the unified solve summary (iterations, updates, macro-iterations,
// epochs, residual) plus quality metrics specific to the scenario. -mode
// sync|async|flexible maps each regime onto the knob the selected engine
// honours. A leftover positional argument — a subcommand that does not
// exist — prints usage and exits 2.
//
// Nothing here times code: `go run ./benchmark` (BENCHMARK.json) is the
// benchmark of record and `go test -bench` the only other way.
//
// The dist-coordinator and dist-worker subcommands deploy the TCP engine
// as separate OS processes (see dist.go in this package):
//
//	asyncsolve dist-coordinator -listen 127.0.0.1:7000 -workers 2 -scenario lasso &
//	asyncsolve dist-worker -connect 127.0.0.1:7000 -scenario lasso &
//	asyncsolve dist-worker -connect 127.0.0.1:7000 -scenario lasso
//
// The chaos subcommand (chaos.go) runs the elastic dist engine under a
// deterministic worker-churn schedule — scheduled kills and rejoins
// mid-solve — and fails unless the run converges anyway:
//
//	asyncsolve chaos -scenario lasso -workers 8 -kills 2 -topology mesh \
//	    -drop 0.05 -reorder 0.05 -maxdelay 200us
//
// The serve subcommand runs solver-as-a-service (see serve.go): an HTTP job
// server with admission control and NDJSON-streamed reports; load (load.go)
// drives it and reports sustained solves/sec with a latency histogram:
//
//	asyncsolve serve -addr 127.0.0.1:8080 -queue 16 &
//	asyncsolve load  -addr http://127.0.0.1:8080 -duration 10s -scenarios lasso,ridge,routing
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "dist-coordinator":
			runDistCoordinator(os.Args[2:])
			return
		case "dist-worker":
			runDistWorker(os.Args[2:])
			return
		case "chaos":
			runChaos(os.Args[2:])
			return
		case "serve":
			runServe(os.Args[2:])
			return
		case "load":
			runLoad(os.Args[2:])
			return
		}
	}
	scenario := flag.String("scenario", "lasso", "workload scenario (see -list)")
	engineName := flag.String("engine", "model", "engine: model | sim | simsync | shared | message | dist")
	mode := flag.String("mode", "async", "model-engine mode: sync | async | flexible")
	delayName := flag.String("delay", "bounded:8", "delay model: fresh | constant:D | bounded:B | sqrt | log | ooo:W")
	n := flag.Int("n", 0, "problem size (features / nodes / grid side); 0 = scenario default")
	workers := flag.Int("workers", 0, "worker count for the sim/goroutine engines; 0 = default")
	theta := flag.Float64("theta", 0.5, "flexible blend fraction (model engine, mode=flexible)")
	flexK := flag.Int("flex", 0, "publish k uniform partial updates per phase (sim/shared/message engines)")
	tol := flag.Float64("tol", -1, "convergence tolerance; negative = scenario default, 0 = run to budget")
	maxIter := flag.Int("maxiter", 0, "iteration budget; 0 = scenario default")
	seed := flag.Uint64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	// Tuning (-intra-parallel, -gram-precompute), fault
	// (-drop, -reorder, -maxdelay), elastic and dist (-topology, -delta)
	// knobs come from the shared knob table, so this command, the dist
	// coordinator, the server and the load generator cannot drift apart.
	knobs := repro.RegisterKnobFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: asyncsolve [flags]\n       asyncsolve dist-coordinator | dist-worker | chaos | serve | load [flags]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "asyncsolve: unknown subcommand or stray argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, s := range repro.Scenarios() {
			fmt.Printf("%-10s n=%-5d %s\n", s.Name, s.DefaultN, s.Summary)
		}
		return
	}

	engine, err := repro.EngineByName(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	dm, err := repro.ParseDelay(*delayName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	knobOpts, err := knobs.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	knobSpec, err := knobs.Spec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Build with the requested tuning so build-time choices (Gram form,
	// sharded precompute) see the knobs; the solve options re-apply the
	// same values plus any fault knobs.
	inst, err := repro.BuildScenarioTuned(*scenario, *n, *seed, knobSpec.Tuning)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := []repro.Option{
		repro.WithDelay(dm),
		repro.WithSeed(*seed),
	}
	opts = append(opts, knobOpts...)
	dim := inst.Spec.Op.Dim()
	// The mode switch is engine-aware: each regime maps onto the knob the
	// selected engine actually honours, and combinations the engine cannot
	// express are rejected rather than silently ignored.
	switch *mode {
	case "sync":
		switch engine {
		case repro.EngineModel:
			dm = repro.FreshDelay{}
			opts = append(opts, repro.WithSteering(repro.NewAllComponents(dim)),
				repro.WithDelay(dm))
		case repro.EngineSim, repro.EngineSimSync:
			engine = repro.EngineSimSync
		default:
			fmt.Fprintf(os.Stderr, "mode sync is not available on engine %s (use -engine model or simsync)\n", engine.Name())
			os.Exit(2)
		}
	case "async":
		// Scenario defaults (cyclic steering, free-running workers) apply.
	case "flexible":
		switch engine {
		case repro.EngineModel:
			opts = append(opts, repro.WithTheta(*theta))
		case repro.EngineSim, repro.EngineShared, repro.EngineMessage:
			if *flexK <= 0 {
				opts = append(opts, repro.WithFlexible(repro.UniformFlex(2)))
			}
		default:
			fmt.Fprintf(os.Stderr, "mode flexible is not available on engine %s (use -engine model, sim, shared or message)\n", engine.Name())
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	opts = append(opts, repro.WithEngine(engine))
	if *workers > 0 {
		opts = append(opts, repro.WithWorkers(*workers))
	}
	if *flexK > 0 {
		opts = append(opts, repro.WithFlexible(repro.UniformFlex(*flexK)))
	}
	if *tol >= 0 {
		opts = append(opts, repro.WithTol(*tol)) // 0 disables the stop
	}
	if *maxIter > 0 {
		opts = append(opts, repro.WithMaxIter(*maxIter), repro.WithMaxUpdates(*maxIter))
	}

	res, err := repro.Solve(inst.Spec, opts...)
	if err != nil {
		log.Fatal(err)
	}

	// The delay label function only drives the model engine; the other
	// engines derive their delays from the execution schedule.
	delayDesc := dm.Name()
	if engine != repro.EngineModel {
		delayDesc = "engine-schedule"
	}
	fmt.Printf("scenario=%s engine=%s mode=%s delay=%s n=%d\n",
		*scenario, res.Engine, *mode, delayDesc, dim)
	fmt.Printf("converged=%v iterations=%d updates=%d residual=%.3e\n",
		res.Converged, res.Iterations, res.Updates, res.FinalResidual)
	if len(res.Boundaries) > 0 || len(res.Epochs) > 0 {
		fmt.Printf("macro-iterations=%d (def2) %d (strict), epochs=%d\n",
			len(res.Boundaries), len(res.StrictBoundaries), len(res.Epochs))
	}
	if res.Time > 0 {
		fmt.Printf("virtual time=%.3f messages sent=%d dropped=%d\n",
			res.Time, res.MessagesSent, res.MessagesDropped)
	}
	if res.Elapsed > 0 {
		fmt.Printf("elapsed=%v updates per worker=%v\n", res.Elapsed, res.UpdatesPerWorker)
	}
	if inst.Describe != nil {
		fmt.Println(inst.Describe(res.X))
	}
	// A run with the stop deliberately disabled (-tol 0) completes by
	// exhausting its budget; that is success, not a convergence failure.
	if !res.Converged && *tol != 0 {
		os.Exit(1)
	}
}
