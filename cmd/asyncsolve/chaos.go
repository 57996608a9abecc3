package main

// The chaos subcommand runs the dist engine under a deterministic
// worker-churn schedule: a full in-process deployment (coordinator + TCP
// workers over localhost, exactly what the "dist" engine runs) where
// scheduled workers are severed mid-solve — their sockets closed, exactly
// what a crashed process looks like from the network — and replacements
// rejoin through the coordinator's accept loop and warm-start from the
// iterate it assembled (with -heartbeat, also from streamed checkpoints):
//
//	asyncsolve chaos -scenario lasso -workers 8 -kills 2 -topology mesh \
//	    -drop 0.05 -reorder 0.05 -maxdelay 200us
//
// Scenario problems small enough to demo converge in milliseconds — before
// the first kill would fire — so by default every component evaluation is
// stretched by -evaldelay, making the solve span the churn schedule the
// same way the package's chaos tests do. The run fails (exit 1) unless the
// solve converges despite the churn AND, when kills are scheduled with
// restarts, every killed worker was observed lost and rejoined; the summary
// reports the loss/rejoin/re-shard counters either way.

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/operators"
)

// slowOperator stretches each component evaluation by a fixed delay so a
// demo-sized problem's solve outlasts the churn schedule. It implements
// only the base Operator interface on purpose: EvalBlock then takes the
// componentwise path and the delay applies per component.
type slowOperator struct {
	op    operators.Operator
	delay time.Duration
}

func (s slowOperator) Dim() int { return s.op.Dim() }
func (s slowOperator) Component(i int, x []float64) float64 {
	time.Sleep(s.delay)
	return s.op.Component(i, x)
}
func (s slowOperator) Name() string { return "slow(" + s.op.Name() + ")" }

func runChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	scenario := fs.String("scenario", "lasso", "workload scenario")
	n := fs.Int("n", 0, "problem size; 0 = scenario default")
	seed := fs.Uint64("seed", 1, "workload and fault seed")
	workers := fs.Int("workers", 8, "worker count")
	tol := fs.Float64("tol", -1, "convergence tolerance; negative = scenario default")
	kills := fs.Int("kills", 2, "number of workers killed mid-solve")
	killAfter := fs.Duration("kill-after", 100*time.Millisecond, "when the first kill fires")
	killSpacing := fs.Duration("kill-spacing", 50*time.Millisecond, "delay between consecutive kills")
	restartAfter := fs.Duration("restart-after", 100*time.Millisecond, "kill-to-replacement-launch delay; negative = never restart")
	evalDelay := fs.Duration("evaldelay", 2*time.Millisecond, "per-component evaluation stretch so the solve spans the churn schedule; 0 = full speed")
	timeout := fs.Duration("timeout", 2*time.Minute, "run timeout")
	// Fault, elastic and dist (-topology, -delta) knobs come from the shared
	// knob table.
	knobs := repro.RegisterKnobFlags(fs, "faults", "elastic", "dist")
	fs.Parse(args)

	knobOpts, err := knobs.Options()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *kills < 0 || *kills > *workers {
		fmt.Fprintf(os.Stderr, "chaos: -kills %d outside [0, %d workers]\n", *kills, *workers)
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
	if *evalDelay > 0 {
		cfg.Op = slowOperator{op: spec.Op, delay: *evalDelay}
	}

	plan := dist.ChaosPlan{}
	for i := 0; i < *kills; i++ {
		plan.Events = append(plan.Events, dist.ChaosEvent{
			Worker:       i,
			KillAfter:    *killAfter + time.Duration(i)**killSpacing,
			RestartAfter: *restartAfter,
		})
	}

	fmt.Printf("chaos: scenario=%s n=%d topology=%s workers=%d kills=%d heartbeat=%v\n",
		*scenario, spec.Op.Dim(), topologyName(cfg), cfg.Workers, *kills, spec.Elastic.HeartbeatEvery)
	res, err := dist.RunChaos(cfg, plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("converged=%v elapsed=%v updates per worker=%v\n",
		res.Converged, res.Elapsed, res.UpdatesPerWorker)
	fmt.Printf("workers lost=%d rejoined=%d reshardings=%d probe rounds=%d\n",
		res.WorkersLost, res.WorkersRejoined, res.Resharding, res.ProbeRounds)
	fmt.Printf("messages sent=%d delivered=%d stale=%d dropped=%d reordered=%d\n",
		res.MessagesSent, res.MessagesDelivered, res.MessagesStale,
		res.MessagesDropped, res.MessagesReordered)
	if inst.Describe != nil {
		fmt.Println(inst.Describe(res.X))
	}
	if !res.Converged {
		fmt.Fprintln(os.Stderr, "chaos: solve did not converge under churn")
		os.Exit(1)
	}
	if *kills > 0 && *restartAfter >= 0 {
		if res.WorkersLost < int64(*kills) || res.WorkersRejoined < int64(*kills) {
			fmt.Fprintf(os.Stderr,
				"chaos: scheduled %d kill(s) with restarts but observed lost=%d rejoined=%d — the churn never landed (solve too fast? raise -evaldelay)\n",
				*kills, res.WorkersLost, res.WorkersRejoined)
			os.Exit(1)
		}
	}
}
