package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/benchsuite"
)

// runBenchCompare implements `asyncsolve bench-compare`: it gates the
// block-evaluation fast path against a committed baseline capture. For every
// BlockEval pair (BlockEvalX / BlockEvalXPerComponent) present in both
// captures, the current speedup MULTIPLE must not regress more than
// -tolerance below the baseline's multiple. Ratios within one capture are
// compared — never raw ns/op across captures — so the gate holds across
// machines of different absolute speed (CI runners vs dev boxes).
func runBenchCompare(args []string) {
	fs := flag.NewFlagSet("bench-compare", flag.ExitOnError)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline capture")
	currentPath := fs.String("current", "", "fresh capture to check (required)")
	tolerance := fs.Float64("tolerance", 0.2, "allowed fractional regression of each speedup multiple")
	serveTolerance := fs.Float64("serve-tolerance", 0.5, "allowed fractional regression of the ServeSustained/ScenarioSolveLasso ratio (looser: it includes HTTP and scheduler noise)")
	solveTolerance := fs.Float64("solve-tolerance", 0.3, "allowed fractional regression of each normalized solve-rate case (Scenario*, ServeSustained)")
	distTolerance := fs.Float64("dist-tolerance", 0.5, "allowed fractional regression of the Dist* solve-rate cases (looser: real TCP sockets and OS scheduling)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: asyncsolve bench-compare -baseline BENCH_baseline.json -current BENCH_new.json [-tolerance 0.2]

Fails (exit 1) when any BlockEval case's block-vs-per-component speedup
multiple in the current capture is more than tolerance below the
baseline's, when the serving-efficiency ratio (ServeSustained solves/sec
normalized by ScenarioSolveLasso within the same capture) is more than
serve-tolerance below the baseline's, or when any solve-rate case
(Scenario*, Dist{Star,Mesh,Elastic}Workers, ServeSustained) — normalized
by the within-capture geometric mean of the cases common to both files —
is more than solve-tolerance (dist-tolerance for Dist*) below the
baseline's. Every gate compares within-capture ratios, never raw ns/op
across captures, so it holds across machines of different absolute speed.

`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "asyncsolve bench-compare: -current is required")
		os.Exit(2)
	}
	if *tolerance < 0 || *tolerance >= 1 || *serveTolerance < 0 || *serveTolerance >= 1 ||
		*solveTolerance < 0 || *solveTolerance >= 1 || *distTolerance < 0 || *distTolerance >= 1 {
		fmt.Fprintln(os.Stderr, "asyncsolve bench-compare: tolerances must be in [0, 1)")
		os.Exit(2)
	}

	read := func(path string) *benchsuite.File {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		capture, err := benchsuite.ReadFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		return capture
	}
	baseline := read(*baselinePath)
	current := read(*currentPath)

	failed := false
	lines, err := benchsuite.CompareBlockEval(baseline, current, *tolerance)
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		failed = true
	}
	serveLines, serveErr := benchsuite.CompareServeSustained(baseline, current, *serveTolerance)
	for _, l := range serveLines {
		fmt.Println(l)
	}
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, serveErr)
		failed = true
	}
	rateLines, rateErr := benchsuite.CompareSolveRates(baseline, current, *solveTolerance, *distTolerance)
	for _, l := range rateLines {
		fmt.Println(l)
	}
	if rateErr != nil {
		fmt.Fprintln(os.Stderr, rateErr)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("bench-compare: block-evaluation speedups within %.0f%%, serving efficiency within %.0f%% and normalized solve rates within %.0f%% (dist %.0f%%) of baseline (%s)\n",
		*tolerance*100, *serveTolerance*100, *solveTolerance*100, *distTolerance*100, baseline.Revision)
}
