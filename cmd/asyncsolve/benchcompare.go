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
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: asyncsolve bench-compare -baseline BENCH_baseline.json -current BENCH_new.json [-tolerance 0.2]

Fails (exit 1) when any BlockEval case's block-vs-per-component speedup
multiple in the current capture is more than tolerance below the
baseline's, or when a baseline pair is missing from the current capture.
The multiple is a ratio within one capture, never raw ns/op across
captures, so the gate holds across machines of different absolute speed.
The other cases of a capture are recorded, not gated; whole-solve speed is
gated by the repository benchmark (BENCHMARK.json).

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
	if *tolerance < 0 || *tolerance >= 1 {
		fmt.Fprintln(os.Stderr, "asyncsolve bench-compare: -tolerance must be in [0, 1)")
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

	lines, err := benchsuite.CompareBlockEval(baseline, current, *tolerance)
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("bench-compare: block-evaluation speedups within %.0f%% of baseline (%s)\n",
		*tolerance*100, baseline.Revision)
}
