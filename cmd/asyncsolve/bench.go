package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"time"

	"repro/internal/benchsuite"
)

// runBench implements `asyncsolve bench`: it runs the benchsuite micro cases
// (the BlockEval pairs and the served job's non-solve layers) and writes a
// machine-readable BENCH_<rev>.json capture — what bench-compare gates on and
// the CI benchmark job uploads. Whole solves are timed by `go run ./benchmark`
// (BENCHMARK.json), not here.
func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "", "output path; default BENCH_<rev>.json in the working directory")
	rev := fs.String("rev", "", "revision label; default: short git revision, else \"dev\"")
	benchtime := fs.Duration("benchtime", time.Second, "minimum measuring time per case")
	quick := fs.Bool("quick", false, "single repetition per case (CI smoke mode)")
	match := fs.String("match", "", "run only cases whose name matches this regexp (e.g. ^BlockEval)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: asyncsolve bench [flags]

Runs the micro-benchmarks the repository benchmark cannot express — the
BlockEval block-vs-per-component pairs that bench-compare gates, and the
recorded-only Gram, scenario-build, Report-codec and operator-apply cases —
and writes BENCH_<rev>.json with ns/op, allocs/op, bytes/op and units/s per
case. Every end-to-end and per-layer quantity of a whole solve is measured by
"go run ./benchmark" (BENCHMARK.json). See "Measuring performance" in the
package documentation.

`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	if *rev == "" {
		*rev = benchsuite.Revision()
	}
	benchtimeSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "benchtime" {
			benchtimeSet = true
		}
	})
	if *quick && benchtimeSet {
		fmt.Fprintln(os.Stderr, "asyncsolve bench: -quick and -benchtime are mutually exclusive")
		os.Exit(2)
	}
	bt := *benchtime
	if *quick {
		bt = 0 // Measure always performs at least one repetition
	}

	cases := benchsuite.MicroCases()
	if *match != "" {
		re, err := regexp.Compile(*match)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asyncsolve bench: bad -match regexp: %v\n", err)
			os.Exit(2)
		}
		kept := cases[:0]
		for _, c := range cases {
			if re.MatchString(c.Name) {
				kept = append(kept, c)
			}
		}
		cases = kept
		if len(cases) == 0 {
			fmt.Fprintf(os.Stderr, "asyncsolve bench: -match %q selects no cases\n", *match)
			os.Exit(2)
		}
	}

	results := make([]benchsuite.Result, 0, len(cases))
	failed := 0
	for _, c := range cases {
		r := benchsuite.Measure(c, bt)
		results = append(results, r)
		if r.Err != "" {
			failed++
			fmt.Fprintf(os.Stderr, "%-28s FAILED: %s\n", c.Name, r.Err)
			continue
		}
		line := fmt.Sprintf("%-28s %12.0f ns/op %10.1f allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.SolveRate > 0 {
			line += fmt.Sprintf(" %14.0f units/s", r.SolveRate)
		}
		fmt.Println(line)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", *rev)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	capture := benchsuite.NewFile(*rev, bt, results)
	capture.Quick = *quick
	if err := capture.WriteJSON(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d cases, revision %s)\n", path, len(results), *rev)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d case(s) failed\n", failed)
		os.Exit(1)
	}
}
