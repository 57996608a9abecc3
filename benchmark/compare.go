package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is BENCHMARK.json, as far as the harness reads it.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict is one line of a comparison.
type verdict struct {
	workload, metric, unit string
	a, b                   float64
	// worse is by how much b is worse than a, as a share of a (negative
	// when b is better); bound is how much it may be.
	worse, bound float64
}

func (v verdict) ok() bool { return v.worse <= v.bound }

// compareResults compares every end-to-end metric of every workload that
// both results have: b may be worse than a by at most the metric's bound.
func compareResults(a, b *result, m *manifest) []verdict {
	var out []verdict
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			continue
		}
		for _, d := range m.EndToEnd {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			worse := ratio(vb.Value-va.Value, va.Value)
			if d.Better == higher {
				worse = -worse
			}
			out = append(out, verdict{name, d.Name, d.Unit, va.Value, vb.Value, worse, d.Bound})
		}
	}
	return out
}

// compareFiles prints the comparison of two result.json files and returns
// the exit code: 1 if any metric is worse by more than its bound.
func compareFiles(pathA, pathB, manifestPath string, stdout, stderr io.Writer) int {
	var a, b result
	var m manifest
	for path, into := range map[string]any{pathA: &a, pathB: &b, manifestPath: &m} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	vs := compareResults(&a, &b, &m)
	if len(vs) == 0 {
		fmt.Fprintln(stderr, "benchmark: the two results share no end-to-end metric")
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, v := range vs {
		word := "ok"
		if !v.ok() {
			word, code = "WORSE", 1
		}
		fmt.Fprintf(stdout, "%-18s %-20s %14.6g %14.6g %+8.1f%% %6.1f%%  %s\n",
			v.workload, v.metric, v.a, v.b, 100*v.worse, 100*v.bound, word)
	}
	return code
}
