package benchsuite

import (
	"fmt"
	"sort"
	"strings"
)

// PerComponentSuffix names the baseline member of a BlockEval pair: the same
// workload and partition forced onto the per-component fallback.
const PerComponentSuffix = "PerComponent"

// Speedup is one BlockEval pair's measured multiple in a capture.
type Speedup struct {
	// Name is the block case's name (the pair is Name + NamePerComponent).
	Name string
	// BlockRate / PerComponentRate are the pair's solve rates (units/s).
	BlockRate, PerComponentRate float64
	// Multiple is BlockRate / PerComponentRate.
	Multiple float64
}

// BlockEvalSpeedups extracts every complete BlockEval pair from a capture,
// sorted by name. Cases with errors, missing partners or zero rates are
// skipped — a pair must have two clean measurements to yield a multiple.
func BlockEvalSpeedups(f *File) []Speedup {
	byName := make(map[string]Result, len(f.Results))
	for _, r := range f.Results {
		byName[r.Name] = r
	}
	var out []Speedup
	for _, r := range f.Results {
		if !strings.HasPrefix(r.Name, "BlockEval") || strings.HasSuffix(r.Name, PerComponentSuffix) {
			continue
		}
		base, ok := byName[r.Name+PerComponentSuffix]
		if !ok || r.Err != "" || base.Err != "" || r.SolveRate <= 0 || base.SolveRate <= 0 {
			continue
		}
		out = append(out, Speedup{
			Name:             r.Name,
			BlockRate:        r.SolveRate,
			PerComponentRate: base.SolveRate,
			Multiple:         r.SolveRate / base.SolveRate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CompareBlockEval gates the block-evaluation fast path against a committed
// baseline capture: for every BlockEval pair present in both files, the
// current speedup multiple must not regress more than tolerance (e.g. 0.2 =
// 20%) below the baseline's. Multiples — not raw ns/op — are compared, so
// the gate is meaningful across machines of different absolute speed. It
// returns one report line per compared pair and an error listing every
// regression (or no pairs to compare at all).
func CompareBlockEval(baseline, current *File, tolerance float64) ([]string, error) {
	base := make(map[string]Speedup)
	for _, s := range BlockEvalSpeedups(baseline) {
		base[s.Name] = s
	}
	var lines []string
	var failures []string
	compared := 0
	seen := make(map[string]bool)
	for _, cur := range BlockEvalSpeedups(current) {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("%-28s %8.2fx (new case, no baseline)", cur.Name, cur.Multiple))
			continue
		}
		compared++
		floor := b.Multiple * (1 - tolerance)
		status := "ok"
		if cur.Multiple < floor {
			status = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.2fx < %.2fx (baseline %.2fx - %.0f%%)",
				cur.Name, cur.Multiple, floor, b.Multiple, tolerance*100))
		}
		lines = append(lines, fmt.Sprintf("%-28s %8.2fx vs baseline %8.2fx (floor %.2fx) %s",
			cur.Name, cur.Multiple, b.Multiple, floor, status))
	}
	// A baseline pair absent from the current capture means the gate's
	// coverage silently shrank (case renamed/deleted, or its measurement
	// errored out) — that is a failure, not a skip.
	var missing []string
	for name := range base {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		failures = append(failures, fmt.Sprintf("%s: present in baseline (%.2fx) but missing from current capture",
			name, base[name].Multiple))
	}
	if compared == 0 && len(failures) == 0 {
		return lines, fmt.Errorf("benchsuite: no BlockEval pairs common to baseline and current capture")
	}
	if len(failures) > 0 {
		return lines, fmt.Errorf("benchsuite: block-evaluation speedup regressed:\n  %s",
			strings.Join(failures, "\n  "))
	}
	return lines, nil
}
