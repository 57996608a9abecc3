package benchsuite

import (
	"fmt"
	"math"
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

// ServeCaseName / ServeSoloCaseName are the pair behind the serving-
// efficiency gate: the sustained served solves/sec of the HTTP job server
// and the same solve run directly through the facade.
const (
	ServeCaseName     = "ServeSustained"
	ServeSoloCaseName = "ScenarioSolveLasso"
)

// ServeRatio is one capture's serving efficiency: sustained served
// solves/sec normalized by direct (unserved) solves/sec on the same
// machine in the same capture — machine-independent like the BlockEval
// multiples.
type ServeRatio struct {
	ServeRate float64
	SoloRate  float64
	Ratio     float64
}

// ServeSustainedRatio extracts the serving-efficiency ratio from a capture;
// ok is false when either case is absent, errored or rate-less.
func ServeSustainedRatio(f *File) (ServeRatio, bool) {
	var serve, solo *Result
	for i := range f.Results {
		switch f.Results[i].Name {
		case ServeCaseName:
			serve = &f.Results[i]
		case ServeSoloCaseName:
			solo = &f.Results[i]
		}
	}
	if serve == nil || solo == nil || serve.Err != "" || solo.Err != "" ||
		serve.SolveRate <= 0 || solo.SolveRate <= 0 {
		return ServeRatio{}, false
	}
	return ServeRatio{
		ServeRate: serve.SolveRate,
		SoloRate:  solo.SolveRate,
		Ratio:     serve.SolveRate / solo.SolveRate,
	}, true
}

// CompareServeSustained gates serving efficiency against the baseline
// capture: the current ServeSustained/ScenarioSolveLasso ratio must not
// fall more than tolerance below the baseline's. When neither capture has
// the pair there is nothing to gate (nil, nil); a baseline without the
// pair reports the current ratio as new coverage; a baseline WITH the pair
// whose current capture lacks it is shrunk coverage, which fails.
func CompareServeSustained(baseline, current *File, tolerance float64) ([]string, error) {
	cur, curOK := ServeSustainedRatio(current)
	base, baseOK := ServeSustainedRatio(baseline)
	switch {
	case !curOK && !baseOK:
		return nil, nil
	case !curOK:
		return nil, fmt.Errorf("benchsuite: %s/%s ratio present in baseline (%.3fx) but missing from current capture",
			ServeCaseName, ServeSoloCaseName, base.Ratio)
	case !baseOK:
		return []string{fmt.Sprintf("%-28s %8.3fx of solo solve rate (new case, no baseline)",
			ServeCaseName, cur.Ratio)}, nil
	}
	floor := base.Ratio * (1 - tolerance)
	status := "ok"
	var err error
	if cur.Ratio < floor {
		status = "REGRESSION"
		err = fmt.Errorf("benchsuite: serving efficiency regressed: %s %.3fx < %.3fx (baseline %.3fx - %.0f%%)",
			ServeCaseName, cur.Ratio, floor, base.Ratio, tolerance*100)
	}
	line := fmt.Sprintf("%-28s %8.3fx vs baseline %8.3fx (floor %.3fx) %s",
		ServeCaseName, cur.Ratio, base.Ratio, floor, status)
	return []string{line}, err
}

// IsSolveRateCase reports whether a benchmark case participates in the
// solve-rate trajectory gate: the end-to-end scenario solves, the three
// dist-engine deployments and the sustained serving case.
func IsSolveRateCase(name string) bool {
	return strings.HasPrefix(name, "Scenario") ||
		name == "DistStarWorkers" || name == "DistMeshWorkers" || name == "DistElasticWorkers" ||
		name == ServeCaseName
}

// solveRates extracts every clean solve-rate case from a capture.
func solveRates(f *File) map[string]float64 {
	out := map[string]float64{}
	for _, r := range f.Results {
		if IsSolveRateCase(r.Name) && r.Err == "" && r.SolveRate > 0 {
			out[r.Name] = r.SolveRate
		}
	}
	return out
}

// geomean returns the geometric mean of the named cases' rates.
func geomean(rates map[string]float64, names []string) float64 {
	if len(names) == 0 {
		return 0
	}
	s := 0.0
	for _, name := range names {
		s += math.Log(rates[name])
	}
	return math.Exp(s / float64(len(names)))
}

// solveRateTolerance is the per-case allowed fractional regression: the
// dist cases ride real TCP sockets and OS scheduling, so they gate looser
// than the in-process scenario and serve cases.
func solveRateTolerance(name string, tolerance, distTolerance float64) float64 {
	if strings.HasPrefix(name, "Dist") {
		return distTolerance
	}
	return tolerance
}

// CompareSolveRates gates end-to-end solve throughput against a committed
// baseline capture. Raw solves/sec are never compared across captures —
// machines differ. Instead each case's rate is normalized by the geometric
// mean of the cases COMMON to both captures within its own capture, so the
// compared quantity is "this case relative to this machine's overall solve
// speed": machine-independent, like the BlockEval multiples. A case whose
// normalized rate falls more than its tolerance below the baseline's fails;
// dist cases use the looser distTolerance. New cases report as info;
// baseline cases missing from the current capture are shrunk coverage and
// fail.
func CompareSolveRates(baseline, current *File, tolerance, distTolerance float64) ([]string, error) {
	base := solveRates(baseline)
	cur := solveRates(current)
	var common, fresh []string
	for name := range cur {
		if _, ok := base[name]; ok {
			common = append(common, name)
		} else {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(common)
	sort.Strings(fresh)

	var lines []string
	var failures []string
	if len(common) > 0 {
		baseMean := geomean(base, common)
		curMean := geomean(cur, common)
		for _, name := range common {
			b := base[name] / baseMean
			c := cur[name] / curMean
			tol := solveRateTolerance(name, tolerance, distTolerance)
			floor := b * (1 - tol)
			status := "ok"
			if c < floor {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %.3f < %.3f (baseline %.3f - %.0f%%)",
					name, c, floor, b, tol*100))
			}
			lines = append(lines, fmt.Sprintf("%-28s %8.3f vs baseline %8.3f (floor %.3f) %s",
				name, c, b, floor, status))
		}
	}
	for _, name := range fresh {
		lines = append(lines, fmt.Sprintf("%-28s %8.1f solves/s (new case, no baseline)", name, cur[name]))
	}
	var missing []string
	for name := range base {
		if _, ok := cur[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from current capture", name))
	}
	if len(common) == 0 && len(failures) == 0 && len(fresh) == 0 {
		return lines, fmt.Errorf("benchsuite: no solve-rate cases in either capture")
	}
	if len(failures) > 0 {
		return lines, fmt.Errorf("benchsuite: solve rate regressed:\n  %s", strings.Join(failures, "\n  "))
	}
	return lines, nil
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
