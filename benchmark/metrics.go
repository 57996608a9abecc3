package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names a metric the way BENCHMARK.json does.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, reported for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"solve_p50_ms", "ms", lower},
	{"solve_p90_ms", "ms", lower},
	{"solves_per_s", "1/s", higher},
	{"ok_frac", "ratio", higher},
	{"allocs_per_solve", "count", lower},
	{"alloc_kb_per_solve", "KiB", lower},
}

// perLayer is the ledger of single layers. A metric that does not apply
// to the workload of a run (dist.* on model-lasso) reads 0 there.
var perLayer = []metricDef{
	{"vec.dense_mulrange_ns_per_row", "ns", lower},
	{"vec.dense_mulrange_gflops", "gflop/s", higher},
	{"vec.csr_mulrange_ns_per_row", "ns", lower},
	{"vec.dot_ns_per_elem", "ns", lower},

	{"operators.evalblock_ns_per_comp.lasso256", "ns", lower},
	{"operators.evalcomp_ns.lasso256", "ns", lower},
	{"operators.evalblock_ns_per_comp.multigrid31", "ns", lower},
	{"operators.residual_ns.lasso256", "ns", lower},
	{"operators.allocs_per_evalblock", "count", lower},
	{"operators.busy_share", "ratio", lower},
	{"operators.calls_per_solve", "count", lower},
	{"operators.comps_per_solve", "count", lower},
	{"operators.probe_agreement", "ratio", lower},

	{"core.ns_per_iter", "ns", lower},
	{"core.iters_per_solve", "count", lower},
	{"core.self_share", "ratio", lower},

	{"des.ns_per_update", "ns", lower},
	{"des.allocs_per_solve", "count", lower},
	{"des.msgs_per_solve", "count", lower},

	{"runtime.ns_per_phase", "ns", lower},
	{"runtime.phases_per_solve", "count", lower},
	{"runtime.self_share", "ratio", lower},
	{"runtime.msgs_per_phase", "count", lower},
	{"runtime.drop_frac", "ratio", lower},
	{"runtime.worker_imbalance", "ratio", lower},
	{"runtime.wrap_ms", "ms", lower},

	{"dist.ns_per_phase", "ns", lower},
	{"dist.phases_per_solve", "count", lower},
	{"dist.frames_per_phase", "count", lower},
	{"dist.bytes_per_phase", "B", lower},
	{"dist.allocs_per_phase", "count", lower},
	{"dist.self_share", "ratio", lower},
	{"dist.wasted_frac", "ratio", lower},
	{"dist.wrap_ms", "ms", lower},
	{"dist.worker_imbalance", "ratio", lower},
	{"dist.churn_events", "count", lower},

	{"server.admit_ms", "ms", lower},
	{"server.queue_ms", "ms", lower},
	{"server.run_ms", "ms", lower},
	{"server.tail_ms", "ms", lower},
	{"server.overhead_ms", "ms", lower},
	{"server.overhead_frac", "ratio", lower},
	{"server.allocs_per_job", "count", lower},
	{"server.pool_reuse_frac", "ratio", higher},
	{"server.rejected_frac", "ratio", lower},
	{"server.report_bytes", "B", lower},
	{"server.p50_ms.lasso", "ms", lower},
	{"server.p50_ms.ridge", "ms", lower},
	{"server.p50_ms.routing", "ms", lower},

	{"scenario.build_ms.lasso256", "ms", lower},
	{"scenario.build_ms.multigrid31", "ms", lower},
	{"scenario.build_ms.lasso64", "ms", lower},
	{"scenario.build_allocs.lasso64", "count", lower},
	{"report.marshal_us.lasso64", "us", lower},
	{"report.unmarshal_us.lasso64", "us", lower},

	{"trace.overhead_frac", "ratio", lower},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndOf computes the end-to-end metrics of a workload from its
// untraced rounds. The timings are at nominal machine speed (calibrate.go)
// and pooled over the quieter half of the rounds' windows; the counts are
// totals over the rounds.
func endToEndOf(u *tally) map[string]float64 {
	q := pool(quietest(u.windows), true)
	ok := float64(u.ok())
	return map[string]float64{
		"setup_s":            median(u.setupS),
		"solve_p50_ms":       q.P50Ms,
		"solve_p90_ms":       q.P90Ms,
		"solves_per_s":       q.PerSecond,
		"ok_frac":            ratio(ok, float64(u.attempted)),
		"allocs_per_solve":   ratio(float64(u.mallocs), ok),
		"alloc_kb_per_solve": ratio(float64(u.allocB)/1024, ok),
	}
}

// layersOf computes the per-workload part of the ledger: u holds the
// workload's untraced rounds, t its traced ones, spans what the traced
// rounds recorded, probes the probe results. Only the metrics of the
// layers the workload runs on are returned.
func layersOf(w *workload, u, t *tally, spans []span, probes map[string]float64) map[string]float64 {
	out := map[string]float64{}
	ok := float64(u.ok())
	lanes := float64(u.lanes)
	uq, tq := pool(quietest(u.windows), true), pool(quietest(t.windows), true)
	out["trace.overhead_frac"] = ratio(tq.P50Ms, uq.P50Ms) - 1
	// Timings that are means over all solves are brought to nominal machine
	// speed by the median speed of the rounds they come from.
	uSpeed, tSpeed := medianSpeed(u.windows), medianSpeed(t.windows)

	// From the spans: a layer's share of a solve is the self time of its
	// spans over the lane-time of the solves.
	self := selfByName(spans)
	var solves, capacity, calls, comps float64
	stage := map[string]float64{}
	for _, s := range spans {
		switch s.Name {
		case "solve":
			solves++
			capacity += float64(s.cover())
		case "operators.eval":
			calls += float64(s.Calls)
			comps += float64(s.Comps)
		default:
			stage[s.Name] += float64(s.EndNs - s.StartNs)
		}
	}
	share := func(spanName string) float64 { return ratio(float64(self[spanName]), capacity) }

	engine := w.layer
	if engine != "server" {
		out["operators.busy_share"] = share("operators.eval")
		out["operators.calls_per_solve"] = ratio(calls, solves)
		out["operators.comps_per_solve"] = ratio(comps, solves)
	}
	phases := float64(u.phases)
	wrapMs := ratio(float64(u.wallNs-u.elapsedNs), ok) / 1e6 / uSpeed
	switch engine {
	case "core":
		// The model engine reports no Elapsed, so its solves have no engine
		// span: what the solve span does not hand to operators is core's.
		out["core.self_share"] = share("solve")
		out["operators.probe_agreement"] = ratio(float64(self["operators.eval"]),
			calls*probes["operators.evalcomp_ns.lasso256"])
	case "runtime":
		out["runtime.self_share"] = share("engine")
		out["runtime.ns_per_phase"] = ratio(lanes*float64(u.elapsedNs), phases) / uSpeed
		out["runtime.phases_per_solve"] = ratio(phases, ok)
		out["runtime.msgs_per_phase"] = ratio(float64(u.sent), phases)
		out["runtime.drop_frac"] = ratio(float64(u.dropped), float64(u.sent))
		out["runtime.worker_imbalance"] = ratio(u.imbalance, ok)
		out["runtime.wrap_ms"] = wrapMs
	case "dist":
		out["dist.self_share"] = share("engine")
		out["dist.ns_per_phase"] = ratio(lanes*float64(u.elapsedNs), phases) / uSpeed
		out["dist.phases_per_solve"] = ratio(phases, ok)
		out["dist.frames_per_phase"] = ratio(float64(u.sent), phases)
		out["dist.bytes_per_phase"] = ratio(float64(u.wireBytes), phases)
		out["dist.allocs_per_phase"] = ratio(float64(u.mallocs), phases)
		out["dist.wasted_frac"] = ratio(float64(u.dropped+u.reordered+u.duplicate+u.stale), float64(u.sent))
		out["dist.worker_imbalance"] = ratio(u.imbalance, ok)
		out["dist.wrap_ms"] = wrapMs
		out["dist.churn_events"] = float64(u.lost + u.rejoined + u.reshard)
	case "server":
		for _, st := range [4]string{"admit", "queue", "run", "tail"} {
			out["server."+st+"_ms"] = ratio(stage["server."+st], solves) / 1e6 / tSpeed
		}
		direct := probes["serve.direct_p50_ms"]
		out["server.overhead_ms"] = uq.P50Ms - direct
		out["server.overhead_frac"] = ratio(uq.P50Ms-direct, direct)
		out["server.allocs_per_job"] = ratio(float64(u.mallocs), ok)
		out["server.pool_reuse_frac"] = ratio(float64(u.health.ScratchReused), float64(u.health.ScratchReused+u.health.ScratchCreated))
		out["server.rejected_frac"] = ratio(float64(u.health.Rejected), float64(u.health.Rejected+u.health.Accepted))
		out["server.report_bytes"] = ratio(float64(u.reportBytes), ok)
		for _, sc := range serveScenarios {
			out["server.p50_ms."+sc.name] = median(u.byScenario[sc.name]) / uSpeed
		}
	}
	if engine == "core" || engine == "server" {
		// Served jobs run on the model engine too.
		out["core.ns_per_iter"] = ratio(float64(u.wallNs), float64(u.iterations)) / uSpeed
		// The mean over rounds of each round's mean: on the model engine a
		// round's solves all run the same iterations, so this repeats
		// exactly for a seed however many solves each round fitted in.
		out["core.iters_per_solve"] = mean(u.itersPerRound)
	}
	return out
}

// checkAccounting returns what is wrong with the books of a workload's
// ledger: every share must lie in [0, 1], and the four server stages of a
// job must add up to its latency exactly, which leaves a served solve span
// no self time.
func checkAccounting(w *workload, layers map[string]float64, spans []span) []string {
	var bad []string
	for metric, v := range layers {
		if strings.HasSuffix(metric, "_share") && !(v >= 0 && v <= 1) {
			bad = append(bad, fmt.Sprintf("%s = %g is outside [0, 1]", metric, v))
		}
	}
	if w.layer == "server" {
		self := selfTimes(spans)
		for _, s := range spans {
			if s.Name == "solve" && self[s.ID] != 0 {
				bad = append(bad, fmt.Sprintf("server stages of solve %d differ from its latency by %d ns", s.Solve, self[s.ID]))
				break
			}
		}
	}
	sort.Strings(bad)
	return bad
}
