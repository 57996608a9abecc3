package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/operators"
)

func TestPercentileNearestRank(t *testing.T) {
	one2ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{one2ten, 0.5, 5}, {one2ten, 0.9, 9}, {one2ten, 0.91, 10}, {one2ten, 1, 10}, {one2ten, 0.01, 1},
		{[]float64{7}, 0.5, 7}, {[]float64{7}, 0.9, 7}, {[]float64{1, 2}, 0.5, 1}, {nil, 0.5, 0},
	} {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
}

func TestCutAssignsByCompletionTime(t *testing.T) {
	ms := time.Millisecond
	slow := time.Duration(float64(calNominal) * math.Pow(2, 1/calExponent)) // kernel time at speed 2
	ws := cut([]sample{
		{at: 100 * ms, wall: 10 * ms}, {at: 499 * ms, wall: 20 * ms}, // window 0
		{at: 500 * ms, wall: 30 * ms},  // window 1
		{at: 1700 * ms, wall: 40 * ms}, // overran the 1.5 s round: last window
	}, []sample{
		{at: 50 * ms, wall: calNominal}, {at: 60 * ms, wall: calNominal}, {at: 70 * ms, wall: 9 * calNominal},
		{at: 1200 * ms, wall: slow}, // window 1 has no kernel run: it takes the round's median
	}, 1500*ms, 3)
	wantMs := [][]float64{{10, 20}, {30}, {40}}
	wantSpeed := []float64{1, speedOf([]float64{float64(calNominal), float64(calNominal), 9 * float64(calNominal), float64(slow)}), 2}
	for i, w := range ws {
		if !reflect.DeepEqual(w.ms, wantMs[i]) || w.seconds != 0.5 || math.Abs(w.speed-wantSpeed[i]) > 1e-6 {
			t.Errorf("window %d = %+v, want samples %v over 0.5 s at speed %g", i, w, wantMs[i], wantSpeed[i])
		}
	}
}

// Rounds are pooled: percentiles and rate are taken over the samples of
// all windows of all rounds together, each window first brought to nominal
// machine speed.
func TestPoolNormalisesAndPoolsRounds(t *testing.T) {
	round1 := []window{{1, []float64{30, 31, 32}, 1}, {1, []float64{20, 22, 24, 26}, 2}, {1, nil, 1}}
	round2 := []window{{1, []float64{12, 14}, 1}, {2, []float64{40, 80}, 4}}
	got := pool(append(round1, round2...), true)
	// At nominal speed: 30 31 32 | 10 11 12 13 | 12 14 | 10 20, over 1 + 0.5 + 1 + 1 + 0.5 s.
	if got.Samples != 11 || got.P50Ms != 13 || got.P90Ms != 31 || got.PerSecond != 11.0/4 {
		t.Errorf("normalised pool = %+v", got)
	}
	raw := pool(append(round1, round2...), false)
	if raw.Samples != 11 || raw.P50Ms != 26 || raw.P90Ms != 40 || raw.PerSecond != 11.0/6 {
		t.Errorf("raw pool = %+v", raw)
	}
	// The quieter half, ranked at nominal speed: medians 10 (40/4) and 11 (22/2).
	quiet := pool(quietest(append(round1, round2...)), true)
	if quiet.Samples != 6 || quiet.P50Ms != 11 || quiet.P90Ms != 20 || quiet.PerSecond != 6 {
		t.Errorf("pool of the quieter half = %+v", quiet)
	}
	if one := quietest([]window{{1, []float64{5}, 1}, {1, nil, 1}}); len(one) != 1 {
		t.Errorf("a single window with samples must be kept, got %d", len(one))
	}
	if s := medianSpeed(append(round1, round2...)); s != 1 {
		t.Errorf("medianSpeed = %g, want 1 (windows without samples do not count)", s)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "setup", StartNs: 0, EndNs: 10},
		// A solve on 2 lanes: 50 ns of wall is 100 ns of lane-time.
		{ID: 3, Parent: 1, Solve: 1, Name: "solve", StartNs: 10, EndNs: 60, Lanes: 2},
		{ID: 4, Parent: 3, Solve: 1, Name: "engine", StartNs: 20, EndNs: 60, Lanes: 2},
		{ID: 5, Parent: 4, Solve: 1, Name: "operators.eval", StartNs: 20, EndNs: 60, BusyNs: 30, Calls: 3, Comps: 12},
		// A served job: four stages that tile the solve.
		{ID: 6, Parent: 1, Solve: 2, Name: "solve", StartNs: 60, EndNs: 90},
		{ID: 7, Parent: 6, Solve: 2, Name: "server.admit", StartNs: 60, EndNs: 65},
		{ID: 8, Parent: 6, Solve: 2, Name: "server.queue", StartNs: 65, EndNs: 65},
		{ID: 9, Parent: 6, Solve: 2, Name: "server.run", StartNs: 65, EndNs: 89},
		{ID: 10, Parent: 6, Solve: 2, Name: "server.tail", StartNs: 89, EndNs: 90},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1:  100 - 10 - 50 - 30, // the round's own: loop and teardown
		2:  10,
		3:  100 - 80, // lane-time outside the engine (wrap)
		4:  80 - 30,  // engine lane-time outside operator calls
		5:  30,
		6:  0, // admit + queue + run + tail = latency
		7:  5,
		8:  0,
		9:  24,
		10: 1,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["solve"] != 20 || byName["engine"] != 50 || byName["operators.eval"] != 30 {
		t.Errorf("selfByName = %v", byName)
	}
	// The shares of the first solve add up to its lane-time.
	if sum := self[3] + self[4] + self[5]; sum != spans[2].cover() {
		t.Errorf("solve shares sum to %d, want %d", sum, spans[2].cover())
	}
}

// fastPaths names the optional interfaces op implements, e.g. "SB".
func fastPaths(op operators.Operator) string {
	out := ""
	if _, ok := op.(operators.ScratchOperator); ok {
		out += "S"
	}
	if _, ok := op.(operators.BlockScratchOperator); ok {
		out += "B"
	}
	if _, ok := op.(operators.FullApplier); ok {
		out += "F"
	}
	return out
}

// The wrapped operator must implement exactly the optional interfaces of
// the inner one, for every operator the scenarios build.
func TestDecoratorKeepsFastPaths(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range repro.Scenarios() {
		inst, err := repro.BuildScenario(sc.Name, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		inner, outer := fastPaths(inst.Spec.Op), fastPaths(wrap(inst.Spec.Op, new(opStats)))
		if inner != outer {
			t.Errorf("%s: inner operator implements %s, wrapped %s", sc.Name, inner, outer)
		}
		seen[inner] = true
	}
	t.Logf("interface sets among the scenarios: %v", seen)
}

// A model-engine solve must not notice the decorator: otherwise the traced
// pass measures another program than the timed rounds.
func TestDecoratorLeavesTrajectoryBitIdentical(t *testing.T) {
	for _, c := range []struct {
		scenario string
		n        int
	}{{"lasso", 48}, {"ridge", 48}, {"multigrid", 7}} {
		inst, err := repro.BuildScenario(c.scenario, c.n, 3)
		if err != nil {
			t.Fatal(err)
		}
		opts := []repro.Option{repro.WithEngine(repro.EngineModel), repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 5})}
		plain, err := repro.Solve(inst.Spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		st := new(opStats)
		spec := inst.Spec
		spec.Op = wrap(spec.Op, st)
		deco, err := repro.Solve(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !plain.Converged || plain.Iterations != deco.Iterations || plain.Updates != deco.Updates {
			t.Errorf("%s: plain converged=%v iterations=%d updates=%d, decorated iterations=%d updates=%d",
				c.scenario, plain.Converged, plain.Iterations, plain.Updates, deco.Iterations, deco.Updates)
		}
		for i := range plain.X {
			if math.Float64bits(plain.X[i]) != math.Float64bits(deco.X[i]) {
				t.Errorf("%s: X[%d] differs: %v vs %v", c.scenario, i, plain.X[i], deco.X[i])
				break
			}
		}
		if st.calls.Load() < int64(plain.Iterations) || st.comps.Load() < int64(plain.Updates) || st.busyNs.Load() <= 0 {
			t.Errorf("%s: decorator saw %d calls, %d components, %d ns over %d iterations",
				c.scenario, st.calls.Load(), st.comps.Load(), st.busyNs.Load(), plain.Iterations)
		}
	}
}

func TestSeedFixesTheInputs(t *testing.T) {
	a, err := serveJobs(mix(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := serveJobs(mix(4, 0))
	c, _ := serveJobs(mix(5, 0))
	same := func(x, y []serveJob) bool {
		for i := range x {
			if x[i].scenario != y[i].scenario || x[i].seed != y[i].seed {
				return false
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Errorf("the job list must be a function of the seed: same seed equal=%v, other seed equal=%v", same(a, b), same(a, c))
	}
}

func readManifest(t *testing.T) *manifest {
	t.Helper()
	var m manifest
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// BENCHMARK.json and the harness must name the same workloads and metrics.
func TestManifestMatchesHarness(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the harness %q: %q", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	var e2e []metricDef
	hasSetup := false
	for _, d := range m.EndToEnd {
		e2e = append(e2e, d.metricDef)
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.metricDef == metricDef{"setup_s", "s", lower}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json must have setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %v, harness %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and harness differ:\n%v\n%v", m.PerLayer, perLayer)
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := readManifest(t)
	mk := func(p50, rate float64) *result {
		return &result{Workloads: map[string]*workloadResult{"model-lasso": {EndToEnd: map[string]metricValue{
			"solve_p50_ms": {p50, "ms"}, "solves_per_s": {rate, "1/s"},
		}}}}
	}
	bound := 0.0
	for _, d := range m.EndToEnd {
		if d.Name == "solve_p50_ms" {
			bound = d.Bound
		}
	}
	// b is slower by twice the bound and its rate is higher: one WORSE.
	vs := compareResults(mk(10, 100), mk(10*(1+2*bound), 120), m)
	if len(vs) != 2 {
		t.Fatalf("got %d verdicts, want 2: %+v", len(vs), vs)
	}
	for _, v := range vs {
		switch v.metric {
		case "solve_p50_ms":
			if v.ok() || math.Abs(v.worse-2*bound) > 1e-12 {
				t.Errorf("p50 worse by %g must exceed the bound %g", v.worse, v.bound)
			}
		case "solves_per_s":
			if !v.ok() || v.worse >= 0 {
				t.Errorf("a higher rate is better: %+v", v)
			}
		}
	}
	// A lower rate beyond the bound is worse too.
	for _, v := range compareResults(mk(10, 100), mk(10, 100*(1-2*bound)), m) {
		if v.metric == "solves_per_s" && v.ok() {
			t.Errorf("rate down by twice the bound passed: %+v", v)
		}
	}
}

// The quick mode runs all six workloads, the traced pass, the probes and
// the JSON writers; a broken workload fails here.
func TestQuickRunProducesEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for real")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	var res result
	if err := readJSON(filepath.Join(dir, "result.json"), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Workloads) != len(workloads) {
		t.Fatalf("correct=%v with %d workloads", res.Correct, len(res.Workloads))
	}
	applies := map[string]bool{}
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		if wr == nil || wr.Failed != 0 || wr.Attempted == 0 {
			t.Fatalf("%s: %+v", w.name, wr)
		}
		for _, d := range endToEnd {
			if mv, ok := wr.EndToEnd[d.Name]; !ok || !(mv.Value > 0) || mv.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, d.Name, mv)
			}
		}
		for name := range wr.PerLayer {
			applies[name] = true
		}
	}
	for _, d := range perLayer {
		if !applies[d.Name] {
			t.Errorf("no workload reported the per-layer metric %s", d.Name)
		}
	}
	var spans map[string][]span
	if err := readJSON(filepath.Join(dir, "trace.json"), &spans); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(spans[w.name]) == 0 {
			t.Errorf("%s: no spans in trace.json", w.name)
		}
	}
}

// A single-workload run ends with its result as one JSON object, which
// carries every per-layer metric when traced.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload for real")
	}
	var stdout bytes.Buffer
	if code := run([]string{"-quick", "-workload", "serve-mix", "-trace", "1", "-out", t.TempDir()}, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(perLayer) {
		t.Errorf("result line: correct=%v attempted=%d failed=%d with %d metrics, want %d",
			line.Correct, line.Attempted, line.Failed, len(line.Metrics), len(perLayer))
	}
	for _, name := range []string{"server.run_ms", "server.overhead_ms", "vec.dot_ns_per_elem"} {
		if !(line.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a positive value", name, line.Metrics[name])
		}
	}
}
