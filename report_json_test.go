package repro_test

// Report JSON round-trip tests: the serving layer (internal/server) streams
// the terminal Report verbatim as JSON, so the encoding must be stable —
// snake_case keys, Elapsed as integer nanoseconds, engine-specific detail
// never leaked — and decoding must restore every exported field.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
)

// goldenReport exercises every exported Report field at once (no real
// engine produces all of them together, but the encoding must handle it).
func goldenReport() repro.Report {
	return repro.Report{
		Engine:            "sim",
		X:                 []float64{1.5, -2.25, 0},
		Converged:         true,
		Iterations:        42,
		Updates:           126,
		FinalResidual:     3.5e-10,
		FinalError:        1.25e-9,
		Errors:            []float64{1, 0.5, 0.25},
		ErrorTrace:        []repro.TimedError{{Time: 1.5, Error: 0.5}, {Time: 3, Error: 0.25}},
		Boundaries:        []int{3, 7, 12},
		StrictBoundaries:  []int{3, 8},
		Epochs:            []int{4, 9},
		UpdatesPerWorker:  []int{40, 43, 43},
		MessagesSent:      100,
		MessagesDropped:   3,
		MessagesStale:     7,
		MessagesReordered: 2,
		MessagesDuplicate: 1,
		BytesSent:         4096,
		BytesReceived:     4000,
		WorkersLost:       2,
		WorkersRejoined:   2,
		Resharding:        4,
		Time:              17.5,
		Elapsed:           1500 * time.Millisecond,
		PerWorker: []repro.WorkerStats{{Elapsed: 900, Compute: 500, Publish: 200, Drain: 100, Parked: 100, Accounts: 3},
			{Elapsed: 800, Compute: 800}},
	}
}

// TestReportJSONRoundTrip: marshal -> unmarshal must reproduce every
// exported field exactly.
func TestReportJSONRoundTrip(t *testing.T) {
	want := goldenReport()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got repro.Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the report:\n got %+v\nwant %+v", got, want)
	}
}

// TestReportJSONGoldenKeys pins the wire keys: stable snake_case names,
// elapsed as integer nanoseconds, and no unexported-detail leakage.
func TestReportJSONGoldenKeys(t *testing.T) {
	data, err := json.Marshal(goldenReport())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"boundaries", "bytes_received", "bytes_sent", "converged",
		"elapsed_ns", "engine", "epochs", "error_trace", "errors",
		"final_error", "final_residual", "iterations",
		"messages_dropped", "messages_duplicate", "messages_reordered",
		"messages_sent", "messages_stale", "per_worker", "resharding",
		"strict_boundaries", "time", "updates", "updates_per_worker",
		"workers_lost", "workers_rejoined", "x",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("wire keys drifted:\n got %v\nwant %v", keys, want)
	}
	// Elapsed must be integer nanoseconds, not a formatted duration string.
	if string(m["elapsed_ns"]) != "1500000000" {
		t.Fatalf("elapsed_ns = %s, want 1500000000", m["elapsed_ns"])
	}
	if s := string(m["error_trace"]); !strings.Contains(s, `"time"`) || !strings.Contains(s, `"error"`) {
		t.Fatalf("error_trace keys drifted: %s", s)
	}
}

// TestReportJSONOmitsUnproduced: a minimal report (the shape the model
// engine emits without XStar) must not serialize fields it never produced.
func TestReportJSONOmitsUnproduced(t *testing.T) {
	r := repro.Report{Engine: "model", X: []float64{0}, Iterations: 1, Updates: 1}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{
		"errors", "error_trace", "records", "messages_sent",
		"bytes_sent", "elapsed_ns", "updates_per_worker", "per_worker",
	} {
		if _, ok := m[absent]; ok {
			t.Fatalf("unproduced field %q serialized: %s", absent, data)
		}
	}
	// converged:false and final_residual:0 must survive (no omitempty):
	// a non-converged report must say so explicitly.
	for _, present := range []string{"converged", "final_residual", "engine", "x"} {
		if _, ok := m[present]; !ok {
			t.Fatalf("required field %q missing: %s", present, data)
		}
	}
}

// TestReportJSONNonFinite: non-finite floats (routing iterates from +Inf
// distances) encode as the protobuf-JSON strings and decode back exactly.
func TestReportJSONNonFinite(t *testing.T) {
	r := repro.Report{
		Engine:        "model",
		X:             []float64{1, math.Inf(1)},
		FinalResidual: math.Inf(1),
		FinalError:    math.Inf(-1),
		Errors:        []float64{math.Inf(1), 2, 0.5},
		ErrorTrace:    []repro.TimedError{{Time: 1, Error: math.Inf(1)}},
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("non-finite report failed to marshal: %v", err)
	}
	if !strings.Contains(string(data), `"Infinity"`) || !strings.Contains(string(data), `"-Infinity"`) {
		t.Fatalf("non-finite floats not string-encoded: %s", data)
	}
	var got repro.Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("non-finite round trip drifted:\n got %+v\nwant %+v", got, r)
	}
}

// TestReportJSONFromSolve: a real engine report round-trips, the decoded
// copy carries no engine detail, and the per-iteration log stays off the
// wire. The simulators keep it on their in-process result, one record per
// iteration; the model engine builds it only when core.Config.KeepRecords
// asks, which a Solve never does.
func TestReportJSONFromSolve(t *testing.T) {
	spec, _ := lassoSpec(t)
	records := func(r *repro.Report) []repro.IterationRecord {
		if d, ok := r.SimDetail(); ok {
			return d.Records
		}
		d, _ := r.SimSyncDetail()
		return d.Records
	}
	for _, engine := range []repro.Engine{repro.EngineModel, repro.EngineSim, repro.EngineSimSync} {
		res, err := repro.Solve(spec,
			repro.WithEngine(engine),
			repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 2}),
			repro.WithWorkers(4),
			repro.WithSeed(3),
			repro.WithTol(1e-9),
		)
		if err != nil {
			t.Fatal(err)
		}
		name := engine.Name()
		if d, ok := res.ModelDetail(); ok {
			if d.Records != nil || res.Iterations == 0 {
				t.Errorf("%s: %d records for %d iterations, want none unasked", name, len(d.Records), res.Iterations)
			}
		} else if recs := records(res); res.Iterations == 0 || len(recs) != res.Iterations || recs[len(recs)-1].J != res.Iterations {
			t.Errorf("%s: %d records for %d iterations", name, len(recs), res.Iterations)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("records")) {
			t.Errorf("%s: the per-iteration log is on the wire: %s", name, data)
		}
		var got repro.Report
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Engine != res.Engine || got.Converged != res.Converged ||
			got.Updates != res.Updates || !reflect.DeepEqual(got.X, res.X) {
			t.Fatalf("%s: decoded report drifted from original", name)
		}
		_, model := got.ModelDetail()
		_, sim := got.SimDetail()
		_, simSync := got.SimSyncDetail()
		if model || sim || simSync {
			t.Fatalf("%s: decoded report claims engine detail", name)
		}
	}
}

// ---------------------------------------------------------------------------
// The differential oracle: the reflective codec that WAS Report's codec until
// the one in report_json.go replaced it. It defines the wire format — what
// encoding/json does with the struct tags, floats wrapped — and the
// fixtures, corner cases and fuzz target below hold the codec to it byte for
// byte and value for value. The decoder is encoding/json too now, but over
// its own mirror struct and with its own float parsing (strconv, where the
// oracle's jsonFloat nests a json.Unmarshal per float), so the comparison
// still checks both of those.

// jsonFloat is a float64 whose JSON form survives non-finite values:
// Inf/NaN encode as the strings "Infinity", "-Infinity", "NaN" (bare JSON
// numbers cannot represent them and encoding/json refuses to emit them).
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"Infinity"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Infinity"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"Infinity"`:
		*f = jsonFloat(math.Inf(1))
		return nil
	case `"-Infinity"`:
		*f = jsonFloat(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = jsonFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

func toJSONFloats(xs []float64) []jsonFloat {
	if xs == nil {
		return nil
	}
	out := make([]jsonFloat, len(xs))
	for i, v := range xs {
		out[i] = jsonFloat(v)
	}
	return out
}

func fromJSONFloats(xs []jsonFloat) []float64 {
	if xs == nil {
		return nil
	}
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// timedErrorWire mirrors TimedError with non-finite-safe floats.
type timedErrorWire struct {
	Time  jsonFloat `json:"time"`
	Error jsonFloat `json:"error"`
}

// reportWire is Report's wire form as encoding/json sees it: the struct
// tags of repro.Report, with every float routed through jsonFloat so
// non-finite values survive.
type reportWire struct {
	Engine            string              `json:"engine"`
	X                 []jsonFloat         `json:"x"`
	Converged         bool                `json:"converged"`
	Iterations        int                 `json:"iterations"`
	Updates           int                 `json:"updates"`
	FinalResidual     jsonFloat           `json:"final_residual"`
	FinalError        jsonFloat           `json:"final_error,omitempty"`
	Errors            []jsonFloat         `json:"errors,omitempty"`
	ErrorTrace        []timedErrorWire    `json:"error_trace,omitempty"`
	Boundaries        []int               `json:"boundaries,omitempty"`
	StrictBoundaries  []int               `json:"strict_boundaries,omitempty"`
	Epochs            []int               `json:"epochs,omitempty"`
	UpdatesPerWorker  []int               `json:"updates_per_worker,omitempty"`
	MessagesSent      int64               `json:"messages_sent,omitempty"`
	MessagesDropped   int64               `json:"messages_dropped,omitempty"`
	MessagesStale     int64               `json:"messages_stale,omitempty"`
	MessagesReordered int64               `json:"messages_reordered,omitempty"`
	MessagesDuplicate int64               `json:"messages_duplicate,omitempty"`
	BytesSent         int64               `json:"bytes_sent,omitempty"`
	BytesReceived     int64               `json:"bytes_received,omitempty"`
	WorkersLost       int64               `json:"workers_lost,omitempty"`
	WorkersRejoined   int64               `json:"workers_rejoined,omitempty"`
	Resharding        int64               `json:"resharding,omitempty"`
	Time              jsonFloat           `json:"time,omitempty"`
	Elapsed           time.Duration       `json:"elapsed_ns,omitempty"`
	PerWorker         []repro.WorkerStats `json:"per_worker,omitempty"`
}

// oracleMarshal is Report.MarshalJSON as it was when reportWire was the
// codec.
func oracleMarshal(r repro.Report) ([]byte, error) {
	w := reportWire{
		Engine:            r.Engine,
		X:                 toJSONFloats(r.X),
		Converged:         r.Converged,
		Iterations:        r.Iterations,
		Updates:           r.Updates,
		FinalResidual:     jsonFloat(r.FinalResidual),
		FinalError:        jsonFloat(r.FinalError),
		Errors:            toJSONFloats(r.Errors),
		Boundaries:        r.Boundaries,
		StrictBoundaries:  r.StrictBoundaries,
		Epochs:            r.Epochs,
		UpdatesPerWorker:  r.UpdatesPerWorker,
		MessagesSent:      r.MessagesSent,
		MessagesDropped:   r.MessagesDropped,
		MessagesStale:     r.MessagesStale,
		MessagesReordered: r.MessagesReordered,
		MessagesDuplicate: r.MessagesDuplicate,
		BytesSent:         r.BytesSent,
		BytesReceived:     r.BytesReceived,
		WorkersLost:       r.WorkersLost,
		WorkersRejoined:   r.WorkersRejoined,
		Resharding:        r.Resharding,
		Time:              jsonFloat(r.Time),
		Elapsed:           r.Elapsed,
		PerWorker:         r.PerWorker,
	}
	if r.ErrorTrace != nil {
		w.ErrorTrace = make([]timedErrorWire, len(r.ErrorTrace))
		for i, te := range r.ErrorTrace {
			w.ErrorTrace[i] = timedErrorWire{Time: jsonFloat(te.Time), Error: jsonFloat(te.Error)}
		}
	}
	return json.Marshal(w)
}

// oracleUnmarshal is Report.UnmarshalJSON as it was when reportWire was the
// codec.
func oracleUnmarshal(b []byte, r *repro.Report) error {
	var w reportWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*r = repro.Report{
		Engine:            w.Engine,
		X:                 fromJSONFloats(w.X),
		Converged:         w.Converged,
		Iterations:        w.Iterations,
		Updates:           w.Updates,
		FinalResidual:     float64(w.FinalResidual),
		FinalError:        float64(w.FinalError),
		Errors:            fromJSONFloats(w.Errors),
		Boundaries:        w.Boundaries,
		StrictBoundaries:  w.StrictBoundaries,
		Epochs:            w.Epochs,
		UpdatesPerWorker:  w.UpdatesPerWorker,
		MessagesSent:      w.MessagesSent,
		MessagesDropped:   w.MessagesDropped,
		MessagesStale:     w.MessagesStale,
		MessagesReordered: w.MessagesReordered,
		MessagesDuplicate: w.MessagesDuplicate,
		BytesSent:         w.BytesSent,
		BytesReceived:     w.BytesReceived,
		WorkersLost:       w.WorkersLost,
		WorkersRejoined:   w.WorkersRejoined,
		Resharding:        w.Resharding,
		Time:              float64(w.Time),
		Elapsed:           w.Elapsed,
		PerWorker:         w.PerWorker,
	}
	if w.ErrorTrace != nil {
		r.ErrorTrace = make([]repro.TimedError, len(w.ErrorTrace))
		for i, te := range w.ErrorTrace {
			r.ErrorTrace[i] = repro.TimedError{Time: float64(te.Time), Error: float64(te.Error)}
		}
	}
	return nil
}

// reportFixtures are the wire bytes the reflective codec produced when it
// was Report's codec, with the "records" member — the per-iteration log the
// Report carried then — deleted and nothing else changed: a model-engine
// lasso n=64 report (the served job's shape), a routing report (Errors
// starting at +Inf), a sim report (ErrorTrace, Time), a dist report
// (counters, elapsed_ns), and a traced shared-engine multigrid n=7 report
// (per_worker), which the oracle wrote when per_worker came.
var reportFixtures = []string{
	"report_model_lasso64.json",
	"report_model_routing.json",
	"report_sim_lasso16.json",
	"report_dist_lasso16.json",
	"report_shared_multigrid7.json",
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameReport is reflect.DeepEqual with floats compared by bits, so NaN
// equals NaN and -0 differs from +0; nil and empty slices differ.
func sameReport(a, b repro.Report) bool {
	bits := func(xs []float64) []uint64 {
		if xs == nil {
			return nil
		}
		out := make([]uint64, len(xs))
		for i, v := range xs {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	trace := func(ts []repro.TimedError) []uint64 {
		if ts == nil {
			return nil
		}
		out := make([]uint64, 0, 2*len(ts))
		for _, te := range ts {
			out = append(out, math.Float64bits(te.Time), math.Float64bits(te.Error))
		}
		return out
	}
	scalars := func(r repro.Report) []uint64 {
		return []uint64{math.Float64bits(r.FinalResidual), math.Float64bits(r.FinalError), math.Float64bits(r.Time)}
	}
	if !reflect.DeepEqual(bits(a.X), bits(b.X)) || !reflect.DeepEqual(bits(a.Errors), bits(b.Errors)) ||
		!reflect.DeepEqual(trace(a.ErrorTrace), trace(b.ErrorTrace)) || !reflect.DeepEqual(scalars(a), scalars(b)) {
		return false
	}
	a.X, a.Errors, a.ErrorTrace, a.FinalResidual, a.FinalError, a.Time = nil, nil, nil, 0, 0, 0
	b.X, b.Errors, b.ErrorTrace, b.FinalResidual, b.FinalError, b.Time = nil, nil, nil, 0, 0, 0
	return reflect.DeepEqual(a, b)
}

// checkAgainstOracle decodes data with the new decoder and the oracle and
// requires the same verdict and, when both accept, the same value — and
// that both encoders turn that value into the same bytes.
func checkAgainstOracle(t testing.TB, data []byte) {
	t.Helper()
	var got, want repro.Report
	gotErr := got.UnmarshalJSON(data)
	wantErr := oracleUnmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decoder verdicts differ on %q:\n new:    %v\n oracle: %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !sameReport(got, want) {
		t.Fatalf("decoded values differ on %q:\n new:    %+v\n oracle: %+v", data, got, want)
	}
	enc, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	oracleEnc, err := oracleMarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, oracleEnc) {
		t.Fatalf("encoders differ on the value decoded from %q:\n new:    %s\n oracle: %s", data, enc, oracleEnc)
	}
}

// TestReportJSONFixtures: the decoder restores from every fixture exactly
// what the reflective decoder restores, with every section the fixture is
// there for present, and the encoder reproduces the fixture byte for byte —
// directly, through json.Marshal, and nested in a struct the way the
// server's Event nests it.
func TestReportJSONFixtures(t *testing.T) {
	for _, name := range reportFixtures {
		data := readFixture(t, name)
		var rep repro.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstOracle(t, data)
		if got, err := rep.MarshalJSON(); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: MarshalJSON does not reproduce the fixture (err %v)", name, err)
		}
		if got, err := json.Marshal(&rep); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: json.Marshal does not reproduce the fixture (err %v)", name, err)
		}
		nested, err := json.Marshal(struct {
			Report *repro.Report `json:"report"`
		}{&rep})
		if want := append(append([]byte(`{"report":`), data...), '}'); err != nil || !bytes.Equal(nested, want) {
			t.Errorf("%s: nested json.Marshal does not reproduce the fixture (err %v)", name, err)
		}
	}

	var lasso, routing, sim, dist, shared repro.Report
	for i, r := range []*repro.Report{&lasso, &routing, &sim, &dist, &shared} {
		if err := json.Unmarshal(readFixture(t, reportFixtures[i]), r); err != nil {
			t.Fatal(err)
		}
	}
	if lasso.Iterations != 1216 || len(lasso.X) != 64 || !lasso.Converged || len(lasso.Boundaries) == 0 {
		t.Errorf("lasso fixture lost its outcome: %d iterations, %d components, %d boundaries",
			lasso.Iterations, len(lasso.X), len(lasso.Boundaries))
	}
	if len(routing.Errors) != 286 || !math.IsInf(routing.Errors[0], 1) || math.IsInf(routing.Errors[285], 0) {
		t.Errorf("routing fixture lost its +Inf error series (%d errors)", len(routing.Errors))
	}
	if len(sim.ErrorTrace) != 84 || sim.Time != 21 || sim.MessagesSent != 252 || len(sim.UpdatesPerWorker) != 4 {
		t.Errorf("sim fixture lost its trace: %d samples, time %v", len(sim.ErrorTrace), sim.Time)
	}
	if dist.Elapsed != 18420791 || dist.BytesSent != 118654 || dist.BytesReceived != 40726 || dist.MessagesSent != 1893 {
		t.Errorf("dist fixture lost its counters: %+v", dist)
	}
	want := []repro.WorkerStats{{Elapsed: 438909, Compute: 127947, Publish: 80972, Drain: 125949, Parked: 104041, Accounts: 1},
		{Elapsed: 491021, Compute: 190174, Publish: 86903, Drain: 107849, Parked: 106095, Accounts: 2}}
	if !reflect.DeepEqual(shared.PerWorker, want) {
		t.Errorf("shared fixture lost its time split: %+v", shared.PerWorker)
	}
}

// reportCornerCases are inputs on which a decoder most easily parts ways
// with the oracle (they were written against a hand-written reader, and the
// mirror struct's float parsing and field shadowing meet most of them
// too); each is checked against the oracle (same value or both reject), and
// all of them seed the fuzz target.
var reportCornerCases = []string{
	`null`, `{}`, ` { } `, `[]`, `5`, `"report"`, `{} x`, `{}{}`, ``, `{`, `{"engine"}`, `{"engine":}`,
	`{"engine":"sim",}`, `{,"engine":"sim"}`, `{"x":[1,]}`, `{"x":[,1]}`, `{"x":[1 2]}`,
	// key matching: exact, case-folded (ASCII and the two Unicode folds onto
	// ASCII letters), escaped, unknown, empty
	`{"ENGINE":"a","Iterations":3,"X":[1],"Elapsed_NS":7}`, `{"\u0065ngine":"e"}`, `{"iteration\u017f":4}`,
	`{"WOR\u212aERS_LOST":2,"error_trace":[{"\u212a":1,"TIME":2,"error":9}]}`, `{"":1,"engine ":"x","engin":"y"}`,
	`{"unknown":{"a":[1,{"b":null}],"c":"\u00e9\ud83d\ude00"},"updates":2}`, `{"unknown":[1,}`, `{"unknown":tru}`,
	`{"unknown":"\x"}`, `{"unknown":"` + "\x01" + `"}`, `{"unknown":01}`, `{"unknown":1.}`, `{"unknown":-}`, `{"unknown":1e}`,
	// strings
	`{"engine":"a\"b\\c\/d\b\f\n\r\t\u00e9"}`, `{"engine":"` + "\xff\xfe" + `"}`, `{"engine":"\ud800"}`, `{"engine":"<>&"}`,
	`{"engine":null}`, `{"engine":5}`, `{"engine":"a","engine":null}`, `{"engine":"unterminated}`,
	// numbers
	`{"iterations":-0}`, `{"iterations":1.0}`, `{"iterations":1e2}`, `{"iterations":9223372036854775807}`,
	`{"iterations":9223372036854775808}`, `{"iterations":-9223372036854775808}`, `{"iterations":"5"}`, `{"iterations":01}`,
	`{"iterations":5,"iterations":null}`, `{"iterations":+1}`, `{"iterations":.5}`, `{"iterations":1.}`,
	`{"final_residual":-0}`, `{"final_residual":-0.0,"time":-0,"final_error":-0}`, `{"final_residual":1e999}`,
	`{"final_residual":1E-400}`, `{"final_residual":0.1e+1}`, `{"final_residual":5e-324}`, `{"final_residual":1e21}`,
	`{"final_residual":1e-7}`, `{"final_residual":123456789012345678901234567890}`,
	`{"final_residual":"Infinity","final_error":"-Infinity","time":"NaN"}`, `{"final_residual":"infinity"}`,
	`{"final_residual":"Inf\u0069nity"}`, `{"final_residual":"NaN "}`, `{"final_residual":""}`, `{"final_residual":[1]}`,
	`{"final_residual":{}}`, `{"final_residual":true}`, `{"final_residual":3,"final_residual":null}`,
	`{"converged":true,"converged":null}`, `{"converged":1}`, `{"converged":"true"}`, `{"converged":falsey}`,
	`{"elapsed_ns":1.5}`, `{"elapsed_ns":-3}`, `{"messages_sent":1e3}`,
	// slices: null vs empty, merging of repeated keys, stale elements
	`{"x":null}`, `{"x":[]}`, `{"x":[1],"x":null}`, `{"x":[1],"x":[]}`, `{"errors":[]}`, `{"boundaries":[]}`,
	`{"x":[1,2,3],"x":[null]}`, `{"x":[1,2,3],"x":[null],"x":[null,null,null]}`,
	`{"boundaries":[1,2,3],"boundaries":[null]}`, `{"boundaries":[1,2,3],"boundaries":[null],"boundaries":[null,null,null,null]}`,
	`{"boundaries":[1,2,3],"boundaries":[],"boundaries":[null,null]}`, `{"boundaries":[1.5]}`, `{"boundaries":5}`, `{"boundaries":{}}`,
	`{"x":["NaN","Infinity",null,-1e-9]}`, `{"x":[[1]]}`, `{"x":"NaN"}`,
	// "records" was a member once; it is an unknown key now, skipped whatever
	// well-formed value it holds and an error when that value is not JSON
	`{"records":[{"j":5,"s":[1,2],"min_label":3,"worker":1}],"records":[{"worker":7,"s":[null]}]}`,
	`{"records":[null,{"s":null},{"s":[]},5]}`, `{"records":null}`, `{"records":[]}`, `{"records":{}}`, `{"records":"x"}`,
	`{"records":[{"j":1,"extra":{"deep":[[[]]]}}]}`, `{"records":[{"j":1,"s":[0,]}]}`, `{"records":[{"j":01}]}`, `{"records":[{"j":1}`,
	`{"error_trace":[{"time":1,"error":"Infinity"},null,{"Time":2,"ERROR":null}]}`, `{"error_trace":[{"time":1}],"error_trace":[{"error":2}]}`,
	`{"error_trace":[]}`, `{"error_trace":null}`, `{"error_trace":[[]]}`,
}

func TestReportJSONCornerCasesMatchOracle(t *testing.T) {
	for _, in := range reportCornerCases {
		checkAgainstOracle(t, []byte(in))
	}
	// Nesting: encoding/json refuses more than 10000 open containers, the
	// top-level object included, so 9999 under an unknown key is the last
	// depth it accepts.
	for _, depth := range []int{9999, 10000} {
		checkAgainstOracle(t, []byte(`{"unknown":`+strings.Repeat("[", depth)+strings.Repeat("]", depth)+`}`))
	}
}

// The encoders must agree on every value, not only on what the decoder can
// produce: every field set, fields empty but non-nil, floats on either side
// of each formatting switch, and an engine name that needs escaping.
func TestReportJSONEncoderMatchesOracle(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1e-9, 1e-10, 1.5e-300, 5e-324,
		1e20, 1e21, 9.99999999999999e20, 1.7976931348623157e308, 123456789.125, 1.0 / 3, -2.5e-8,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	reports := []repro.Report{
		{},
		goldenReport(),
		{Engine: "a\"b<c>&\u00e9\u2028\x01", X: []float64{}, Errors: []float64{}, Boundaries: []int{}, ErrorTrace: []repro.TimedError{}},
		{X: floats, Errors: floats, Boundaries: []int{-5, 0, 1 << 40}},
		{Elapsed: -5, MessagesSent: -1, Iterations: -7, Updates: math.MinInt64},
	}
	for _, f := range floats {
		reports = append(reports, repro.Report{FinalResidual: f, FinalError: f, Time: f,
			ErrorTrace: []repro.TimedError{{Time: f, Error: -f}}})
	}
	for _, r := range reports {
		want, err := oracleMarshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("encoders differ on %+v (err %v):\n new:    %s\n oracle: %s", r, err, got, want)
		}
		checkAgainstOracle(t, want)
	}
}

// A payload written when the Report still carried the per-iteration log
// decodes to what it decodes to without the member; the member is skipped,
// not ignored, so malformed JSON inside it is still an error.
func TestReportJSONSkipsRecordsMember(t *testing.T) {
	const head, tail = `{"engine":"model","x":[1.5],"epochs":[2,4]`, `,"updates":3}`
	var with, without repro.Report
	if err := json.Unmarshal([]byte(head+tail), &without); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(head+`,"records":[{"j":1,"s":[0,1],"min_label":0,"worker":2},{"j":2,"s":[],"min_label":1,"worker":0}]`+tail), &with); err != nil {
		t.Fatal(err)
	}
	if !sameReport(with, without) || with.Updates != 3 || len(with.Epochs) != 2 {
		t.Fatalf("a records member changed the decoded report:\n with:    %+v\n without: %+v", with, without)
	}
	for _, records := range []string{`[{"j":1,"s":[0,]}]`, `[{"j":01}]`, `[{"j":1,"s":[0,1]`, `[{"j" 1}]`} {
		if err := with.UnmarshalJSON([]byte(head + `,"records":` + records + tail)); err == nil {
			t.Errorf("malformed records member %s decoded", records)
		}
	}
}

// A failed decode must leave the target as it was.
func TestReportUnmarshalErrorLeavesTargetUntouched(t *testing.T) {
	r := goldenReport()
	if err := json.Unmarshal([]byte(`{"engine":"model","x":[1,2,"oops"]}`), &r); err == nil {
		t.Fatal("malformed report decoded")
	}
	if !reflect.DeepEqual(r, goldenReport()) {
		t.Fatalf("failed decode modified the target: %+v", r)
	}
}

// The decoder parses each float once, with strconv: decoding the served
// job's report (lasso n=64) allocates what encoding/json's slices and one
// copy per float array cost, not a nested json.Unmarshal per float, as the
// oracle's jsonFloat does (162 allocations). The serving benchmark's
// load generator decodes one such report per job.
func TestReportUnmarshalAllocs(t *testing.T) {
	data := readFixture(t, "report_model_lasso64.json")
	var r repro.Report
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 33 {
		t.Fatalf("decoding the lasso n=64 report: %v allocations, want <= 33", allocs)
	}
}

// retainedBytes is the memory a decoded report holds on to, by capacity.
func retainedBytes(r *repro.Report) int {
	return 8*(cap(r.X)+cap(r.Errors)+cap(r.Boundaries)+cap(r.StrictBoundaries)+cap(r.Epochs)+cap(r.UpdatesPerWorker)) +
		16*cap(r.ErrorTrace) + 48*cap(r.PerWorker) + len(r.Engine)
}

// FuzzReportUnmarshal: on any input the decoder gives the oracle's verdict
// and value (checkAgainstOracle), never panics, and never holds more than a
// constant factor of the input — nothing is sized from the input ahead of
// reading it, so a huge array costs what its bytes cost.
// The fuzzer's default minute of minimization per new input crawls through
// the KB-sized fixture seeds; run it as
//
//	go test . -run '^$' -fuzz FuzzReportUnmarshal -fuzztime 30s -fuzzminimizetime 1s
func FuzzReportUnmarshal(f *testing.F) {
	for _, name := range reportFixtures {
		f.Add(readFixture(f, name))
	}
	for _, in := range reportCornerCases {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
		var r repro.Report
		if r.UnmarshalJSON(data) != nil {
			return
		}
		// The densest input is a trace sample per 3 bytes ("{},", 16 bytes
		// each) in a slice append may have doubled: 11x the input; 64x is
		// generous and still constant.
		if held, limit := retainedBytes(&r), 64*len(data)+64; held > limit {
			t.Fatalf("decoding %d bytes retained %d bytes (limit %d)", len(data), held, limit)
		}
	})
}
