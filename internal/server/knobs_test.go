package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/operators"
)

// The server's knob surface IS the knob table: every table entry must be
// accepted as a top-level /v1/solve field under its JSON name, round-trip
// through the client's marshaling, and validate at admission — while
// unknown fields keep their strict 400.

func TestDecodeJobRequestSplitsKnobs(t *testing.T) {
	body := []byte(`{"scenario":"lasso","n":16,"reorder_prob":0.125,"intra_parallel":4,` +
		`"gram_precompute":false,"drop_prob":0.25,"max_link_delay":"10ms"}`)
	req, err := DecodeJobRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if req.Scenario != "lasso" || req.N != 16 {
		t.Fatalf("core fields lost: %+v", req)
	}
	want := map[string]string{"reorder_prob": "0.125", "intra_parallel": "4",
		"gram_precompute": "false", "drop_prob": "0.25", "max_link_delay": "10ms"}
	if len(req.Knobs) != len(want) {
		t.Fatalf("knobs = %v, want %v", req.Knobs, want)
	}
	for k, v := range want {
		if req.Knobs[k] != v {
			t.Errorf("knob %s = %q, want %q", k, req.Knobs[k], v)
		}
	}

	// Unknown fields are still a hard error naming the field — knobs did
	// not loosen the schema, and a knob that left the table (block_size)
	// is unknown like any other.
	for _, field := range []string{"blocksize", "block_size"} {
		_, err := DecodeJobRequest([]byte(`{"scenario":"lasso","` + field + `":8}`))
		if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("unknown field %s: err = %v", field, err)
		}
	}
	// A bare-number duration is rejected at decode, with the field named.
	_, err = DecodeJobRequest([]byte(`{"scenario":"lasso","max_link_delay":10}`))
	if err == nil || !strings.Contains(err.Error(), "max_link_delay") {
		t.Errorf("bare duration: err = %v", err)
	}
}

func TestJobRequestMarshalRoundTrip(t *testing.T) {
	req := JobRequest{
		Scenario: "ridge", N: 32, Seed: 9,
		Knobs: map[string]string{"intra_parallel": "4", "gram_precompute": "false",
			"max_link_delay": "5ms"},
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// Knob fields appear as top-level JSON fields in wire syntax.
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["intra_parallel"]) != "4" || string(m["gram_precompute"]) != "false" {
		t.Errorf("numeric/bool knobs not bare literals: %s", b)
	}
	if string(m["max_link_delay"]) != `"5ms"` {
		t.Errorf("duration knob not a quoted string: %s", b)
	}
	back, err := DecodeJobRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenario != req.Scenario || back.N != req.N || back.Seed != req.Seed {
		t.Fatalf("core fields did not round-trip: %+v", back)
	}
	if len(back.Knobs) != len(req.Knobs) {
		t.Fatalf("knobs did not round-trip: %v vs %v", back.Knobs, req.Knobs)
	}
	for k, v := range req.Knobs {
		if back.Knobs[k] != v {
			t.Errorf("knob %s: %q != %q after round-trip", k, back.Knobs[k], v)
		}
	}
}

// Every knob in the table must be accepted end to end over HTTP at its
// default value — if someone adds a knob whose JSON name the server cannot
// take, or renames one side, this fails. This is the server half of the
// flag<->JSON drift gate (the flag half lives in the root package tests).
func TestEveryTableKnobAcceptedOverHTTP(t *testing.T) {
	_, c := testServer(t, Config{Workers: 2, QueueDepth: 4})
	for _, k := range repro.KnobTable() {
		k := k
		t.Run(k.JSON, func(t *testing.T) {
			out, err := c.Solve(context.Background(), JobRequest{
				Scenario: "lasso", N: 16, Seed: 7,
				Knobs: map[string]string{k.JSON: k.Default},
			})
			if err != nil {
				t.Fatalf("knob %s at default %q rejected: %v", k.JSON, k.Default, err)
			}
			if out.JobErr != "" {
				t.Fatalf("knob %s job failed: %s", k.JSON, out.JobErr)
			}
			if out.Report == nil || !out.Report.Converged {
				t.Fatalf("knob %s job did not converge", k.JSON)
			}
		})
	}
}

// A tuned job must solve and report bit-identically to the untuned job
// under the bit-preserving knob (intra_parallel), and still converge under
// the lean Gram form. The pair runs the lean form on one sim worker: every
// update then evaluates all n = 384 rows against 4n samples, above
// operators.ParallelWork, so the tuned job really fans out through the
// server's pooled scratches. (A Gram slab reaches the threshold only from
// n = 725, whose Gram build takes half a minute under -race.)
func TestServeTunedJobs(t *testing.T) {
	const n = 384
	if n*4*n < operators.ParallelWork {
		t.Fatalf("n = %d: a full-height lean slab stays below the fan-out threshold", n)
	}
	_, c := testServer(t, Config{Workers: 2, QueueDepth: 4})
	tol := 1e-6
	req := JobRequest{Scenario: "lasso", N: n, Seed: 7, Engine: "sim", Workers: 1, Tol: &tol,
		Knobs: map[string]string{"gram_precompute": "false"}}
	base, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if base.Report == nil || !base.Report.Converged {
		t.Fatal("untuned job did not converge")
	}
	req.Knobs = map[string]string{"gram_precompute": "false", "intra_parallel": "4"}
	tuned, err := c.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Report == nil || !tuned.Report.Converged {
		t.Fatal("tuned job did not converge")
	}
	if tuned.Report.Updates != base.Report.Updates ||
		tuned.Report.FinalResidual != base.Report.FinalResidual {
		t.Errorf("bit-preserving knobs changed the trajectory: updates %d vs %d, residual %v vs %v",
			tuned.Report.Updates, base.Report.Updates,
			tuned.Report.FinalResidual, base.Report.FinalResidual)
	}
	lean, err := c.Solve(context.Background(), JobRequest{
		Scenario: "lasso", N: 96, Seed: 7,
		Knobs: map[string]string{"gram_precompute": "false"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lean.Report == nil || !lean.Report.Converged {
		t.Fatal("lean-Gram job did not converge")
	}
}

// Invalid knob values are 400s at admission — never a queue slot, never a
// 200 stream with a late error.
func TestServeKnobValidation(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 1})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"negative intra parallel", `{"scenario":"lasso","intra_parallel":-4}`, "below minimum"},
		{"removed block size", `{"scenario":"lasso","block_size":64}`, `unknown field "block_size"`},
		{"drop out of range", `{"scenario":"lasso","drop_prob":1.5}`, "[0,1]"},
		{"bad bool", `{"scenario":"lasso","gram_precompute":"maybe"}`, "boolean"},
		{"negative delay", `{"scenario":"lasso","max_link_delay":"-5ms"}`, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := c.http().Post(c.Base+"/v1/solve", "application/json",
				bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var msg bytes.Buffer
			msg.ReadFrom(resp.Body)
			if !strings.Contains(msg.String(), tc.want) {
				t.Fatalf("body %q does not mention %q", msg.String(), tc.want)
			}
		})
	}
}

// FuzzDecodeJobRequest: the /v1/solve body parser never panics, and a body it
// accepts is a fixed point of the wire form — it re-marshals, and the
// re-marshalled bytes decode to an equal JobRequest.
func FuzzDecodeJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"lasso","n":32,"seed":9,"engine":"dist","workers":4,"tol":1e-9}`,
		`{"scenario":"lasso","intra_parallel":4,"gram_precompute":false,"drop_prob":0.05}`, // knobs as bare literals
		`{"scenario":"lasso","intra_parallel":"4","gram_precompute":"true"}`,               // as quoted strings
		`{"scenario":"lasso","max_link_delay":"5ms","checkpoint_file":"/tmp/ck"}`,
		`{"scenario":"lasso","max_link_delay":5}`, // a duration as a bare number
		`null`,
		`{"scenario":"lasso","scenario":"ridge","intra_parallel":1,"intra_parallel":2}`, // duplicate keys
		`{"scenario":"lasso","bogus":1}`,                                                // an unknown field
		`{"scenario":"lasso","intra_parallel":null}`,                                    // was accepted, then failed to marshal
		// Flag syntax that is no JSON literal: marshalled bare, these broke the wire.
		`{"scenario":"lasso","intra_parallel":"+5","gram_precompute":"T","drop_prob":".5"}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeJobRequest(body)
		if err != nil {
			return
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted body %q does not re-marshal: %v", body, err)
		}
		back, err := DecodeJobRequest(wire)
		if err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("body %q: %+v re-marshalled to %s, which decodes to %+v, %v", body, req, wire, back, err)
		}
	})
}
