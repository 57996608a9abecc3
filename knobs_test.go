package repro_test

import (
	"flag"
	"strings"
	"testing"
	"time"

	"repro"
)

// The knob table is the single source of truth for the tuning and fault
// knobs on every surface. These tests pin the table's internal consistency
// and the flag-side binding; the server-side binding is pinned in
// internal/server.

func TestKnobTableWellFormed(t *testing.T) {
	table := repro.KnobTable()
	if len(table) == 0 {
		t.Fatal("empty knob table")
	}
	flags := map[string]bool{}
	jsons := map[string]bool{}
	for _, k := range table {
		if k.Flag == "" || k.JSON == "" || k.Help == "" {
			t.Errorf("knob %+v: empty flag, json or help", k)
		}
		if k.Group != "tuning" && k.Group != "faults" && k.Group != "elastic" && k.Group != "dist" {
			t.Errorf("knob %s: unknown group %q", k.Flag, k.Group)
		}
		if flags[k.Flag] {
			t.Errorf("duplicate flag name %q", k.Flag)
		}
		if jsons[k.JSON] {
			t.Errorf("duplicate JSON field %q", k.JSON)
		}
		flags[k.Flag] = true
		jsons[k.JSON] = true
		// Every default must parse by the knob's own rule.
		if _, err := k.Option(k.Default); err != nil {
			t.Errorf("knob %s: default %q does not validate: %v", k.Flag, k.Default, err)
		}
		// Lookup by either name returns the same entry.
		if kf, ok := repro.KnobByFlag(k.Flag); !ok || kf.JSON != k.JSON {
			t.Errorf("KnobByFlag(%q) mismatch", k.Flag)
		}
		if kj, ok := repro.KnobByJSON(k.JSON); !ok || kj.Flag != k.Flag {
			t.Errorf("KnobByJSON(%q) mismatch", k.JSON)
		}
	}
	// The table must cover exactly the knobs the API groups expose.
	for _, want := range []string{"intra-parallel", "gram-precompute",
		"drop", "reorder", "maxdelay",
		"heartbeat", "checkpoint", "rejoin-wait", "checkpoint-file",
		"topology", "delta"} {
		if !flags[want] {
			t.Errorf("knob table missing flag %q", want)
		}
	}
}

// RegisterKnobFlags must register exactly the table's flags (per group),
// with the table's defaults — the CLI surface cannot drift from the table.
func TestRegisterKnobFlagsMatchesTable(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	repro.RegisterKnobFlags(fs)
	for _, k := range repro.KnobTable() {
		f := fs.Lookup(k.Flag)
		if f == nil {
			t.Errorf("flag -%s not registered", k.Flag)
			continue
		}
		if f.DefValue != k.Default {
			t.Errorf("flag -%s default %q != table default %q", k.Flag, f.DefValue, k.Default)
		}
		if f.Usage != k.Help {
			t.Errorf("flag -%s help drifted from table", k.Flag)
		}
	}
	registered := 0
	fs.VisitAll(func(*flag.Flag) { registered++ })
	if want := len(repro.KnobTable()); registered != want {
		t.Errorf("registered %d flags, table has %d", registered, want)
	}

	// Group filtering registers only that group.
	ffs := flag.NewFlagSet("y", flag.ContinueOnError)
	repro.RegisterKnobFlags(ffs, "faults")
	if ffs.Lookup("drop") == nil || ffs.Lookup("intra-parallel") != nil {
		t.Error("group filter did not restrict registration to the faults group")
	}
	// So does naming one knob by its flag (dist-worker takes -rejoin-wait
	// alone).
	one := flag.NewFlagSet("z", flag.ContinueOnError)
	repro.RegisterKnobFlags(one, "rejoin-wait")
	n := 0
	one.VisitAll(func(*flag.Flag) { n++ })
	if one.Lookup("rejoin-wait") == nil || n != 1 {
		t.Errorf("naming -rejoin-wait registered %d flags", n)
	}
}

// Explicitly-set flags — and only those — become options; the resulting
// Spec carries exactly the set values on the fields the table routes to.
func TestKnobSetOptionsAndValues(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ks := repro.RegisterKnobFlags(fs)
	if err := fs.Parse([]string{"-delta", "1e-9", "-intra-parallel", "4",
		"-gram-precompute=false", "-drop", "0.25", "-maxdelay", "10ms"}); err != nil {
		t.Fatal(err)
	}
	spec, err := ks.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.DeltaThreshold != 1e-9 || spec.Tuning.IntraParallelism != 4 {
		t.Errorf("delta %v tuning %+v, want delta 1e-9 IntraParallelism 4", spec.DeltaThreshold, spec.Tuning)
	}
	if spec.Tuning.GramPrecomputed() {
		t.Error("gram-precompute=false not applied")
	}
	if spec.DropProb != 0.25 || spec.MaxLinkDelay != 10*time.Millisecond {
		t.Errorf("faults = %+v, want drop 0.25 maxdelay 10ms", spec.Faults())
	}
	if spec.ReorderProb != 0 {
		t.Errorf("unset -reorder leaked %v into the spec", spec.ReorderProb)
	}
	vals, err := ks.Values()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"delta_threshold": "1e-9", "intra_parallel": "4",
		"gram_precompute": "false", "drop_prob": "0.25", "max_link_delay": "10ms"}
	if len(vals) != len(want) {
		t.Errorf("Values() = %v, want %v", vals, want)
	}
	for k, v := range want {
		if vals[k] != v {
			t.Errorf("Values()[%s] = %q, want %q", k, vals[k], v)
		}
	}

	// Invalid values surface as errors, not silent defaults.
	bad := flag.NewFlagSet("bad", flag.ContinueOnError)
	bks := repro.RegisterKnobFlags(bad)
	if err := bad.Parse([]string{"-drop", "1.5"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bks.Options(); err == nil || !strings.Contains(err.Error(), "[0,1]") {
		t.Errorf("out-of-range drop accepted: %v", err)
	}
	// The dist group writes the two dist-engine fields; a negative or NaN
	// threshold (and a NaN probability) is refused at the table.
	dfs := flag.NewFlagSet("dist", flag.ContinueOnError)
	dks := repro.RegisterKnobFlags(dfs, "dist")
	if err := dfs.Parse([]string{"-topology", "mesh", "-delta", "1e-9"}); err != nil {
		t.Fatal(err)
	}
	if spec, err := dks.Spec(); err != nil || spec.Topology != "mesh" || spec.DeltaThreshold != 1e-9 {
		t.Errorf("dist knobs wrote topology %q delta %v (%v), want mesh 1e-9", spec.Topology, spec.DeltaThreshold, err)
	}
	for _, bad := range [][2]string{{"delta", "-1"}, {"delta", "NaN"}, {"drop", "NaN"}} {
		k, _ := repro.KnobByFlag(bad[0])
		if _, err := k.Option(bad[1]); err == nil {
			t.Errorf("-%s %s accepted", bad[0], bad[1])
		}
	}
}

// JSONValue and KnobValueFromJSON are inverse: the wire form round-trips
// back to the flag form for every kind.
func TestKnobJSONRoundTrip(t *testing.T) {
	cases := map[string]string{
		"intra-parallel": "8", "gram-precompute": "false",
		"drop": "0.5", "reorder": "0.125", "maxdelay": "250ms",
		"heartbeat": "20ms", "checkpoint-file": "/tmp/ckpt.bin",
		"topology": "mesh", "delta": "1e-9",
	}
	for flagName, val := range cases {
		k, ok := repro.KnobByFlag(flagName)
		if !ok {
			t.Fatalf("no knob %q", flagName)
		}
		raw, err := k.JSONValue(val)
		if err != nil {
			t.Fatalf("%s: JSONValue(%q): %v", flagName, val, err)
		}
		back, err := repro.KnobValueFromJSON(k, raw)
		if err != nil {
			t.Fatalf("%s: KnobValueFromJSON(%s): %v", flagName, raw, err)
		}
		if back != val {
			t.Errorf("%s: %q -> %s -> %q did not round-trip", flagName, val, raw, back)
		}
	}
	// Durations must be quoted on the wire; a bare literal is rejected.
	k, _ := repro.KnobByFlag("maxdelay")
	if _, err := repro.KnobValueFromJSON(k, []byte("10")); err == nil {
		t.Error("bare-number duration accepted from JSON")
	}
	// String knobs too.
	k, _ = repro.KnobByFlag("checkpoint-file")
	if _, err := repro.KnobValueFromJSON(k, []byte("10")); err == nil {
		t.Error("bare-literal string knob accepted from JSON")
	}
}

// WithElastic and the elastic knob-table entries must write the same one
// field.
func TestWithElasticMatchesKnobTable(t *testing.T) {
	e := repro.Elastic{
		HeartbeatEvery:  20 * time.Millisecond,
		CheckpointEvery: 80 * time.Millisecond,
		MaxRejoinWait:   2 * time.Second,
		CheckpointPath:  "/tmp/ckpt.bin",
	}
	grouped := repro.NewSpec(nil, repro.WithElastic(e))
	if grouped.Elastic != e {
		t.Errorf("WithElastic wrote %+v, want %+v", grouped.Elastic, e)
	}
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ks := repro.RegisterKnobFlags(fs, "elastic")
	if err := fs.Parse([]string{"-heartbeat", "20ms", "-checkpoint", "80ms",
		"-rejoin-wait", "2s", "-checkpoint-file", "/tmp/ckpt.bin"}); err != nil {
		t.Fatal(err)
	}
	viaTable, err := ks.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if viaTable.Elastic != e {
		t.Errorf("knob table wrote %+v, want %+v", viaTable.Elastic, e)
	}
}

// WithFaults must write the Execution fields the engines read, and
// Faults() must read them back as one unit.
func TestWithFaultsWritesExecutionFields(t *testing.T) {
	f := repro.Faults{DropProb: 0.1, ReorderProb: 0.2, MaxLinkDelay: 5 * time.Millisecond}
	grouped := repro.NewSpec(nil, repro.WithFaults(f))
	if grouped.DropProb != 0.1 || grouped.ReorderProb != 0.2 || grouped.MaxLinkDelay != 5*time.Millisecond {
		t.Errorf("WithFaults wrote drop=%v reorder=%v delay=%v, want %+v",
			grouped.DropProb, grouped.ReorderProb, grouped.MaxLinkDelay, f)
	}
	if grouped.Faults() != f {
		t.Errorf("Faults() read back %+v, want %+v", grouped.Faults(), f)
	}
}
