package repro

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"strconv"
	"time"
)

// The knob table: every tuning and fault knob is declared exactly ONCE
// here — CLI flag name, server JSON field, kind, default, help and its
// application to a Spec. cmd/asyncsolve registers flags from this table,
// the server decodes /v1/solve job fields from it, and the load generator
// marshals them back — so the three surfaces cannot drift. Core job fields
// (scenario, engine, n, ...) are not knobs and stay with their owners.

// KnobKind is the value type of a knob.
type KnobKind int

const (
	KnobInt KnobKind = iota
	KnobFloat
	KnobBool
	KnobDuration
	KnobString
)

// Knob is one tuning or fault knob: its name on every surface, its type and
// default, and how a string-form value applies to a Spec.
type Knob struct {
	// Flag is the CLI flag name (asyncsolve, dist-coordinator, load).
	Flag string
	// JSON is the field name in the server's /v1/solve job request.
	JSON string
	// Group is "tuning", "faults", "elastic" or "dist".
	Group string
	// Kind is the value type; it decides flag-value and JSON syntax.
	Kind KnobKind
	// Default is the default in flag syntax, for help text; a knob left at
	// its default is simply not applied.
	Default string
	// Help is the one-line flag/field description.
	Help string

	apply func(s *Spec, value string) error
}

// KnobTable returns the full knob table (shared backing array; treat it as
// read-only).
func KnobTable() []Knob { return knobTable }

var knobTable = []Knob{
	{
		Flag: "intra-parallel", JSON: "intra_parallel", Group: "tuning", Kind: KnobInt, Default: "0",
		Help:  "goroutine lanes for large block evaluations; 0 or 1 = serial",
		apply: intKnob("intra-parallel", 0, func(s *Spec, v int) { s.Tuning.IntraParallelism = v }),
	},
	{
		Flag: "gram-precompute", JSON: "gram_precompute", Group: "tuning", Kind: KnobBool, Default: "true",
		Help:  "precompute the LeastSquares Gram matrix at scenario build; false = lean residual form",
		apply: boolKnob("gram-precompute", func(s *Spec, v bool) { s.Tuning.GramPrecompute = &v }),
	},
	{
		Flag: "drop", JSON: "drop_prob", Group: "faults", Kind: KnobFloat, Default: "0",
		Help:  "per-link message drop probability",
		apply: floatKnob("drop", 1, func(s *Spec, v float64) { s.DropProb = v }),
	},
	{
		Flag: "reorder", JSON: "reorder_prob", Group: "faults", Kind: KnobFloat, Default: "0",
		Help:  "per-link message reorder probability",
		apply: floatKnob("reorder", 1, func(s *Spec, v float64) { s.ReorderProb = v }),
	},
	{
		Flag: "maxdelay", JSON: "max_link_delay", Group: "faults", Kind: KnobDuration, Default: "0s",
		Help:  "per-link max injected transit delay (e.g. 10ms)",
		apply: durationKnob("maxdelay", func(s *Spec, v time.Duration) { s.MaxLinkDelay = v }),
	},
	{
		Flag: "heartbeat", JSON: "heartbeat_every", Group: "elastic", Kind: KnobDuration, Default: "0s",
		Help:  "dist worker heartbeat period: a link silent for max(6x this, 200ms) is a lost worker; 0 = only a failed link is",
		apply: durationKnob("heartbeat", func(s *Spec, v time.Duration) { s.Elastic.HeartbeatEvery = v }),
	},
	{
		Flag: "checkpoint", JSON: "checkpoint_every", Group: "elastic", Kind: KnobDuration, Default: "0s",
		Help:  "dist worker shard-checkpoint period; needs -heartbeat; 0 = 4x heartbeat",
		apply: durationKnob("checkpoint", func(s *Spec, v time.Duration) { s.Elastic.CheckpointEvery = v }),
	},
	{
		Flag: "rejoin-wait", JSON: "max_rejoin_wait", Group: "elastic", Kind: KnobDuration, Default: "0s",
		Help:  "max time a dist worker retries dial-and-register (capped backoff with jitter); 0 = 10s",
		apply: durationKnob("rejoin-wait", func(s *Spec, v time.Duration) { s.Elastic.MaxRejoinWait = v }),
	},
	{
		Flag: "checkpoint-file", JSON: "checkpoint_file", Group: "elastic", Kind: KnobString, Default: "",
		Help:  "file the dist coordinator persists its assembled checkpoint to; needs -heartbeat",
		apply: stringKnob(func(s *Spec, v string) { s.Elastic.CheckpointPath = v }),
	},
	{
		Flag: "topology", JSON: "topology", Group: "dist", Kind: KnobString, Default: "",
		Help:  "dist-engine data plane: star (coordinator relay) | mesh (worker-to-worker links); empty = star",
		apply: stringKnob(func(s *Spec, v string) { s.Topology = v }),
	},
	{
		Flag: "delta", JSON: "delta_threshold", Group: "dist", Kind: KnobFloat, Default: "0",
		Help:  "dist-engine flexible-communication threshold: ship only components that moved more than this since last shipped",
		apply: floatKnob("delta", math.Inf(1), func(s *Spec, v float64) { s.DeltaThreshold = v }),
	},
}

func intKnob(name string, min int, set func(*Spec, int)) func(*Spec, string) error {
	return func(s *Spec, value string) error {
		v, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("repro: knob %s: %q is not an integer", name, value)
		}
		if v < min {
			return fmt.Errorf("repro: knob %s: %d below minimum %d", name, v, min)
		}
		set(s, v)
		return nil
	}
}

func boolKnob(name string, set func(*Spec, bool)) func(*Spec, string) error {
	return func(s *Spec, value string) error {
		v, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("repro: knob %s: %q is not a boolean", name, value)
		}
		set(s, v)
		return nil
	}
}

// floatKnob accepts a number in [0, max]; NaN is in no range.
func floatKnob(name string, max float64, set func(*Spec, float64)) func(*Spec, string) error {
	return func(s *Spec, value string) error {
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("repro: knob %s: %q is not a number", name, value)
		}
		if !(v >= 0 && v <= max) {
			return fmt.Errorf("repro: knob %s: %v outside [0,%v]", name, v, max)
		}
		set(s, v)
		return nil
	}
}

func durationKnob(name string, set func(*Spec, time.Duration)) func(*Spec, string) error {
	return func(s *Spec, value string) error {
		v, err := time.ParseDuration(value)
		if err != nil {
			return fmt.Errorf("repro: knob %s: %q is not a duration (try 10ms)", name, value)
		}
		if v < 0 {
			return fmt.Errorf("repro: knob %s: negative duration %v", name, v)
		}
		set(s, v)
		return nil
	}
}

func stringKnob(set func(*Spec, string)) func(*Spec, string) error {
	return func(s *Spec, value string) error {
		set(s, value)
		return nil
	}
}

// Apply parses value (flag syntax) and applies the knob to s.
func (k Knob) Apply(s *Spec, value string) error { return k.apply(s, value) }

// Option validates value eagerly and returns the Spec option applying it.
func (k Knob) Option(value string) (Option, error) {
	var probe Spec
	if err := k.apply(&probe, value); err != nil {
		return nil, err
	}
	return func(s *Spec) { k.apply(s, value) }, nil
}

// KnobByJSON looks a knob up by its server JSON field name.
func KnobByJSON(name string) (Knob, bool) {
	for _, k := range knobTable {
		if k.JSON == name {
			return k, true
		}
	}
	return Knob{}, false
}

// KnobByFlag looks a knob up by its CLI flag name.
func KnobByFlag(name string) (Knob, bool) {
	for _, k := range knobTable {
		if k.Flag == name {
			return k, true
		}
	}
	return Knob{}, false
}

// JSONValue converts a flag-syntax knob value into its JSON wire form:
// numeric and boolean knobs as bare literals, durations and strings as
// quoted strings — as is any flag spelling JSON has no literal for ("+5",
// "T", ".5"), which KnobValueFromJSON takes back quoted.
func (k Knob) JSONValue(value string) (json.RawMessage, error) {
	var probe Spec
	if err := k.apply(&probe, value); err != nil {
		return nil, err
	}
	if k.Kind == KnobDuration || k.Kind == KnobString || !json.Valid([]byte(value)) {
		return json.Marshal(value)
	}
	return json.RawMessage(value), nil
}

// KnobValueFromJSON converts a knob's JSON wire value back to flag syntax,
// accepting quoted forms for every kind (durations require them).
func KnobValueFromJSON(k Knob, raw json.RawMessage) (string, error) {
	if len(raw) > 0 && raw[0] == '"' {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return "", fmt.Errorf("repro: knob field %s: %v", k.JSON, err)
		}
		return s, nil
	}
	if k.Kind == KnobDuration {
		return "", fmt.Errorf("repro: knob field %s: durations are JSON strings (try \"10ms\")", k.JSON)
	}
	if k.Kind == KnobString {
		return "", fmt.Errorf("repro: knob field %s: expected a JSON string", k.JSON)
	}
	return string(raw), nil
}

// KnobSet is the flag-side binding of the knob table: RegisterKnobFlags
// installs one flag per knob on a FlagSet, and after parsing, Options
// returns a Spec option for every flag the user explicitly set.
type KnobSet struct {
	fs     *flag.FlagSet
	groups map[string]bool
	vals   map[string]*string
}

// RegisterKnobFlags registers every knob in the listed groups, or named by
// its flag (all knobs when none are listed), as flags on fs.
func RegisterKnobFlags(fs *flag.FlagSet, groups ...string) *KnobSet {
	ks := &KnobSet{fs: fs, groups: map[string]bool{}, vals: map[string]*string{}}
	for _, g := range groups {
		ks.groups[g] = true
	}
	for _, k := range knobTable {
		if len(ks.groups) > 0 && !ks.groups[k.Group] && !ks.groups[k.Flag] {
			continue
		}
		ks.vals[k.Flag] = fs.String(k.Flag, k.Default, k.Help)
	}
	return ks
}

// Options returns one Spec option per knob flag the user explicitly set,
// validating each value. Call after fs.Parse.
func (ks *KnobSet) Options() ([]Option, error) {
	var opts []Option
	var err error
	ks.fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		val, ok := ks.vals[f.Name]
		if !ok {
			return
		}
		k, _ := KnobByFlag(f.Name)
		opt, oerr := k.Option(*val)
		if oerr != nil {
			err = oerr
			return
		}
		opts = append(opts, opt)
	})
	if err != nil {
		return nil, err
	}
	return opts, nil
}

// Values returns the flag-syntax value of every knob flag the user
// explicitly set, keyed by the knob's JSON field name — the form a
// server JobRequest carries them in. Call after fs.Parse.
func (ks *KnobSet) Values() (map[string]string, error) {
	var out map[string]string
	var err error
	ks.fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		val, ok := ks.vals[f.Name]
		if !ok {
			return
		}
		k, _ := KnobByFlag(f.Name)
		if _, oerr := k.Option(*val); oerr != nil {
			err = oerr
			return
		}
		if out == nil {
			out = map[string]string{}
		}
		out[k.JSON] = *val
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Spec applies the explicitly-set knob flags to a zero Spec and returns it;
// the caller reads the resulting Tuning / fault fields (e.g. to build a
// scenario with the requested tuning). Call after fs.Parse.
func (ks *KnobSet) Spec() (Spec, error) {
	opts, err := ks.Options()
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	for _, o := range opts {
		o(&s)
	}
	return s, nil
}
