// Package a exercises the knobdrift analyzer against the LIVE knob table:
// flag registrations and json tags duplicating a knob are flagged; other
// names pass.
package a

import "flag"

type jobRequest struct {
	Parallel int     `json:"intra_parallel"` // want `json tag "intra_parallel" duplicates a knob`
	DropProb float64 `json:"drop_prob"`      // want `json tag "drop_prob" duplicates a knob`
	Workers  int     `json:"workers"`
	Untagged int
	NoJSON   int `yaml:"intra_parallel"`
}

func register(fs *flag.FlagSet) {
	fs.Int("intra-parallel", 0, "lanes")     // want `flag "intra-parallel" duplicates a knob`
	fs.Float64("drop", 0, "per-link loss")   // want `flag "drop" duplicates a knob`
	flag.String("maxdelay", "", "jitter")    // want `flag "maxdelay" duplicates a knob`
	fs.String("topology", "star", "plane")   // want `flag "topology" duplicates a knob`
	fs.Int("workers", 0, "worker count")     // not a knob
	fs.String("scenario", "lasso", "preset") // not a knob
}
