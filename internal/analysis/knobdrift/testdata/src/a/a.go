// Package a exercises the knobdrift analyzer against the LIVE knob table:
// flag registrations and json tags duplicating a knob are flagged; other
// names pass.
package a

import "flag"

type jobRequest struct {
	BlockSize int     `json:"block_size"` // want `json tag "block_size" duplicates a knob`
	DropProb  float64 `json:"drop_prob"`  // want `json tag "drop_prob" duplicates a knob`
	Workers   int     `json:"workers"`
	Untagged  int
	NoJSON    int `yaml:"block_size"`
}

func register(fs *flag.FlagSet) {
	fs.Int("block-size", 0, "tile width")    // want `flag "block-size" duplicates a knob`
	fs.Float64("drop", 0, "per-link loss")   // want `flag "drop" duplicates a knob`
	flag.String("maxdelay", "", "jitter")    // want `flag "maxdelay" duplicates a knob`
	fs.String("topology", "star", "plane")   // want `flag "topology" duplicates a knob`
	fs.Int("workers", 0, "worker count")     // not a knob
	fs.String("scenario", "lasso", "preset") // not a knob
}
