//go:build race

package dist

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts measure the detector, not the code.
func init() { raceEnabled = true }
