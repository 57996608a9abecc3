// Fixture for the determinism analyzer's scope: repro/internal/delay is
// not named anywhere in the analyzer, yet it decides labels, so it is
// covered like every internal/ package that is not an observer.
package delay

import "time"

// jitterSeed draws a label seed from the wall clock.
func jitterSeed() int64 {
	return time.Now().UnixNano() // want `clock-derived value escapes the time domain via UnixNano`
}
