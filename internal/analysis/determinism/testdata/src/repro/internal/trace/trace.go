// Fixture for the determinism analyzer's scope: repro/internal/trace only
// records solves, so the same clock escape that delay.go reports is
// silent here.
package trace

import "time"

func stamp() int64 {
	return time.Now().UnixNano()
}
