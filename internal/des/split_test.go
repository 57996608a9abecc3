package des

import (
	"testing"
	"time"

	"repro/internal/trace"
)

// TestVirtualTimeSplit pins the per-worker time split the loop's meter
// takes on the virtual clock (Config.PerWorker). Metering moves no bit of
// either schedule. Every worker's Elapsed is the run's Time. On the barrier
// schedule Compute is the sum of the worker's phase costs, so a port that
// books a phase's cost inside Publish fails it; on the asynchronous one no
// virtual time passes in Publish or Drain, so the split is compute and
// parked alone (Fig. 1).
func TestVirtualTimeSplit(t *testing.T) {
	for _, tc := range goldenConfigs(t) {
		cfg := tc.cfg
		runBoth := func(perWorker bool) (*Result, uint64, *SyncResult, uint64) {
			cfg.PerWorker = perWorker
			lg := &trace.Log{}
			cfg.Trace = lg
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			cfg.Trace = nil
			sres, err := RunSync(cfg)
			if err != nil {
				t.Fatalf("%s sync: %v", tc.name, err)
			}
			return res, hashResult(res, lg), sres, hashSync(sres)
		}
		_, plain, _, plainSync := runBoth(false)
		res, metered, sres, meteredSync := runBoth(true)
		if metered != plain || meteredSync != plainSync {
			t.Errorf("%s: metering moved the run: %#x/%#x, unmetered %#x/%#x", tc.name, metered, meteredSync, plain, plainSync)
		}
		if len(res.PerWorker) != len(res.UpdatesPerWorker) || len(sres.PerWorker) != len(sres.UpdatesPerWorker) {
			t.Fatalf("%s: %d and %d splits for %d workers", tc.name, len(res.PerWorker), len(sres.PerWorker), len(res.UpdatesPerWorker))
		}
		for w, st := range res.PerWorker {
			if st.Elapsed != virtual(res.Time) {
				t.Errorf("%s w%d: elapsed %v, run took %v", tc.name, w, st.Elapsed, res.Time)
			}
			if st.Publish != 0 || st.Drain != 0 {
				t.Errorf("%s w%d: asynchronous publish %v, drain %v, want 0", tc.name, w, st.Publish, st.Drain)
			}
		}
		for w, st := range sres.PerWorker {
			if st.Elapsed != virtual(sres.Time) {
				t.Errorf("%s w%d sync: elapsed %v, run took %v", tc.name, w, st.Elapsed, sres.Time)
			}
			if st.Drain != 0 || st.Compute < 0 || st.Publish < 0 || st.Parked < 0 {
				t.Errorf("%s w%d sync: split %+v", tc.name, w, st)
			}
			cost := UniformCost(1)
			if cfg.Cost != nil {
				cost = cfg.Cost
			}
			want := time.Duration(0)
			for k := 1; k <= sres.UpdatesPerWorker[w]; k++ {
				want += virtual(cost(w, k))
			}
			if st.Compute != want {
				t.Errorf("%s w%d sync: compute %v over %d phases, want %v", tc.name, w, st.Compute, sres.UpdatesPerWorker[w], want)
			}
		}
	}
}
