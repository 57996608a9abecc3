package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro"
)

// TestInstanceCacheKeySeparation: instances are shared per key and only per
// key — another seed, size or Gram form is another build — and admission
// resolves the default size and the default Gram form into the key.
func TestInstanceCacheKeySeparation(t *testing.T) {
	c := newInstanceCache(instanceBudget)
	base := newInstanceKey("lasso", 16, 7, repro.DefaultTuning())
	lean := repro.DefaultTuning()
	lean.GramPrecompute = new(bool)
	keys := []instanceKey{
		base,
		newInstanceKey("lasso", 16, 8, repro.DefaultTuning()),
		newInstanceKey("lasso", 24, 7, repro.DefaultTuning()),
		newInstanceKey("lasso", 16, 7, lean),
	}
	seen := map[*repro.ScenarioInstance]int{}
	for i, k := range keys {
		inst, err := c.get(k)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[inst]; dup {
			t.Fatalf("keys %d and %d share one instance", j, i)
		}
		seen[inst] = i
	}
	first, _ := c.get(keys[0])
	again, _ := c.get(base)
	if first != again || seen[first] != 0 {
		t.Fatal("a repeated key was not handed its kept instance")
	}
	if built, reused, _ := c.stats(); built != 4 || reused != 2 {
		t.Fatalf("built %d reused %d, want 4 and 2", built, reused)
	}

	resolved := func(req JobRequest) instanceKey {
		t.Helper()
		j, err := resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		return j.instance
	}
	scen, _ := repro.ScenarioByName("lasso")
	if resolved(JobRequest{Scenario: "lasso", Seed: 7}) != resolved(JobRequest{Scenario: "lasso", N: scen.DefaultN, Seed: 7}) {
		t.Error("n = 0 and the default n resolve to different keys")
	}
	explicit := JobRequest{Scenario: "lasso", Seed: 7, Knobs: map[string]string{"gram_precompute": "true"}}
	if resolved(explicit) != resolved(JobRequest{Scenario: "lasso", Seed: 7}) {
		t.Error("an explicit gram_precompute=true keys apart from the default")
	}
}

// TestInstanceKeyCoversTuning: every Tuning field moves the key and
// survives the round trip through it, so a field added to Tuning cannot be
// left out of the key unnoticed.
func TestInstanceKeyCoversTuning(t *testing.T) {
	def := newInstanceKey("lasso", 16, 7, repro.DefaultTuning())
	if got := def.tuning(); !reflect.DeepEqual(got, repro.DefaultTuning()) {
		t.Fatalf("default key stands for %+v", got)
	}
	typ := reflect.TypeOf(repro.Tuning{})
	for i := 0; i < typ.NumField(); i++ {
		var tun repro.Tuning
		f := reflect.ValueOf(&tun).Elem().Field(i)
		switch {
		case f.Kind() == reflect.Int:
			f.SetInt(8)
		case f.Type() == reflect.TypeOf((*bool)(nil)):
			f.Set(reflect.ValueOf(new(bool)))
		default:
			t.Fatalf("Tuning.%s: no instance-key case for %s", typ.Field(i).Name, f.Type())
		}
		k := newInstanceKey("lasso", 16, 7, tun)
		if k == def {
			t.Errorf("Tuning.%s is not part of the instance key", typ.Field(i).Name)
		}
		if got := k.tuning(); !reflect.DeepEqual(got, tun) {
			t.Errorf("Tuning.%s: key stands for %+v, want %+v", typ.Field(i).Name, got, tun)
		}
	}
}

// fakeBuilds makes c build a fresh empty instance per call, charged by the
// key's n, and counts the calls.
func fakeBuilds(c *instanceCache) *int {
	calls := 0
	c.build = func(k instanceKey) (*repro.ScenarioInstance, int64, error) {
		calls++
		return new(repro.ScenarioInstance), int64(k.n), nil
	}
	return &calls
}

// TestInstanceCacheEvictsLRU: at the budget, a new entry evicts the least
// recently used one, and the charged bytes never exceed the budget.
func TestInstanceCacheEvictsLRU(t *testing.T) {
	c := newInstanceCache(300)
	calls := fakeBuilds(c)
	key := func(seed uint64) instanceKey { return instanceKey{scenario: "x", n: 100, seed: seed} }
	get := func(seed uint64) *repro.ScenarioInstance {
		t.Helper()
		inst, err := c.get(key(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, held := c.stats(); held > c.budget {
			t.Fatalf("held %d bytes over the %d budget", held, c.budget)
		}
		return inst
	}
	a := get(1)
	get(2)
	get(3)
	if get(1) != a { // touches 1: 2 is now the least recently used
		t.Fatal("a kept entry was rebuilt")
	}
	get(4) // evicts 2
	if *calls != 4 {
		t.Fatalf("%d builds, want 4", *calls)
	}
	get(1)
	get(3)
	if *calls != 4 {
		t.Fatalf("an entry other than the least recently used was evicted (%d builds)", *calls)
	}
	get(2)
	if *calls != 5 {
		t.Fatalf("the least recently used entry was kept (%d builds, want 5)", *calls)
	}
	if _, _, held := c.stats(); held != 300 || c.lru.Len() != 3 {
		t.Fatalf("held %d bytes in %d entries, want 300 in 3", held, c.lru.Len())
	}
}

// TestInstanceCacheOverBudgetServedNotKept: an instance charged more than
// the whole budget is handed out but neither kept nor allowed to evict.
func TestInstanceCacheOverBudgetServedNotKept(t *testing.T) {
	c := newInstanceCache(300)
	calls := fakeBuilds(c)
	small := instanceKey{scenario: "x", n: 200}
	huge := instanceKey{scenario: "x", n: 301}
	for i := 0; i < 2; i++ {
		for _, k := range []instanceKey{small, huge} {
			if inst, err := c.get(k); err != nil || inst == nil {
				t.Fatalf("get %+v: %v, %v", k, inst, err)
			}
		}
	}
	if *calls != 3 {
		t.Fatalf("%d builds, want 3 (the small key once, the huge one every time)", *calls)
	}
	if built, reused, held := c.stats(); built != 3 || reused != 1 || held != 200 {
		t.Fatalf("built %d reused %d held %d, want 3, 1, 200", built, reused, held)
	}
}

// TestInstanceCacheFailedBuildNotKept: a failed build reaches its caller
// and the next get builds again; a real unknown scenario fails the same
// way.
func TestInstanceCacheFailedBuildNotKept(t *testing.T) {
	c := newInstanceCache(instanceBudget)
	calls := 0
	boom := errors.New("boom")
	c.build = func(instanceKey) (*repro.ScenarioInstance, int64, error) {
		calls++
		return nil, 0, boom
	}
	k := instanceKey{scenario: "x", n: 1}
	for i := 0; i < 2; i++ {
		if inst, err := c.get(k); !errors.Is(err, boom) || inst != nil {
			t.Fatalf("get = %v, %v, want the build's error", inst, err)
		}
	}
	if calls != 2 || c.lru.Len() != 0 {
		t.Fatalf("%d builds and %d kept entries, want 2 and 0", calls, c.lru.Len())
	}

	byName := newInstanceCache(instanceBudget)
	if _, err := byName.get(instanceKey{scenario: "no-such-scenario", n: 8}); err == nil {
		t.Fatal("an unknown scenario built")
	}
	if _, _, held := byName.stats(); held != 0 || byName.lru.Len() != 0 {
		t.Fatalf("a failed build is kept (held %d)", held)
	}
}

// TestInstanceChargeBoundsHeld: for every registered scenario the charge
// is at least what the built instance keeps live on the heap.
func TestInstanceChargeBoundsHeld(t *testing.T) {
	for _, sc := range repro.Scenarios() {
		for _, n := range []int{sc.DefaultN, 16, 128} {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			inst, charge, err := buildCharged(newInstanceKey(sc.Name, n, 7, repro.DefaultTuning()))
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(inst)
			if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); charge < held {
				t.Errorf("%s n=%d: charged %d bytes, holds %d", sc.Name, n, charge, held)
			}
		}
	}
}

// TestServedInstanceSharedAcrossJobs: for every registered scenario one job
// builds the instance, then every engine runs two concurrent jobs on that
// one cached instance (the engine is not part of the key). Run under -race
// this shows the instance is only read; on the deterministic engines both
// cache hits must report, bit for bit, what the same job reports on a
// fresh build.
func TestServedInstanceSharedAcrossJobs(t *testing.T) {
	s, c := testServer(t, Config{Workers: 2, QueueDepth: 4})
	engines := []string{"model", "sim", "simsync", "shared", "message", "dist"}
	deterministic := map[string]bool{"model": true, "sim": true, "simsync": true}
	solve := func(t *testing.T, req JobRequest) *repro.Report {
		out, err := c.Solve(context.Background(), req)
		if err != nil {
			t.Error(err)
			return nil
		}
		if out.JobErr != "" || out.Report == nil {
			t.Errorf("job failed: %q", out.JobErr)
			return nil
		}
		return out.Report
	}
	for _, sc := range repro.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			built0, reused0, _ := s.instances.stats()
			// n = 4 keeps the solves short under -race.
			base := JobRequest{Scenario: sc.Name, N: 4, Seed: 5, Workers: 2}
			if solve(t, base) == nil {
				t.FailNow()
			}
			for _, engine := range engines {
				req := base
				req.Engine = engine
				var hits [2]*repro.Report
				var wg sync.WaitGroup
				for i := range hits {
					wg.Add(1)
					go func(i int) { defer wg.Done(); hits[i] = solve(t, req) }(i)
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}
				if !deterministic[engine] {
					continue
				}
				fresh := freshJob(t, req)
				for i, rep := range hits {
					if err := sameSolve(rep, fresh); err != nil {
						t.Errorf("%s, cache hit %d: %v", engine, i, err)
					}
				}
			}
			built, reused, _ := s.instances.stats()
			if built-built0 != 1 || reused-reused0 != int64(2*len(engines)) {
				t.Fatalf("%d builds and %d hits for %d jobs on one key, want 1 and %d",
					built-built0, reused-reused0, 1+2*len(engines), 2*len(engines))
			}
		})
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	built, reused, _ := s.instances.stats()
	if h.InstancesBuilt != built || h.InstancesReused != reused || reused == 0 {
		t.Fatalf("healthz reports %d built %d reused, cache %d and %d",
			h.InstancesBuilt, h.InstancesReused, built, reused)
	}
}

// freshJob runs req the way a server worker does, on an instance built for
// it alone.
func freshJob(t *testing.T, req JobRequest) *repro.Report {
	t.Helper()
	j, err := resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	j.ctx = context.Background()
	j.run(NewScratchPool(), newInstanceCache(instanceBudget))
	if j.err != nil {
		t.Fatal(j.err)
	}
	return j.report
}

// sameSolve says how got differs from want in X bits, Iterations or
// FinalResidual, or nil.
func sameSolve(got, want *repro.Report) error {
	if got.Iterations != want.Iterations {
		return fmt.Errorf("iterations %d, want %d", got.Iterations, want.Iterations)
	}
	if math.Float64bits(got.FinalResidual) != math.Float64bits(want.FinalResidual) {
		return fmt.Errorf("final residual %v, want %v", got.FinalResidual, want.FinalResidual)
	}
	if len(got.X) != len(want.X) {
		return fmt.Errorf("len(X) %d, want %d", len(got.X), len(want.X))
	}
	for i := range got.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			return fmt.Errorf("X[%d] = %v, want %v", i, got.X[i], want.X[i])
		}
	}
	return nil
}
