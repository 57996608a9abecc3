package server

import (
	"container/list"
	"runtime/metrics"
	"sync"

	"repro"
)

// instanceBudget bounds the bytes an instance cache charges its entries. It
// is a constant, not a knob: a lasso or ridge instance at n = 64 is charged
// about 230 KiB, so the budget keeps well over a hundred of them.
const instanceBudget = 32 << 20

// instanceSlack is added to every charge. The runtime counts a small heap
// object only once the span holding it fills, so the allocation counter can
// miss a build's last small objects (12 KiB of a lasso at n = 256, all 38
// KiB of a netflow instance). The slack also caps the entry count.
const instanceSlack = 64 << 10

// instanceKey is everything a scenario build reads: the scenario, the
// resolved size, the seed and the whole Tuning (BuildScenarioTuned hands it
// to the builder and stores it in the Spec).
type instanceKey struct {
	scenario      string
	n             int // the scenario default resolved in
	seed          uint64
	intraParallel int
	gram          bool // Tuning.GramPrecomputed()
}

func newInstanceKey(scenario string, n int, seed uint64, t repro.Tuning) instanceKey {
	return instanceKey{scenario: scenario, n: n, seed: seed,
		intraParallel: t.IntraParallelism, gram: t.GramPrecomputed()}
}

// tuning is the Tuning the key stands for (GramPrecompute nil when true).
func (k instanceKey) tuning() repro.Tuning {
	t := repro.Tuning{IntraParallelism: k.intraParallel}
	if !k.gram {
		t.GramPrecompute = new(bool)
	}
	return t
}

// buildCharged builds k's instance and charges it the heap bytes allocated
// while it was built, plus instanceSlack. The instance holds only what its
// build allocated, so the charge bounds it from above
// (TestInstanceChargeBoundsHeld); other goroutines' allocations meanwhile
// only raise it.
func buildCharged(k instanceKey) (*repro.ScenarioInstance, int64, error) {
	before := heapAllocBytes()
	inst, err := repro.BuildScenarioTuned(k.scenario, k.n, k.seed, k.tuning())
	return inst, int64(heapAllocBytes()-before) + instanceSlack, err
}

func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// instanceCache keeps built scenario instances under a byte budget, least
// recently used out first. An instance is immutable once built (engines
// copy X0 and evaluate one operator from many goroutines), so every job
// with its key is handed the same one. A failed build is never kept, nor is
// an instance charged more than the whole budget: it is served and dropped.
type instanceCache struct {
	mu            sync.Mutex
	budget, held  int64                         // held: the kept entries' charges
	lru           list.List                     // *instanceEntry, most recent at the front
	index         map[instanceKey]*list.Element // into lru
	built, reused int64
	// build makes k's instance and says how many bytes to charge it.
	build func(k instanceKey) (*repro.ScenarioInstance, int64, error)
}

type instanceEntry struct {
	key   instanceKey
	inst  *repro.ScenarioInstance
	bytes int64
}

func newInstanceCache(budget int64) *instanceCache {
	return &instanceCache{budget: budget, index: make(map[instanceKey]*list.Element), build: buildCharged}
}

// get returns k's instance, building it on a miss. The build runs outside
// the lock: two jobs that miss on one key at once both build, and the
// first to finish is kept.
func (c *instanceCache) get(k instanceKey) (*repro.ScenarioInstance, error) {
	if inst := c.lookup(k); inst != nil {
		return inst, nil
	}
	inst, bytes, err := c.build(k)
	if err != nil {
		return nil, err
	}
	c.keep(k, inst, bytes)
	return inst, nil
}

func (c *instanceCache) lookup(k instanceKey) *repro.ScenarioInstance {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[k]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(e)
	c.reused++
	return e.Value.(*instanceEntry).inst
}

// keep counts a build and admits its instance, evicting from the back until
// the charges fit the budget again.
func (c *instanceCache) keep(k instanceKey, inst *repro.ScenarioInstance, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.built++
	if _, ok := c.index[k]; ok || bytes > c.budget {
		return
	}
	c.index[k] = c.lru.PushFront(&instanceEntry{key: k, inst: inst, bytes: bytes})
	for c.held += bytes; c.held > c.budget; {
		old := c.lru.Remove(c.lru.Back()).(*instanceEntry)
		delete(c.index, old.key)
		c.held -= old.bytes
	}
}

// stats reports the builds run, the hits served and the bytes held.
func (c *instanceCache) stats() (built, reused, held int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.built, c.reused, c.held
}
