package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/server"
)

// windowsPerRound is chosen so that a window is about half a second: long
// enough for a dozen of the slowest solves and for tens of calibration
// samples, short enough to follow the machine when its speed changes.
func windowsPerRound(roundLen time.Duration) int {
	k := int((roundLen + 250*time.Millisecond) / (500 * time.Millisecond))
	if k < 1 {
		k = 1
	}
	return k
}

// failure is one failed operation, kept for result.json.
type failure struct {
	Round  int    `json:"round"`
	Traced bool   `json:"traced"`
	Reason string `json:"reason"`
}

// maxFailuresKept bounds result.json when a workload is broken outright.
const maxFailuresKept = 50

// tally accumulates the rounds of one workload run with tracing either on
// or off.
type tally struct {
	lanes     int
	setupS    []float64 // at nominal machine speed
	setupRawS []float64 // as measured
	windows   []window
	attempted int
	failed    int
	failures  []failure
	mallocs   uint64 // runtime.MemStats deltas across the timed loops
	allocB    uint64

	// Sums over the successful solves, from their Reports.
	wallNs, elapsedNs                          int64
	iterations, phases                         int64
	itersPerRound                              []float64 // each round's mean Iterations
	sent, dropped, stale, reordered, duplicate int64
	wireBytes, lost, rejoined, reshard         int64
	imbalance                                  float64

	// serve-mix only.
	reportBytes int64
	byScenario  map[string][]float64
	health      server.Health // counters summed over the rounds' timed loops
}

func newTally() *tally { return &tally{byScenario: map[string][]float64{}} }

// ok is the number of operations that succeeded and checked out.
func (t *tally) ok() int { return t.attempted - t.failed }

// observe folds one operation into the tally.
func (t *tally) observe(o outcome, round int, traced bool) {
	t.attempted++
	if o.failure != "" {
		t.failed++
		if len(t.failures) < maxFailuresKept {
			t.failures = append(t.failures, failure{round, traced, o.failure})
		}
		return
	}
	t.wallNs += int64(o.wall)
	if o.scenario != "" {
		t.reportBytes += int64(o.reportBytes)
		t.byScenario[o.scenario] = append(t.byScenario[o.scenario], float64(o.wall)/1e6)
	}
	r := o.rep
	t.elapsedNs += int64(r.Elapsed)
	t.iterations += int64(r.Iterations)
	lo, hi := 0, 0
	for k, u := range r.UpdatesPerWorker {
		t.phases += int64(u)
		if k == 0 || u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if lo > 0 {
		t.imbalance += float64(hi) / float64(lo)
	}
	t.sent += r.MessagesSent
	t.dropped += r.MessagesDropped
	t.stale += r.MessagesStale
	t.reordered += r.MessagesReordered
	t.duplicate += r.MessagesDuplicate
	t.wireBytes += r.BytesSent + r.BytesReceived
	t.lost += r.WorkersLost
	t.rejoined += r.WorkersRejoined
	t.reshard += r.Resharding
	// On the mesh the data plane bypasses the coordinator's byte counters.
	if d, ok := r.DistDetail(); ok && d.Topology == "mesh" {
		for _, row := range d.LinkBytes {
			for _, b := range row {
				t.wireBytes += b
			}
		}
	}
}

// round is one entry of the run plan.
type round struct {
	w *workload
	// index numbers the workload's rounds; inputs selects the seed, so
	// that a traced round can run on the inputs of an untraced one.
	index, inputs int
	traced        bool
}

// runRound sets w up afresh, runs its closed loop for length and tears it
// down, folding everything into t. tr is nil unless the round is traced.
func runRound(r round, seed uint64, length time.Duration, t *tally, tr *tracer) (err error) {
	var ops *opStats
	roundSpan := 0
	begin := time.Now()
	if tr != nil {
		ops = new(opStats)
		roundSpan = tr.add(span{Name: "round:" + r.w.name, StartNs: tr.ns(begin)})
	}
	var st stages
	setupKernel := calibrateN(setupCalRuns)
	inst, err := r.w.setup(mix(seed, uint64(r.inputs)), ops, &st)
	if err != nil {
		return fmt.Errorf("%s round %d: set-up: %w", r.w.name, r.index, err)
	}
	setupEnd := time.Now()
	setupKernel = append(setupKernel, calibrateN(setupCalRuns)...)
	t.setupRawS = append(t.setupRawS, setupEnd.Sub(begin).Seconds())
	t.setupS = append(t.setupS, setupEnd.Sub(begin).Seconds()/speedOf(setupKernel))
	t.lanes = inst.lanes
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			err = fmt.Errorf("%s round %d: teardown: %w", r.w.name, r.index, cerr)
		}
		if tr != nil {
			tr.end(roundSpan, time.Now())
		}
	}()
	if tr != nil {
		id := tr.add(span{Parent: roundSpan, Name: "setup", StartNs: tr.ns(begin), EndNs: tr.ns(setupEnd)})
		for _, s := range st {
			tr.add(span{Parent: id, Name: s.name, StartNs: tr.ns(s.start), EndNs: tr.ns(s.end)})
		}
	}

	var h0 *server.Health
	if inst.health != nil {
		if h0, err = inst.health(); err != nil {
			return fmt.Errorf("%s round %d: healthz: %w", r.w.name, r.index, err)
		}
	}
	// Start every timed loop from a collected heap, so that the garbage of
	// the set-up is not billed to the first solves.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loopStart := time.Now()
	deadline := loopStart.Add(length)
	iters0, ok0 := t.iterations, t.ok()
	var samples, kernel []sample
	var mu sync.Mutex // guards t and samples between the clients
	var wg sync.WaitGroup
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lastCal := time.Time{}
			for i := 0; time.Now().Before(deadline); i++ {
				if c == 0 && time.Since(lastCal) >= calEvery {
					k := calibrate()
					lastCal = time.Now()
					kernel = append(kernel, sample{at: lastCal.Sub(loopStart), wall: k})
				}
				var busy0, calls0, comps0 int64
				if ops != nil {
					busy0, calls0, comps0 = ops.busyNs.Load(), ops.calls.Load(), ops.comps.Load()
				}
				o := inst.run(c, i)
				if tr != nil && o.failure == "" {
					traceSolve(tr, roundSpan, inst.lanes, o,
						ops.busyNs.Load()-busy0, ops.calls.Load()-calls0, ops.comps.Load()-comps0)
				}
				mu.Lock()
				t.observe(o, r.index, r.traced)
				if o.failure == "" {
					samples = append(samples, sample{at: o.start.Add(o.wall).Sub(loopStart), wall: o.wall})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	t.mallocs += m1.Mallocs - m0.Mallocs
	t.allocB += m1.TotalAlloc - m0.TotalAlloc
	if inst.health != nil {
		h1, err := inst.health()
		if err != nil {
			return fmt.Errorf("%s round %d: healthz: %w", r.w.name, r.index, err)
		}
		t.health.Accepted += h1.Accepted - h0.Accepted
		t.health.Rejected += h1.Rejected - h0.Rejected
		t.health.ScratchCreated += h1.ScratchCreated - h0.ScratchCreated
		t.health.ScratchReused += h1.ScratchReused - h0.ScratchReused
	}

	t.itersPerRound = append(t.itersPerRound, ratio(float64(t.iterations-iters0), float64(t.ok()-ok0)))
	t.windows = append(t.windows, cut(samples, kernel, length, windowsPerRound(length))...)
	return nil
}

// traceSolve records the spans of one successful operation: the solve, and
// below it either the server's stages as the client saw them or the engine
// with the operator time inside it.
func traceSolve(tr *tracer, parent, lanes int, o outcome, busy, calls, comps int64) {
	sid := tr.nextSolve()
	s0 := tr.ns(o.start)
	end := s0 + int64(o.wall)
	solve := tr.add(span{Parent: parent, Solve: sid, Name: "solve", StartNs: s0, EndNs: end, Lanes: lanes})
	if o.scenario != "" {
		at := [5]int64{s0, s0 + int64(o.stamps[0]), s0 + int64(o.stamps[1]), s0 + int64(o.stamps[2]), end}
		for k, name := range [4]string{"server.admit", "server.queue", "server.run", "server.tail"} {
			tr.add(span{Parent: solve, Solve: sid, Name: name, StartNs: at[k], EndNs: at[k+1]})
		}
		return
	}
	engine, e0 := solve, s0
	if e := int64(o.rep.Elapsed); e > 0 && e <= int64(o.wall) {
		// The engine reports how long it ran, not when: the span is placed
		// at the end of the solve, where the engine returns its result.
		e0 = end - e
		engine = tr.add(span{Parent: solve, Solve: sid, Name: "engine", StartNs: e0, EndNs: end, Lanes: lanes})
	}
	if busy > 0 {
		tr.add(span{Parent: engine, Solve: sid, Name: "operators.eval", StartNs: e0, EndNs: end,
			BusyNs: busy, Calls: calls, Comps: comps})
	}
}

// plan lists the rounds of a run in execution order. Workloads alternate
// within each round number, so that a noisy stretch of machine time hits
// all of them alike.
func plan(ws []*workload, mode string, rounds, tracedRounds int) []round {
	var out []round
	switch mode {
	case traceOff:
		for i := 0; i < rounds; i++ {
			for _, w := range ws {
				out = append(out, round{w: w, index: i, inputs: i})
			}
		}
	case traceOn:
		// Untraced and traced rounds alternate on the same inputs, which is
		// what trace.overhead_frac compares.
		for i := 0; i < rounds; i++ {
			for _, w := range ws {
				out = append(out, round{w: w, index: i, inputs: i / 2, traced: i%2 == 1})
			}
		}
	case traceBoth:
		out = plan(ws, traceOff, rounds, 0)
		for i := 0; i < tracedRounds; i++ {
			for _, w := range ws {
				out = append(out, round{w: w, index: rounds + i, inputs: i, traced: true})
			}
		}
	}
	return out
}
