package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/vec"
)

// probeBatches is how many equal batches a probe's fixed count is split
// into. The fastest batch is reported, which reads the machine in the
// quietest state it was in during the probe.
const probeBatches = 5

var probeSink float64

// perCall times count calls of f in probeBatches batches and returns the
// nanoseconds per call of the fastest batch.
func perCall(count int, f func(i int)) float64 {
	per := count / probeBatches
	if per < 1 {
		per = 1
	}
	best := math.Inf(1)
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f(b*per + i)
		}
		if ns := float64(time.Since(t0)) / float64(per); ns < best {
			best = ns
		}
	}
	return best
}

// mallocsPerCall counts heap allocations per call of f over count calls.
func mallocsPerCall(count int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < count; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(count)
}

// poisson5 is the n*n-point 5-point stencil matrix of the multigrid
// scenario, built here so the CSR kernel is probed without an operator
// around it.
func poisson5(n int) *vec.CSR {
	var es []vec.COOEntry
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := r*n + c
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				if rr, cc := r+d[0], c+d[1]; rr >= 0 && rr < n && cc >= 0 && cc < n {
					es = append(es, vec.COOEntry{Row: i, Col: rr*n + cc, Val: 0.25})
				}
			}
		}
	}
	return vec.NewCSR(n*n, n*n, es)
}

// runProbes takes the fixed-count, single-threaded measurements of single
// layers. scale divides every count (quick mode: 10). withServe adds the
// in-process run of the serve-mix job list that server.overhead_ms needs.
func runProbes(seed uint64, scale int, withServe bool) (map[string]float64, error) {
	n := func(count int) int {
		if count /= scale; count < probeBatches {
			return probeBatches
		}
		return count
	}
	out := map[string]float64{}
	rng := repro.NewRNG(mix(seed, 7))

	// vec
	const dim, block = 256, 64
	gram := vec.NewDense(dim, dim)
	for i := range gram.Data {
		gram.Data[i] = rng.Normal()
	}
	x, y := rng.NormalVector(dim), make([]float64, block)
	perRow := perCall(n(20000), func(int) { gram.MulRangeTo(y, x, 0, block) }) / block
	out["vec.dense_mulrange_ns_per_row"] = perRow
	out["vec.dense_mulrange_gflops"] = 2 * dim / perRow // computed: 2 flops per column
	csr := poisson5(31)
	xs, ys := rng.NormalVector(csr.Cols), make([]float64, csr.Rows)
	out["vec.csr_mulrange_ns_per_row"] = perCall(n(20000), func(int) { csr.MulRangeTo(ys, xs, 0, csr.Rows) }) / float64(csr.Rows)
	out["vec.dot_ns_per_elem"] = perCall(n(1000000), func(int) { probeSink += vec.Dot(x, gram.Row(0)) }) / dim

	// operators and scenario builders
	var lasso, grid, small *repro.ScenarioInstance
	var err error
	build := func(name string, size int, into **repro.ScenarioInstance) func(int) {
		return func(i int) {
			inst, e := repro.BuildScenario(name, size, mix(seed, uint64(100+i)))
			if e != nil {
				err = e
				return
			}
			*into = inst
		}
	}
	out["scenario.build_ms.lasso256"] = perCall(n(5), build("lasso", 256, &lasso)) / 1e6
	out["scenario.build_ms.multigrid31"] = perCall(n(50), build("multigrid", 31, &grid)) / 1e6
	out["scenario.build_ms.lasso64"] = perCall(n(100), build("lasso", 64, &small)) / 1e6
	out["scenario.build_allocs.lasso64"] = mallocsPerCall(n(50), build("lasso", 64, &small))
	if err != nil {
		return nil, err
	}
	scr := repro.NewOperatorScratch()
	lop, gop := lasso.Spec.Op, grid.Spec.Op
	lout, gout := make([]float64, block), make([]float64, gop.Dim())
	evalBlock := func(int) { repro.EvalBlock(lop, scr, 0, block, x, lout) }
	out["operators.evalblock_ns_per_comp.lasso256"] = perCall(n(20000), evalBlock) / block
	out["operators.allocs_per_evalblock"] = mallocsPerCall(n(2000), evalBlock)
	out["operators.evalcomp_ns.lasso256"] = perCall(n(200000), func(i int) { probeSink += repro.EvalComponent(lop, scr, i%dim, x) })
	out["operators.evalblock_ns_per_comp.multigrid31"] = perCall(n(20000), func(int) { repro.EvalBlock(gop, scr, 0, gop.Dim(), xs, gout) }) / float64(gop.Dim())
	out["operators.residual_ns.lasso256"] = perCall(n(5000), func(int) { probeSink += repro.OperatorResidual(lop, x) })

	// des: whole simulated solves of lasso n=256 on 4 workers. XStar is
	// supplied so that the engine does not solve a reference of its own.
	ref, err := reference(lasso)
	if err != nil {
		return nil, err
	}
	var updates, msgs int64
	sim := func(int) {
		rep, e := repro.Solve(lasso.Spec, repro.WithEngine(repro.EngineSim), repro.WithWorkers(4),
			repro.WithXStar(ref), repro.WithSeed(mix(seed, 8)))
		if e != nil || !rep.Converged {
			err = errors.Join(e, errors.New("des probe: sim solve failed"))
			return
		}
		updates, msgs = int64(rep.Updates), rep.MessagesSent
	}
	simNs := perCall(n(50), sim)
	out["des.allocs_per_solve"] = mallocsPerCall(n(10), sim)
	if err != nil {
		return nil, err
	}
	out["des.ns_per_update"] = simNs / float64(updates)
	out["des.msgs_per_solve"] = float64(msgs)

	// Report codec on a served-size report.
	rep, err := repro.Solve(small.Spec, repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: 1}))
	if err != nil {
		return nil, err
	}
	wire, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	out["report.marshal_us.lasso64"] = perCall(n(250), func(int) {
		if _, e := json.Marshal(rep); e != nil {
			err = e
		}
	}) / 1e3
	out["report.unmarshal_us.lasso64"] = perCall(n(250), func(int) {
		var back repro.Report
		if e := json.Unmarshal(wire, &back); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return nil, err
	}

	if withServe {
		if out["serve.direct_p50_ms"], err = directServeP50(seed, n(600)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// directServeP50 runs the serve-mix job list of the first round in-process
// (scenario built beforehand, one pooled Scratch per job kind, the delay
// model the server would parse) and returns the median solve time at
// nominal machine speed: what the same jobs cost without the server
// around them.
func directServeP50(seed uint64, count int) (float64, error) {
	jobs, err := serveJobs(mix(seed, 0))
	if err != nil {
		return 0, err
	}
	scr := map[string]*repro.Scratch{}
	for _, sc := range serveScenarios {
		scr[sc.name] = repro.NewScratch()
	}
	var samples, kernel []sample
	begin, lastCal := time.Now(), time.Time{}
	for i := 0; i < count; i++ {
		if time.Since(lastCal) >= calEvery {
			k := calibrate()
			lastCal = time.Now()
			kernel = append(kernel, sample{at: lastCal.Sub(begin), wall: k})
		}
		j := jobs[i%len(jobs)]
		delay, err := repro.ParseDelay("bounded:8", j.seed) // what the server does with the job's seed
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rep, err := repro.Solve(j.inst.Spec, repro.WithEngine(repro.EngineModel), repro.WithDelay(delay),
			repro.WithSeed(j.seed), repro.WithScratch(scr[j.scenario]))
		wall := time.Since(t0)
		if why := verify(rep, err, j.inst.Spec.Tol, j.ref, j.xTol); why != "" {
			return 0, fmt.Errorf("direct %s job: %s", j.scenario, why)
		}
		samples = append(samples, sample{at: time.Since(begin), wall: wall})
	}
	length := time.Since(begin)
	return pool(quietest(cut(samples, kernel, length, windowsPerRound(length))), true).P50Ms, nil
}
