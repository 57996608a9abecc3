package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro"
	"repro/internal/server"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// layer is the module whose engine the workload's solves run on: core,
	// runtime, dist or server.
	layer string
	// clients is the number of closed-loop callers: each sends its next
	// operation only after the previous one completed.
	clients int
	// setup builds a fresh instance from seed, timing its stages into st.
	// A non-nil ops puts the round under trace.
	setup func(seed uint64, ops *opStats, st *stages) (*instance, error)
}

// instance is a workload set up for one round.
type instance struct {
	// lanes is the number of engine workers a solve runs on.
	lanes int
	// run performs caller c's i-th operation and checks its output.
	run func(c, i int) outcome
	// health reads the server's counters (serve-mix only).
	health func() (*server.Health, error)
	close  func() error
}

// outcome is one operation as its caller saw it.
type outcome struct {
	start   time.Time
	wall    time.Duration
	rep     *repro.Report
	failure string // empty when the operation succeeded and checked out
	// serve-mix only: which scenario the job ran, the size of its report
	// line, and the offsets from start at which the accepted, started and
	// terminal lines arrived (wall is the offset of the end of the stream).
	scenario    string
	reportBytes int
	stamps      [3]time.Duration
}

// stage is one timed step of a set-up.
type stage struct {
	name       string
	start, end time.Time
}

type stages []stage

func (s *stages) time(name string, f func() error) error {
	st := stage{name: name, start: time.Now()}
	err := f()
	st.end = time.Now()
	*s = append(*s, st)
	return err
}

const warmups = 3

// mix derives the k-th sub-seed of seed (splitmix64), so that every random
// input of a run is a function of the one -seed argument.
func mix(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// distInf is the max-norm distance, with equal infinities (unreachable
// routing nodes) at distance zero and NaN at distance +Inf.
func distInf(x, ref []float64) float64 {
	if len(x) != len(ref) {
		return math.Inf(1)
	}
	m := 0.0
	for i, v := range x {
		if v == ref[i] {
			continue
		}
		d := math.Abs(v - ref[i])
		if !(d <= m) {
			m = d
		}
		if math.IsNaN(m) {
			return math.Inf(1)
		}
	}
	return m
}

// verify returns why a solve counts as failed, or "".
func verify(rep *repro.Report, err error, tol float64, ref []float64, xTol float64) string {
	switch {
	case err != nil:
		return "error: " + err.Error()
	case !rep.Converged:
		return "not converged"
	case !(rep.FinalResidual <= 1.01*tol):
		return fmt.Sprintf("final residual %.3g above 1.01*tol (tol %.3g)", rep.FinalResidual, tol)
	}
	if d := distInf(rep.X, ref); d > xTol {
		return fmt.Sprintf("distance to reference %.3g above %.3g", d, xTol)
	}
	return ""
}

// reference is the fixed point the solves under test are checked against:
// the library's synchronous reference solver (Jacobi sweeps, no delay) run
// two orders tighter than they are; a scenario that knows its fixed point
// (routing: Dijkstra) supplies that instead.
func reference(inst *repro.ScenarioInstance) ([]float64, error) {
	spec := inst.Spec
	if spec.XStar != nil {
		return spec.XStar, nil
	}
	x0 := spec.X0
	if x0 == nil {
		x0 = make([]float64, spec.Op.Dim())
	}
	x, ok := repro.FixedPoint(spec.Op, x0, spec.Tol/100, 4000000)
	if !ok {
		return nil, errors.New("reference solve did not converge")
	}
	return x, nil
}

// direct is a workload that calls repro.Solve in-process from one caller.
type direct struct {
	scenario string
	n        int
	lanes    int
	// xTol is the stated tolerance on the distance to the reference.
	xTol float64
	// opts are the solve options of the round seeded s.
	opts func(s uint64) []repro.Option
	// reseed gives every solve of a round its own Spec.Seed, that is its
	// own fault pattern.
	reseed bool
}

func (d direct) setup(seed uint64, ops *opStats, st *stages) (*instance, error) {
	var inst *repro.ScenarioInstance
	var ref []float64
	err := st.time("scenario.build", func() (err error) {
		inst, err = repro.BuildScenario(d.scenario, d.n, mix(seed, 0))
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := st.time("reference.solve", func() (err error) {
		ref, err = reference(inst)
		return err
	}); err != nil {
		return nil, err
	}
	spec := inst.Spec
	if ops != nil {
		spec.Op = wrap(spec.Op, ops)
	}
	opts := append(d.opts(seed), repro.WithScratch(repro.NewScratch()))
	run := func(_, i int) outcome {
		if d.reseed {
			spec.Seed = mix(seed, uint64(1000+i))
		}
		o := outcome{start: time.Now()}
		var err error
		o.rep, err = repro.Solve(spec, opts...)
		o.wall = time.Since(o.start)
		o.failure = verify(o.rep, err, spec.Tol, ref, d.xTol)
		return o
	}
	if err := st.time("warmup", func() error {
		for i := 0; i < warmups; i++ {
			if o := run(0, -1-i); o.failure != "" {
				return errors.New("warm-up solve: " + o.failure)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &instance{lanes: d.lanes, run: run, close: func() error { return nil }}, nil
}

var lassoDist = direct{scenario: "lasso", n: 256, lanes: 4, xTol: 1e-6}

func distStar() direct {
	d := lassoDist
	d.opts = func(uint64) []repro.Option {
		return []repro.Option{
			repro.WithEngine(repro.EngineDist), repro.WithWorkers(4), repro.WithTopology("star"),
			repro.WithFaults(repro.Faults{DropProb: 0.05, ReorderProb: 0.05, MaxLinkDelay: 200 * time.Microsecond}),
			repro.WithElastic(repro.Elastic{HeartbeatEvery: 10 * time.Millisecond}),
		}
	}
	d.reseed = true
	return d
}

func distMesh() direct {
	d := lassoDist
	d.opts = func(uint64) []repro.Option {
		return []repro.Option{repro.WithEngine(repro.EngineDist), repro.WithWorkers(4), repro.WithTopology("mesh")}
	}
	return d
}

func multigrid(e repro.Engine) direct {
	return direct{scenario: "multigrid", n: 31, lanes: 2, xTol: 1e-5,
		opts: func(uint64) []repro.Option {
			return []repro.Option{repro.WithEngine(e), repro.WithWorkers(2)}
		}}
}

var workloads = []*workload{
	{
		name: "model-lasso", layer: "core", clients: 1,
		why: "Single-threaded dense compute, nothing communicates: vec, operators and core do all the work; the plain baseline, and the one workload whose counts repeat exactly.",
		setup: direct{scenario: "lasso", n: 256, lanes: 1, xTol: 1e-6,
			opts: func(s uint64) []repro.Option {
				return []repro.Option{repro.WithEngine(repro.EngineModel),
					repro.WithDelay(repro.BoundedRandomDelay{B: 8, Seed: mix(s, 1)})}
			}}.setup,
	},
	{
		name: "shared-multigrid", layer: "runtime", clients: 1,
		why:   "961 components of ~5 flops on 2 workers: the runtime shared-memory phase loop, atomic vector and certifier dominate; vec and operators do little.",
		setup: multigrid(repro.EngineShared).setup,
	},
	{
		name: "message-multigrid", layer: "runtime", clients: 1,
		why:   "Same operator through the other runtime transport (channels, payload pool, two-phase quiescence): a change that helps one transport and costs the other splits these two.",
		setup: multigrid(repro.EngineMessage).setup,
	},
	{
		name: "dist-star-faulty", layer: "dist", clients: 1,
		why:   "Default TCP data plane (coordinator relay), 4 workers, with loss, reordering, delay, heartbeats and generation fencing live: wire codec, relay and probe rounds dominate.",
		setup: distStar().setup,
	},
	{
		name: "dist-mesh-clean", layer: "dist", clients: 1,
		why:   "Same dist layer used differently: worker-to-worker links, no relay, no faults, rigid membership; a relay-only or elastic-only change must not move it.",
		setup: distMesh().setup,
	},
	{
		name: "serve-mix", layer: "server", clients: 2,
		why:   "Small model-engine jobs over HTTP from 2 closed-loop clients (clients <= workers, so admission never rejects): admission, queueing, per-job scenario build, streaming and Report JSON dominate.",
		setup: setupServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// serveScenarios are the job kinds serve-mix rotates, each with the stated
// tolerance on the distance of a served X to its reference.
var serveScenarios = []struct {
	name string
	xTol float64
}{{"lasso", 1e-6}, {"ridge", 1e-6}, {"routing", 1e-9}}

const (
	serveN     = 64
	serveSeeds = 4
)

// serveJob is one entry of the serve-mix job list.
type serveJob struct {
	scenario string
	seed     uint64
	body     []byte // the /v1/solve request
	inst     *repro.ScenarioInstance
	ref      []float64
	xTol     float64
}

// serveJobs builds the 12 jobs (3 scenarios x 4 seeds) of the round seeded
// seed, in the order the clients will walk them.
func serveJobs(seed uint64) ([]serveJob, error) {
	var jobs []serveJob
	for k := 0; k < serveSeeds; k++ {
		for _, sc := range serveScenarios {
			j := serveJob{scenario: sc.name, seed: mix(seed, uint64(k)) >> 1, xTol: sc.xTol}
			var err error
			j.body, err = json.Marshal(server.JobRequest{Scenario: j.scenario, N: serveN, Seed: j.seed, Engine: "model"})
			if err != nil {
				return nil, err
			}
			if j.inst, err = repro.BuildScenario(j.scenario, serveN, j.seed); err != nil {
				return nil, err
			}
			if j.ref, err = reference(j.inst); err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", j.scenario, j.seed, err)
			}
			jobs = append(jobs, j)
		}
	}
	rng := repro.NewRNG(mix(seed, 99))
	order := rng.Perm(len(jobs))
	out := make([]serveJob, len(jobs))
	for i, k := range order {
		out[i] = jobs[k]
	}
	return out, nil
}

// eventPrefix is how a /v1/solve NDJSON line of the given type begins; the
// clients classify lines by it so that a line is stamped when it arrives
// and parsed only after the stream ended.
func eventPrefix(typ string) []byte { return []byte(`{"type":"` + typ + `"`) }

var (
	prefixAccepted = eventPrefix(server.EventAccepted)
	prefixStarted  = eventPrefix(server.EventStarted)
	prefixProgress = eventPrefix(server.EventProgress)
	prefixReport   = eventPrefix(server.EventReport)
	prefixError    = eventPrefix(server.EventError)
)

// serveClient is one closed-loop HTTP client; its buffers are reused from
// job to job so that the load generator adds little to the allocation
// counts.
type serveClient struct {
	br   *bufio.Reader
	term []byte
}

// post sends one job and reads its NDJSON stream to the end.
func (c *serveClient) post(hc *http.Client, url string, j serveJob) outcome {
	o := outcome{scenario: j.scenario}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(j.body))
	if err != nil {
		o.failure = "error: " + err.Error()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	o.start = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		o.wall = time.Since(o.start)
		o.failure = "transport error: " + err.Error()
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused; the status is the failure
		o.wall = time.Since(o.start)
		o.failure = "HTTP " + resp.Status
		return o
	}
	c.br.Reset(resp.Body)
	c.term = c.term[:0]
	var seen [3]bool
	for {
		line, err := c.br.ReadSlice('\n')
		for errors.Is(err, bufio.ErrBufferFull) {
			// A report line longer than the buffer: collect it piecewise.
			c.term = append(c.term, line...)
			line, err = c.br.ReadSlice('\n')
		}
		at := time.Since(o.start)
		if err != nil && err != io.EOF {
			o.wall = at
			o.failure = "transport error: " + err.Error()
			return o
		}
		switch {
		case len(c.term) > 0 || bytes.HasPrefix(line, prefixReport) || bytes.HasPrefix(line, prefixError):
			c.term = append(c.term, line...)
			o.stamps[2], seen[2] = at, true
		case bytes.HasPrefix(line, prefixAccepted):
			o.stamps[0], seen[0] = at, true
		case bytes.HasPrefix(line, prefixStarted):
			o.stamps[1], seen[1] = at, true
		case bytes.HasPrefix(line, prefixProgress), len(bytes.TrimSpace(line)) == 0:
		default:
			o.wall = at
			o.failure = fmt.Sprintf("unrecognised event line %.60q", line)
			return o
		}
		if err == io.EOF {
			o.wall = at
			break
		}
	}
	if !seen[2] {
		o.failure = "stream ended without a terminal event"
		return o
	}
	// A stage whose line never arrived (a job that failed while queued)
	// has length zero: it ends when the next one does.
	for k := 1; k >= 0; k-- {
		if !seen[k] {
			o.stamps[k] = o.stamps[k+1]
		}
	}
	o.reportBytes = len(c.term)
	var ev server.Event
	if err := json.Unmarshal(c.term, &ev); err != nil {
		o.failure = "error: bad terminal event: " + err.Error()
		return o
	}
	if ev.Type == server.EventError {
		o.failure = "error: " + ev.Error
		return o
	}
	o.rep = ev.Report
	o.failure = verify(o.rep, nil, j.inst.Spec.Tol, j.ref, j.xTol)
	return o
}

func setupServe(seed uint64, _ *opStats, st *stages) (*instance, error) {
	var jobs []serveJob
	if err := st.time("scenario.build", func() (err error) {
		jobs, err = serveJobs(seed)
		return err
	}); err != nil {
		return nil, err
	}
	const clients = 2
	srv := server.New(server.Config{Addr: "127.0.0.1:0", QueueDepth: 8, Workers: 2})
	if err := st.time("server.start", srv.Start); err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	base := "http://" + srv.Addr()
	cs := make([]*serveClient, clients)
	for i := range cs {
		cs[i] = &serveClient{br: bufio.NewReaderSize(nil, 64<<10)}
	}
	run := func(c, i int) outcome {
		// Client c starts c/clients of the way into the list, so the two
		// clients never march in step.
		k := (c*len(jobs)/clients + i) % len(jobs)
		if k < 0 {
			k += len(jobs)
		}
		return cs[c].post(hc, base+"/v1/solve", jobs[k])
	}
	closeAll := func() error {
		hc.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	if err := st.time("warmup", func() error {
		// One job of each scenario, so every scratch-pool key is warm.
		for i := 0; i < warmups; i++ {
			for k, j := range jobs {
				if j.scenario == serveScenarios[i].name {
					if o := cs[0].post(hc, base+"/v1/solve", jobs[k]); o.failure != "" {
						return errors.New("warm-up job: " + o.failure)
					}
					break
				}
			}
		}
		return nil
	}); err != nil {
		_ = closeAll() // the warm-up failure is the error to report
		return nil, err
	}
	health := func() (*server.Health, error) {
		return (&server.Client{Base: base, HTTP: hc}).Health(context.Background())
	}
	return &instance{lanes: 1, run: run, health: health, close: closeAll}, nil
}
