package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro"
)

// JobRequest is the POST /v1/solve body: one solve job, mirroring the
// asyncsolve CLI flags. Zero values mean "scenario / engine default".
type JobRequest struct {
	// Scenario is the registered workload name (required; see
	// GET /v1/scenarios).
	Scenario string `json:"scenario"`
	// N is the problem size; 0 uses the scenario default.
	N int `json:"n,omitempty"`
	// Seed drives workload construction and engine randomness.
	Seed uint64 `json:"seed,omitempty"`
	// Engine selects the execution engine (default "model").
	Engine string `json:"engine,omitempty"`
	// Delay is a ParseDelay string (model engine; default "bounded:8").
	Delay string `json:"delay,omitempty"`
	// Workers is the processor count; 0 uses the engine default.
	Workers int `json:"workers,omitempty"`
	// Tol overrides the scenario's convergence tolerance when non-nil
	// (0 disables the stop and runs to budget).
	Tol *float64 `json:"tol,omitempty"`
	// MaxIter caps both iterations and updates when > 0.
	MaxIter int `json:"max_iter,omitempty"`
	// Theta enables flexible communication on the model engine.
	Theta float64 `json:"theta,omitempty"`
	// Flex publishes k uniform partial updates per phase (sim/shared/message).
	Flex int `json:"flex,omitempty"`
	// TimeoutMS bounds this job's run time; 0 uses the server maximum, and
	// values above the server maximum are clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Knobs carries the tuning and fault knob fields (intra_parallel,
	// gram_precompute, drop_prob, ...) in flag syntax,
	// keyed by JSON field name. On the wire they are top-level job fields —
	// DecodeJobRequest splits them off the body and MarshalJSON merges them
	// back — so the server's JSON schema is the knob table, verbatim.
	Knobs map[string]string `json:"-"`
}

// MarshalJSON flattens Knobs into top-level fields, each in the wire form
// its knob-table entry prescribes (numerics and booleans bare, durations
// quoted).
func (r JobRequest) MarshalJSON() ([]byte, error) {
	type plain JobRequest // methodless alias: plain struct-tag marshaling
	b, err := json.Marshal(plain(r))
	if err != nil {
		return nil, err
	}
	if len(r.Knobs) == 0 {
		return b, nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	for name, val := range r.Knobs {
		k, ok := repro.KnobByJSON(name)
		if !ok {
			return nil, fmt.Errorf("unknown knob field %q", name)
		}
		raw, err := k.JSONValue(val)
		if err != nil {
			return nil, err
		}
		m[name] = raw
	}
	return json.Marshal(m)
}

// DecodeJobRequest parses a /v1/solve body: knob-table fields are validated
// and split into Knobs, every remaining field must be a core JobRequest field
// (unknown fields stay a 400, exactly as strict as before knobs existed). A
// request it returns always marshals back.
func DecodeJobRequest(body []byte) (JobRequest, error) {
	var req JobRequest
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		return req, err
	}
	var knobs map[string]string
	for name, raw := range fields {
		k, ok := repro.KnobByJSON(name)
		if !ok {
			continue
		}
		val, err := repro.KnobValueFromJSON(k, raw)
		if err == nil {
			_, err = k.Option(val) // a value the knob refuses is a bad body, not a Knobs entry
		}
		if err != nil {
			return req, err
		}
		if knobs == nil {
			knobs = map[string]string{}
		}
		knobs[name] = val
		delete(fields, name)
	}
	rest, err := json.Marshal(fields)
	if err != nil {
		return req, err
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	req.Knobs = knobs
	return req, nil
}

// job is one admitted solve: the validated request plus everything the
// worker and the streaming handler share.
type job struct {
	id  string
	req JobRequest

	// Resolved at admission so a bad request fails with 400 before it
	// consumes a queue slot.
	engine   repro.Engine
	delay    repro.DelayModel
	n        int // requested size resolved against the scenario default
	key      PoolKey
	instance instanceKey
	knobOpts []repro.Option

	ctx      context.Context
	cancel   context.CancelFunc
	progress *repro.Progress

	// started is closed when a worker picks the job up; done when the job
	// reaches its terminal state. After done: report/describe or err.
	started  chan struct{}
	done     chan struct{}
	report   *repro.Report
	describe string
	err      error
}

// resolve validates req and builds the job skeleton. It returns a
// client-errored (400-worthy) error for unknown scenarios/engines/delay
// models and for options the serving layer does not support.
func resolve(req JobRequest) (*job, error) {
	if req.Scenario == "" {
		return nil, fmt.Errorf("scenario is required (see GET /v1/scenarios)")
	}
	scen, ok := repro.ScenarioByName(req.Scenario)
	if !ok {
		// Reuse the facade's unknown-scenario error: it lists every
		// registered name.
		_, err := repro.BuildScenario(req.Scenario, 0, 0)
		return nil, err
	}
	engineName := req.Engine
	if engineName == "" {
		engineName = "model"
	}
	engine, err := repro.EngineByName(engineName)
	if err != nil {
		return nil, err
	}
	delayName := req.Delay
	if delayName == "" {
		delayName = "bounded:8"
	}
	delay, err := repro.ParseDelay(delayName, req.Seed)
	if err != nil {
		return nil, err
	}
	if req.Theta < 0 || req.Theta > 1 {
		return nil, fmt.Errorf("theta %v out of range [0, 1]", req.Theta)
	}
	if req.Flex < 0 {
		return nil, fmt.Errorf("flex %d must be >= 0", req.Flex)
	}
	if req.MaxIter < 0 {
		return nil, fmt.Errorf("max_iter %d must be >= 0", req.MaxIter)
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("timeout_ms %d must be >= 0", req.TimeoutMS)
	}
	// Knob fields validate at admission like every other field, in table
	// order for a deterministic first error.
	var knobOpts []repro.Option
	for _, k := range repro.KnobTable() {
		val, ok := req.Knobs[k.JSON]
		if !ok {
			continue
		}
		opt, err := k.Option(val)
		if err != nil {
			return nil, err
		}
		knobOpts = append(knobOpts, opt)
	}
	for name := range req.Knobs {
		if _, ok := repro.KnobByJSON(name); !ok {
			return nil, fmt.Errorf("unknown knob field %q", name)
		}
	}
	var knobSpec repro.Spec
	for _, o := range knobOpts {
		o(&knobSpec)
	}
	n := req.N
	if n <= 0 {
		n = scen.DefaultN
	}
	j := &job{
		req:      req,
		engine:   engine,
		delay:    delay,
		n:        n,
		knobOpts: knobOpts,
		instance: newInstanceKey(req.Scenario, n, req.Seed, knobSpec.Tuning),
		progress: new(repro.Progress),
		started:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	j.key = PoolKey{
		Scenario: req.Scenario,
		Engine:   engine.Name(),
		N:        n,
		Workers:  req.Workers,
	}
	return j, nil
}

// timeout returns the job's effective run-time bound under the server cap.
func (j *job) timeout(maxJobTime time.Duration) time.Duration {
	d := maxJobTime
	if j.req.TimeoutMS > 0 {
		if t := time.Duration(j.req.TimeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return d
}

// run executes the solve on the calling worker goroutine, taking its
// scenario instance from instances and checking scratch state out of (and
// back into) pool. It owns the terminal transition: exactly one
// close(j.done) per job.
func (j *job) run(pool *ScratchPool, instances *instanceCache) {
	defer close(j.done)
	if err := j.ctx.Err(); err != nil {
		// The client went away (or the deadline passed) while the job was
		// still queued; do not burn a worker on it.
		j.err = err
		return
	}
	close(j.started)
	// The instance is built with the job's tuning (it is part of the key),
	// so build-time choices (Gram form, sharded precompute) see the knobs;
	// pooled scratches are safe across jobs with different tuning because
	// engines install Spec.Tuning on every scratch at solve time.
	inst, err := instances.get(j.instance)
	if err != nil {
		j.err = err
		return
	}
	scr := pool.Get(j.key)
	defer pool.Put(j.key, scr)
	opts := []repro.Option{
		repro.WithEngine(j.engine),
		repro.WithDelay(j.delay),
		repro.WithSeed(j.req.Seed),
		repro.WithScratch(scr),
		repro.WithContext(j.ctx),
		repro.WithProgress(j.progress),
	}
	opts = append(opts, j.knobOpts...)
	if j.req.Workers > 0 {
		opts = append(opts, repro.WithWorkers(j.req.Workers))
	}
	if j.req.Tol != nil {
		opts = append(opts, repro.WithTol(*j.req.Tol))
	}
	if j.req.MaxIter > 0 {
		opts = append(opts, repro.WithMaxIter(j.req.MaxIter), repro.WithMaxUpdates(j.req.MaxIter))
	}
	if j.req.Theta > 0 {
		opts = append(opts, repro.WithTheta(j.req.Theta))
	}
	if j.req.Flex > 0 {
		opts = append(opts, repro.WithFlexible(repro.UniformFlex(j.req.Flex)))
	}
	rep, err := repro.Solve(inst.Spec, opts...)
	if err != nil {
		j.err = err
		return
	}
	j.report = rep
	if inst.Describe != nil {
		j.describe = inst.Describe(rep.X)
	}
}
