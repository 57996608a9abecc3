package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// testServer spins up a Server over httptest and returns it with a client.
func testServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// waitHealth polls /healthz until pred holds or the deadline passes.
func waitHealth(t *testing.T, c *Client, pred func(*Health) bool) *Health {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health(context.Background())
		if err == nil && pred(h) {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("health predicate never held (last: %+v, err: %v)", h, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeSolveEndToEnd: a small lasso job streams accepted/started events
// and a converged terminal report with the scenario quality line.
func TestServeSolveEndToEnd(t *testing.T) {
	_, c := testServer(t, Config{Workers: 2, QueueDepth: 4})
	out, err := c.Solve(context.Background(), JobRequest{Scenario: "lasso", N: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out.Rejected {
		t.Fatal("job rejected by an idle server")
	}
	if out.JobErr != "" {
		t.Fatalf("job failed: %s", out.JobErr)
	}
	if out.Report == nil || !out.Report.Converged {
		t.Fatalf("report = %+v, want converged", out.Report)
	}
	if out.Report.Engine != "model" {
		t.Fatalf("engine = %q, want default model", out.Report.Engine)
	}
	if !strings.Contains(out.Describe, "MSE") {
		t.Fatalf("describe = %q, want the lasso quality line", out.Describe)
	}
	if out.JobID == "" {
		t.Fatal("no job id on the stream")
	}
}

// TestServeEngineMatrix runs one job per engine — every engine is served —
// and each must converge.
func TestServeEngineMatrix(t *testing.T) {
	_, c := testServer(t, Config{Workers: 4, QueueDepth: 8})
	for _, engine := range []string{"model", "sim", "simsync", "shared", "message", "dist"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			out, err := c.Solve(context.Background(), JobRequest{
				Scenario: "lasso", N: 16, Seed: 7, Engine: engine, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.JobErr != "" {
				t.Fatalf("job failed: %s", out.JobErr)
			}
			if out.Report == nil || !out.Report.Converged {
				t.Fatalf("engine %s did not converge", engine)
			}
		})
	}
	// The dist engine's data plane is a knob-table field like any other: a
	// served job can ask for worker-to-worker links.
	t.Run("dist-mesh", func(t *testing.T) {
		req := JobRequest{
			Scenario: "lasso", N: 16, Seed: 7, Engine: "dist", Workers: 2,
			Knobs: map[string]string{"topology": "mesh", "delta_threshold": "1e-12"},
		}
		j, err := resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		var spec repro.Spec
		for _, o := range j.knobOpts {
			o(&spec)
		}
		if spec.Topology != "mesh" || spec.DeltaThreshold != 1e-12 {
			t.Fatalf("admitted spec has topology %q delta %v, want mesh 1e-12", spec.Topology, spec.DeltaThreshold)
		}
		out, err := c.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if out.JobErr != "" || out.Report == nil || !out.Report.Converged {
			t.Fatalf("mesh job: err %q, report %+v", out.JobErr, out.Report)
		}
	})
}

// TestServeBadRequests: malformed jobs fail admission with 400 (a transport
// error from the client's point of view), not a queue slot.
func TestServeBadRequests(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 1})
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"unknown scenario", JobRequest{Scenario: "nope"}, "registered:"},
		{"missing scenario", JobRequest{}, "scenario is required"},
		{"unknown engine", JobRequest{Scenario: "lasso", Engine: "warp"}, "unknown engine"},
		{"bad delay", JobRequest{Scenario: "lasso", Delay: "bounded:0"}, "delay"},
		{"bad theta", JobRequest{Scenario: "lasso", Theta: 1.5}, "theta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Solve(context.Background(), tc.req)
			if err == nil {
				t.Fatal("bad request was accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
	// The unknown-scenario 400 must list every registered name.
	_, err := c.Solve(context.Background(), JobRequest{Scenario: "nope"})
	for _, name := range []string{"lasso", "ridge", "netflow", "routing"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-scenario error %v does not list %q", err, name)
		}
	}
}

// TestServeOverflowingLinkDelayIsAJobError: the largest duration is a
// valid max_link_delay knob value, so the job is admitted, and the dist
// engine refuses it as the job's error (its hold and delay draw would
// overflow) instead of crashing the server, which keeps serving.
func TestServeOverflowingLinkDelayIsAJobError(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 1})
	out, err := c.Solve(context.Background(), JobRequest{
		Scenario: "lasso", N: 16, Engine: "dist", Workers: 2,
		Knobs: map[string]string{"max_link_delay": "2562047h47m16.854775807s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report != nil || !strings.Contains(out.JobErr, "MaxDelay") {
		t.Fatalf("job error %q, report %v; want the MaxDelay refusal", out.JobErr, out.Report != nil)
	}
	out, err = c.Solve(context.Background(), JobRequest{Scenario: "lasso", N: 16, Seed: 7})
	if err != nil || out.Report == nil || !out.Report.Converged {
		t.Fatalf("the next job: %v, %+v", err, out)
	}
}

// slowJob is a request that cannot finish on its own: stopping disabled,
// huge budget — only its deadline or a cancel ends it.
func slowJob(timeoutMS int64) JobRequest {
	tol := 0.0
	return JobRequest{
		Scenario: "lasso", N: 16, Seed: 7,
		Tol: &tol, MaxIter: 1 << 30, TimeoutMS: timeoutMS,
	}
}

// TestServeAdmissionControl fills one worker and a depth-1 queue with
// unbounded jobs; the third concurrent job must be refused with 503 and a
// Retry-After hint.
func TestServeAdmissionControl(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 1, MaxJobTime: 20 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Solve(ctx, slowJob(15000)) // ends via cancel below
		}()
	}
	// Wait until one job runs and one sits in the queue — the server is
	// provably saturated before the third job asks.
	waitHealth(t, c, func(h *Health) bool { return h.Running == 1 && h.Queued == 1 })

	out, err := c.Solve(context.Background(), slowJob(15000))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rejected {
		t.Fatal("third job was admitted past a full queue")
	}
	if out.RetryAfter <= 0 {
		t.Fatalf("503 carried no Retry-After hint (got %v)", out.RetryAfter)
	}
	cancel()
	wg.Wait()
	h := waitHealth(t, c, func(h *Health) bool { return h.Rejected >= 1 })
	if h.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2", h.Accepted)
	}
}

// TestServeJobDeadline: a job whose timeout_ms elapses mid-run ends with a
// terminal error event naming the deadline, and the worker is freed.
func TestServeJobDeadline(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 2})
	out, err := c.Solve(context.Background(), slowJob(150))
	if err != nil {
		t.Fatal(err)
	}
	if out.JobErr == "" {
		t.Fatalf("deadline-bound unbounded job returned a report (converged=%v)", out.Report != nil && out.Report.Converged)
	}
	if !strings.Contains(out.JobErr, "deadline") {
		t.Fatalf("terminal error %q does not name the deadline", out.JobErr)
	}
	// The pool must be usable right after: the same worker takes new work.
	out2, err := c.Solve(context.Background(), JobRequest{Scenario: "lasso", N: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Report == nil || !out2.Report.Converged {
		t.Fatal("worker did not recover after a deadline-killed job")
	}
}

// TestServeProgressEvents: a long-enough job emits progress liveness events
// before its terminal event.
func TestServeProgressEvents(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 2, ProgressEvery: 20 * time.Millisecond})
	out, err := c.Solve(context.Background(), slowJob(300))
	if err != nil {
		t.Fatal(err)
	}
	if out.Progress == 0 {
		t.Fatal("no progress events over a 300ms job with a 20ms progress period")
	}
}

// TestServeScratchReuse: sequential same-signature jobs hit the signature
// pool instead of allocating fresh scratch state.
func TestServeScratchReuse(t *testing.T) {
	s, c := testServer(t, Config{Workers: 1, QueueDepth: 2})
	req := JobRequest{Scenario: "lasso", N: 16, Seed: 7, Engine: "sim", Workers: 2}
	for i := 0; i < 3; i++ {
		out, err := c.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if out.JobErr != "" {
			t.Fatalf("job %d failed: %s", i, out.JobErr)
		}
	}
	created, reused := s.pool.Stats()
	if created != 1 || reused != 2 {
		t.Fatalf("pool stats created=%d reused=%d, want 1 and 2", created, reused)
	}
}

// TestServeScenariosEndpoint: the listing carries every registered scenario.
func TestServeScenariosEndpoint(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 1})
	list, err := c.Scenarios(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, sc := range repro.Scenarios() {
		want[sc.Name] = false
	}
	for _, info := range list {
		if _, ok := want[info.Name]; !ok {
			t.Fatalf("listing has unregistered scenario %q", info.Name)
		}
		want[info.Name] = true
		if info.Summary == "" || info.DefaultN <= 0 {
			t.Fatalf("scenario %q listed without summary/default size: %+v", info.Name, info)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("registered scenario %q missing from listing", name)
		}
	}
}

// TestServeDrain: Shutdown lets the running job finish its stream, then new
// submissions are refused as draining.
func TestServeDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTP: ts.Client()}

	type result struct {
		out *Outcome
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		out, err := c.Solve(context.Background(), slowJob(400))
		resCh <- result{out, err}
	}()
	waitHealth(t, c, func(h *Health) bool { return h.Running == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight stream broken by drain: %v", r.err)
	}
	if r.out.JobErr == "" && r.out.Report == nil {
		t.Fatal("in-flight job got no terminal event")
	}

	out, err := c.Solve(context.Background(), JobRequest{Scenario: "lasso", N: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Rejected {
		t.Fatal("draining server admitted a new job")
	}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("health status = %q, want draining", h.Status)
	}
}

// TestServeListens: the real listener path (Start/Addr/Shutdown) works on
// an ephemeral port.
func TestServeListens(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", Workers: 1, QueueDepth: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: "http://" + s.Addr()}
	out, err := c.Solve(context.Background(), JobRequest{Scenario: "routing", N: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.JobErr != "" || out.Report == nil || !out.Report.Converged {
		t.Fatalf("routing solve over TCP failed: %+v", out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServeOversizedBodyIs413: a body over the limit is refused as too
// large, not truncated and answered as a JSON syntax error.
func TestServeOversizedBodyIs413(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 1})
	body := `{"scenario":"lasso","delay":"` + strings.Repeat("x", maxRequestBody) + `"}`
	resp, err := c.HTTP.Post(c.Base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %s, want 413", resp.Status)
	}
	// Just under the limit the same shape is read whole and fails on its
	// merits: an unknown delay model, 400.
	body = `{"scenario":"lasso","delay":"` + strings.Repeat("x", maxRequestBody-64) + `"}`
	resp2, err := c.HTTP.Post(c.Base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %s, want 400", resp2.Status)
	}
}

// TestClientReusesConnection: Solve reads each stream to its end, so ten
// sequential jobs travel over one keep-alive connection.
func TestClientReusesConnection(t *testing.T) {
	_, c := testServer(t, Config{Workers: 1, QueueDepth: 1})
	dials := 0
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				dials++
			}
		},
	})
	for i := 0; i < 10; i++ {
		out, err := c.Solve(ctx, JobRequest{Scenario: "lasso", N: 16, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if out.Report == nil || !out.Report.Converged {
			t.Fatalf("job %d: %+v", i, out)
		}
	}
	if dials != 1 {
		t.Fatalf("10 sequential jobs used %d connections, want 1", dials)
	}
}
