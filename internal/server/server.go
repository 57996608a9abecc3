package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Config sizes the server. The zero value is usable: every field has a
// sensible default.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8080"; use ":0" to
	// pick a free port and read it back from Addr()).
	Addr string
	// QueueDepth bounds the admitted-but-not-running job queue (default 16).
	// A full queue is the admission-control signal: new jobs get 503.
	QueueDepth int
	// Workers is the number of concurrent solves (default GOMAXPROCS).
	Workers int
	// MaxJobTime caps every job's run time (default 60s); each job may
	// shorten it with timeout_ms but never extend it.
	MaxJobTime time.Duration
	// ProgressEvery is the NDJSON progress-event period (default 500ms).
	ProgressEvery time.Duration
	// RetryAfter is the hint sent with 503 rejections (default 1s).
	RetryAfter time.Duration
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobTime <= 0 {
		c.MaxJobTime = 60 * time.Second
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 500 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// Server is the solver-as-a-service HTTP front end: admission control into
// a bounded queue, a fixed worker pool running repro.Solve jobs on cached
// scenario instances with signature-keyed scratch reuse, NDJSON-streamed
// results, and graceful drain.
type Server struct {
	cfg       Config
	pool      *ScratchPool
	instances *instanceCache

	queue chan *job
	wg    sync.WaitGroup // worker goroutines

	listener  net.Listener
	httpSrv   *http.Server
	serveDone chan struct{} // closed when the Serve goroutine exits

	draining  atomic.Bool
	nextJobID atomic.Int64
	running   atomic.Int64
	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
}

// New builds a Server and starts its worker pool; call Start to listen.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:       cfg,
		pool:      NewScratchPool(),
		instances: newInstanceCache(instanceBudget),
		queue:     make(chan *job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.running.Add(1)
		j.run(s.pool, s.instances)
		s.running.Add(-1)
		s.completed.Add(1)
	}
}

// Handler returns the routed HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// Start begins listening on cfg.Addr. It returns once the listener is
// bound; serving continues until Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.serveDone = make(chan struct{})
	go func() {
		defer close(s.serveDone)
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logf("server: serve: %v", err)
		}
	}()
	s.logf("server: listening on %s (queue %d, workers %d)", ln.Addr(), s.cfg.QueueDepth, s.cfg.Workers)
	return nil
}

// Addr reports the bound listen address (useful with Addr ":0").
func (s *Server) Addr() string {
	if s.listener == nil {
		return s.cfg.Addr
	}
	return s.listener.Addr().String()
}

// Shutdown drains gracefully: admission stops (new jobs get 503), in-flight
// streams and queued jobs run to completion (or to ctx's deadline), then
// the worker pool exits. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.logf("server: draining (queued %d, running %d)", len(s.queue), s.running.Load())
	var err error
	if s.httpSrv != nil {
		// Shutdown waits for active handlers — every queued job keeps its
		// streaming handler open, so this also waits out the queue.
		err = s.httpSrv.Shutdown(ctx)
		// Serve returns as soon as Shutdown closes the listener; join its
		// goroutine so no stray logf races the caller after we return.
		<-s.serveDone
	}
	close(s.queue)
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	s.logf("server: drained (completed %d, rejected %d)", s.completed.Load(), s.rejected.Load())
	return err
}

// maxRequestBody bounds a POST /v1/solve body; a larger one is answered 413.
const maxRequestBody = 1 << 20

// reject sends the admission-control refusal: 503 with a Retry-After hint.
func (s *Server) reject(w http.ResponseWriter, reason string) {
	s.rejected.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	http.Error(w, reason, http.StatusServiceUnavailable)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() {
		s.reject(w, "server is draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), status)
		return
	}
	req, err := DecodeJobRequest(body)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	j, err := resolve(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The job dies with the client connection or its deadline, whichever
	// fires first: Spec.Ctx plumbs this straight into the engine hot loop.
	j.ctx, j.cancel = context.WithTimeout(r.Context(), j.timeout(s.cfg.MaxJobTime))
	defer j.cancel()

	// Admission control: a full queue refuses immediately — no blocking,
	// no unbounded buffering.
	j.id = fmt.Sprintf("job-%d", s.nextJobID.Add(1))
	select {
	case s.queue <- j:
	default:
		s.reject(w, "job queue full")
		return
	}
	s.accepted.Add(1)
	s.logf("server: %s accepted (%s/%s n=%d)", j.id, j.req.Scenario, j.engine.Name(), j.n)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.stream(w, j)
}

// stream writes the job's NDJSON event sequence: accepted, started,
// periodic progress, then exactly one terminal report/error event.
func (s *Server) stream(w http.ResponseWriter, j *job) {
	enc := json.NewEncoder(w) // Encode writes json.Marshal(ev) and a newline
	flusher, _ := w.(http.Flusher)
	emit := func(ev Event) {
		ev.JobID = j.id
		if err := enc.Encode(ev); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	begin := time.Now()
	emit(Event{Type: EventAccepted, Queued: len(s.queue)})

	ticker := time.NewTicker(s.cfg.ProgressEvery)
	defer ticker.Stop()
	startedCh := j.started
	for {
		select {
		case <-startedCh:
			emit(Event{Type: EventStarted})
			startedCh = nil // a closed channel always wins a select; disarm it
		case <-ticker.C:
			emit(Event{
				Type:      EventProgress,
				Updates:   j.progress.Updates(),
				ElapsedMS: time.Since(begin).Milliseconds(),
			})
		case <-j.done:
			elapsed := time.Since(begin).Milliseconds()
			if j.err != nil {
				s.logf("server: %s failed: %v", j.id, j.err)
				emit(Event{Type: EventError, Error: j.err.Error(), ElapsedMS: elapsed})
				return
			}
			s.logf("server: %s done (converged=%v updates=%d)", j.id, j.report.Converged, j.report.Updates)
			emit(Event{Type: EventReport, Report: j.report, Describe: j.describe, ElapsedMS: elapsed})
			return
		}
	}
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	list := repro.Scenarios()
	out := make([]ScenarioInfo, 0, len(list))
	for _, sc := range list {
		out = append(out, ScenarioInfo{Name: sc.Name, Summary: sc.Summary, DefaultN: sc.DefaultN})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	created, reused := s.pool.Stats()
	built, hits, _ := s.instances.stats()
	h := Health{
		Status:          status,
		Queued:          len(s.queue),
		Running:         s.running.Load(),
		Accepted:        s.accepted.Load(),
		Rejected:        s.rejected.Load(),
		Completed:       s.completed.Load(),
		ScratchCreated:  created,
		ScratchReused:   reused,
		InstancesBuilt:  built,
		InstancesReused: hits,
	}
	w.Header().Set("Content-Type", "application/json")
	if status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}
