package runtime

import (
	"errors"
	"fmt"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flexible"
	"repro/internal/operators"
	"repro/internal/vec"
)

// Config describes a concurrent asynchronous run. It is the configuration
// of every engine that runs the Worker loop: RunShared and RunMessage take
// it as is, internal/dist embeds it next to its network knobs.
type Config struct {
	// Op is the fixed-point operator (must be safe for concurrent
	// read-only evaluation).
	Op operators.Operator
	// Workers is the number of workers — goroutines here, TCP workers in
	// internal/dist; components are block-partitioned among them.
	Workers int
	// X0 is the initial iterate (defaults to zero).
	X0 []float64
	// Tol is the per-coordinate displacement tolerance: a worker considers
	// itself locally converged when max_i |F_i(x) - x_i| over its block is
	// <= Tol. For an alpha-contraction the true error is then bounded by
	// Tol/(1-alpha).
	Tol float64
	// MaxUpdatesPerWorker bounds each worker's updating phases. A worker
	// that has spent it stays in the run, absorbing and re-verifying input,
	// until the run stops (see loop.go).
	MaxUpdatesPerWorker int
	// Flexible publishes partial block values mid-phase (shared-memory
	// transport only).
	Flexible flexible.Schedule
	// Scratches, when non-nil, supplies one reusable operator scratch per
	// worker (index = worker id) so repeated runs of the same shape share
	// hot-path buffers. Missing entries fall back to fresh scratches.
	Scratches []*operators.Scratch
	// Tuning is installed on every worker scratch (supplied or fresh), so
	// pooled scratches reused across runs always carry this run's knobs.
	Tuning operators.Tuning
	// Done, when non-nil, cancels the run: every worker stops at its next
	// phase boundary (a parked one at once), the result reports Cancelled
	// and not Converged.
	Done <-chan struct{}
	// Progress, when non-nil, is incremented once per completed updating
	// phase so external observers can watch the run live.
	Progress *atomic.Int64
}

// Result reports a concurrent run.
type Result struct {
	X                []float64
	Converged        bool
	UpdatesPerWorker []int
	Elapsed          time.Duration
	// MessagesSent/MessagesDropped are populated by the message and TCP
	// transports (on message, a drop is a block superseded unread).
	MessagesSent, MessagesDropped int64
	// Cancelled reports that Config.Done fired before the run converged or
	// exhausted its budgets.
	Cancelled bool
}

// Validate checks the configuration against the operator's dimension n,
// which it returns, clamps Workers to it and fills the defaults.
func (c *Config) Validate() (n int, err error) {
	if c.Op == nil {
		return 0, errors.New("runtime: Config.Op is required")
	}
	n = c.Op.Dim()
	if c.Workers < 1 {
		return 0, errors.New("runtime: need at least one worker")
	}
	if c.Workers > n {
		c.Workers = n
	}
	if c.X0 == nil {
		c.X0 = make([]float64, n)
	}
	if len(c.X0) != n {
		return 0, fmt.Errorf("runtime: X0 length %d, want %d", len(c.X0), n)
	}
	if c.MaxUpdatesPerWorker <= 0 {
		c.MaxUpdatesPerWorker = 1 << 20
	}
	return n, nil
}

// run is what the two in-process engines share: the block partition, the
// termination tracker and the stop broadcast.
type run struct {
	cfg    Config
	blocks [][2]int
	q      *Tracker

	stopCh                        chan struct{}
	stopOnce                      sync.Once
	stopped, converged, cancelled atomic.Bool

	errOnce sync.Once
	err     error // the first worker's error; read once every worker has left
}

func newRun(cfg Config) (*run, error) {
	n, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, blocks: vec.Blocks(n, cfg.Workers), stopCh: make(chan struct{})}
	r.q = NewTracker(len(r.blocks))
	// Cancellation monitor: Done turns into the same stop broadcast the
	// termination path uses, so workers leave at their next Drain or Wait.
	if cfg.Done != nil {
		go func() {
			select {
			case <-cfg.Done:
				r.cancelled.Store(true)
				r.stop()
			case <-r.stopCh:
			}
		}()
	}
	return r, nil
}

// stop broadcasts the end of the run; safe to call more than once.
func (r *run) stop() {
	r.stopped.Store(true)
	r.stopOnce.Do(func() { close(r.stopCh) })
}

// fail ends the run with a worker's error (in process that is a diverged
// block: the transports have no failure to report); the first one wins.
func (r *run) fail(err error) {
	r.errOnce.Do(func() { r.err = err })
	r.stop()
}

// solve runs one Worker per block over the transport port builds for it
// and assembles the result once every worker has left its loop: each
// block of X comes from its owner's view, the authoritative copy.
func (r *run) solve(port func(w int, wk *Worker) Transport) (*Result, error) {
	cfg := &r.cfg
	workers := make([]Worker, len(r.blocks))
	start := time.Now()
	var wg sync.WaitGroup
	for w := range workers {
		wk := &workers[w]
		*wk = Worker{
			ID: w, Op: cfg.Op, Scratch: operators.WorkerScratch(cfg.Scratches, w, cfg.Tuning),
			Tol: cfg.Tol, Budget: cfg.MaxUpdatesPerWorker,
			Progress: cfg.Progress,
			View:     append([]float64(nil), cfg.X0...),
		}
		t := port(w, wk)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(t); err != nil {
				r.fail(err)
			}
		}()
	}
	wg.Wait()
	r.stop() // release the cancellation monitor on every path
	if r.err != nil {
		return nil, r.err
	}

	res := &Result{
		X:                make([]float64, len(cfg.X0)),
		Converged:        r.converged.Load(),
		UpdatesPerWorker: make([]int, len(workers)),
		Elapsed:          time.Since(start),
		Cancelled:        r.cancelled.Load(),
	}
	for w, b := range r.blocks {
		copy(res.X[b[0]:b[1]], workers[w].View[b[0]:b[1]])
		res.UpdatesPerWorker[w] = workers[w].Updates
	}
	return res, nil
}

// blockSlot is one worker's block as a reader takes it, newest wins: vals
// is written and read only under mu; ver counts the publishes, bumped under
// mu and read without it so a reader can skip a block that has not changed.
// Padded to a cache line so one block's lock traffic stays off its
// neighbours'.
type blockSlot struct {
	mu   sync.Mutex
	ver  atomic.Uint64
	vals []float64
	_    [24]byte
}

// publish overwrites the block with vals and bumps its version.
func (b *blockSlot) publish(vals []float64) {
	b.mu.Lock()
	copy(b.vals, vals)
	b.ver.Add(1)
	b.mu.Unlock()
}

// read copies the block as last published into dst and returns its version.
func (b *blockSlot) read(dst []float64) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	copy(dst, b.vals)
	return b.ver.Load()
}

// readIfNewer copies the block into dst only if its version moved past
// *seen, moves *seen to it, and returns by how many versions (0: no copy).
func (b *blockSlot) readIfNewer(dst []float64, seen *uint64) (moved uint64) {
	if b.ver.Load() != *seen {
		v := b.read(dst)
		moved, *seen = v-*seen, v
	}
	return moved
}

// sharedPort is the shared-memory Transport: every worker publishes its
// block whole, under the block's lock, and Drain copies the peer blocks
// that were published since it last looked. A reader therefore sees each
// block exactly as some publish left it — under flexible communication a
// whole interpolated partial — and an inconsistent cut only across blocks,
// which is the asynchronous read model. Publishes cannot be lost, so the
// reliable final has nothing left to do.
//
// Shared memory has no event to block on. Wait is one attempt to certify
// the run followed by a yield: once every worker is parked the published
// vector is frozen, so the waiting worker copies every block and re-checks
// the full fixed-point residual between the two collects of the double
// collect. A residual computed from a cut that straddles a peer's
// mid-phase publishes can never stop the run — that peer was active at one
// of the collects or bumped the epoch in between. A publish needs no
// acknowledgement either, so a waiting worker stays passive until the loop
// finds its block displaced and accounts it active before its next publish.
type sharedPort struct {
	slot
	r   *run
	wk  *Worker
	pub []blockSlot
	// seen[k] is the version of peer k's block that the view holds.
	seen []uint64
	// last is the block as last published, the start point flexible
	// partials interpolate from; nil without a flexible schedule.
	last []float64
	// cert is certify's copy of the published vector, allocated by its
	// first call: a worker that never observes all-passive needs none.
	cert []float64
}

func (p *sharedPort) Block() (lo, hi int) { return p.r.blocks[p.w][0], p.r.blocks[p.w][1] }

//repro:hotpath
func (p *sharedPort) Drain() (in Input, err error) {
	if p.r.stopped.Load() {
		return Stop, nil
	}
	for k := range p.pub {
		if k != p.w && p.pub[k].readIfNewer(p.wk.View[p.r.blocks[k][0]:], &p.seen[k]) > 0 {
			in = Fresh
		}
	}
	return in, nil
}

func (p *sharedPort) Wait() (Input, error) {
	if p.q.Quiescent(p.certify) {
		p.r.converged.Store(!p.q.Observe().Exhausted) // frozen: a third collect reads the same state
		p.r.stop()
	} else {
		gort.Gosched()
	}
	return p.Drain()
}

//repro:hotpath
func (p *sharedPort) Publish(vals []float64, reliable bool) error {
	if reliable {
		return nil
	}
	b := &p.pub[p.w]
	for _, f := range p.r.cfg.Flexible.Fracs {
		if f >= 1 {
			continue
		}
		b.mu.Lock()
		vec.LerpInto(b.vals, p.last, vals, f)
		b.ver.Add(1)
		b.mu.Unlock()
	}
	b.publish(vals)
	copy(p.last, vals)
	return nil
}

// certify reports whether the published vector, every block copied
// whatever its version, is within Tol of its image. ResidualWith routes
// through ONE full operator application, not n componentwise evaluations
// each redoing the shared work.
func (p *sharedPort) certify() bool {
	if p.cert == nil {
		p.cert = make([]float64, len(p.wk.View))
	}
	for k := range p.pub {
		p.pub[k].read(p.cert[p.r.blocks[k][0]:])
	}
	return operators.ResidualWith(p.wk.Op, p.wk.Scratch, p.cert) <= p.wk.Tol
}

// sharedPorts builds the run's shared memory — one copy of X0 cut along
// r.blocks — and a port per worker; solve binds each port to its Worker.
func (r *run) sharedPorts() []sharedPort {
	shared := append([]float64(nil), r.cfg.X0...)
	pub := make([]blockSlot, len(r.blocks))
	ports := make([]sharedPort, len(r.blocks))
	for w, b := range r.blocks {
		pub[w].vals = shared[b[0]:b[1]]
		ports[w] = sharedPort{slot: slot{r.q, w}, r: r, pub: pub, seen: make([]uint64, len(pub))}
		if r.cfg.Flexible.Enabled() {
			ports[w].last = append([]float64(nil), pub[w].vals...)
		}
	}
	return ports
}

// RunShared executes the Worker loop over shared memory: one goroutine per
// block, publishing it and reading its peers' (see sharedPort).
func RunShared(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	ports := r.sharedPorts()
	return r.solve(func(w int, wk *Worker) Transport {
		ports[w].wk = wk
		return &ports[w]
	})
}
