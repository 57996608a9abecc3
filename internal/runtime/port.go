package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flexible"
	"repro/internal/operators"
	"repro/internal/vec"
)

// Config describes a concurrent asynchronous run. It is the configuration
// of every engine that runs the Worker loop: RunShared and RunMessage take
// it as is, internal/dist embeds it next to its network knobs and
// internal/des next to its simulated machine.
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
	// Flexible publishes partial block values mid-phase (both in-process
	// engines; internal/dist has its own DeltaThreshold instead).
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
	// PerWorker fills Result.PerWorker (dist leaves it empty).
	PerWorker bool
}

// Result reports a concurrent run.
type Result struct {
	X                []float64
	Converged        bool
	UpdatesPerWorker []int
	Elapsed          time.Duration
	// MessagesSent/MessagesDropped count a message per block version and
	// dependent peer (one whose rows read some of the block) on both
	// in-process engines, and frames on TCP; in process, a drop is a version
	// superseded before its reader read it.
	MessagesSent, MessagesDropped int64
	// Cancelled reports that Config.Done fired before the run converged or
	// exhausted its budgets.
	Cancelled bool
	// PerWorker is each worker's time split, when Config.PerWorker asks.
	PerWorker []Stats
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
	if c.X0 != nil && len(c.X0) != n { // nil reads as zeros
		return 0, fmt.Errorf("runtime: X0 length %d, want %d", len(c.X0), n)
	}
	if c.MaxUpdatesPerWorker <= 0 {
		c.MaxUpdatesPerWorker = 1 << 20
	}
	return n, nil
}

// run is one in-process run: the block partition, the boxes that carry
// blocks between workers, the doorbells, the termination tracker and the
// stop broadcast. The two in-process engines differ only in the box
// layout, which newRun alone picks.
type run struct {
	cfg    Config
	blocks [][2]int
	q      *Tracker

	// boxes[box(s, d)] carries writer s's block to reader d.
	boxes []blockSlot
	// perWriter and perReader are the layout's strides (see box).
	perWriter, perReader int
	// peers[d] is reader d (see peer); wake is the supervisor's doorbell,
	// rung by every Account.
	peers []peer
	wake  chan struct{}

	stopCh                        chan struct{}
	stopOnce                      sync.Once
	stopped, converged, cancelled atomic.Bool

	errOnce sync.Once
	err     error // the first worker's error; read once every worker has left
}

// box is the index of the box in which reader d finds writer s's block:
// s when every writer has one box that all its peers read (shared
// memory), s·p + d when every (writer, reader) pair has its own (message
// passing).
func (r *run) box(s, d int) int { return s*r.perWriter + d*r.perReader }

// newRun validates cfg and builds the run's boxes, one per writer or one per
// (writer, reader) pair, and a Worker per block with a port over them bound
// to its view; a writer's buffers come from its scratch's Own slots. A box
// holds its pair's window (message) or the hull of its writer's (shared).
func newRun(cfg Config, perPair bool) (*run, []port, []Worker, error) {
	n, err := cfg.Validate()
	if err != nil {
		return nil, nil, nil, err
	}
	r := &run{cfg: cfg, blocks: vec.Blocks(n, cfg.Workers), perWriter: 1,
		wake: make(chan struct{}, 1), stopCh: make(chan struct{})}
	p := len(r.blocks)
	if perPair {
		r.perWriter, r.perReader = p, 1
	}
	r.q = NewTracker(p)
	r.boxes = make([]blockSlot, p*r.perWriter)
	r.peers = make([]peer, p)
	ports := make([]port, p)
	for d, bd := range r.blocks {
		r.peers[d].bell = make(chan struct{}, 1)
		r.peers[d].a, r.peers[d].b = operators.Reach(cfg.Op, bd[0], bd[1])
		for s := range r.blocks {
			lo, hi := r.window(s, d)
			if s == d || lo >= hi {
				continue
			}
			ports[s].readers++
			box := &r.boxes[r.box(s, d)]
			if box.lo == box.hi {
				box.lo = lo
			}
			box.lo, box.hi = min(box.lo, lo), max(box.hi, hi)
		}
	}
	seen := make([]uint64, p*p)
	workers := make([]Worker, p)
	for s, b := range r.blocks {
		scr := operators.WorkerScratch(cfg.Scratches, s, cfg.Tuning)
		workers[s] = Worker{ID: s, Op: cfg.Op, Scratch: scr, Tol: cfg.Tol, Budget: cfg.MaxUpdatesPerWorker,
			Progress: cfg.Progress, View: KeptView(scr, cfg.X0, n)}
		if cfg.PerWorker {
			workers[s].Stats = new(Stats)
		}
		own := r.boxes[s*r.perWriter : (s+1)*r.perWriter]
		vals := scr.Own(OwnBox, len(own)*(b[1]-b[0])) // written by a publish before any read
		for i := range own {
			k := own[i].hi - own[i].lo
			own[i].vals, vals = vals[:k:k], vals[k:]
		}
		ports[s] = port{Slot: r.q.Slot(s), r: r, view: workers[s].View, seen: seen[s*p : (s+1)*p], readers: ports[s].readers}
		if cfg.Flexible.Enabled() {
			ports[s].flex = scr.Own(OwnFlex, 2*(b[1]-b[0]))
			copy(ports[s].flex, workers[s].View[b[0]:b[1]])
		}
	}
	return r, ports, workers, nil
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

// supervise is the run's supervisor (the scheme of [22]). It sleeps on its
// doorbell, which every Account rings — a worker parks, re-parks or resumes
// only through Account, and those are the only moments the answer to "is
// the run quiescent" can change from no to yes — and broadcasts stop once
// the double collect of quiescence.go certifies the end state: converged
// when every worker was passive, not converged when some worker was spent
// on data it could not iterate away. Config.Done turns into the same stop
// broadcast, so workers leave at their next Drain or Wait.
func (r *run) supervise() {
	for {
		if r.q.Quiescent() {
			r.converged.Store(!r.q.Observe().Exhausted) // frozen: a third collect reads the same state
			r.stop()
			return
		}
		select {
		case <-r.wake:
		case <-r.stopCh:
			return
		case <-r.cfg.Done:
			r.cancelled.Store(true)
			r.stop()
			return
		}
	}
}

// solve builds a run in the box layout perPair picks, runs its supervisor
// and one Worker per block over its port, and assembles the result once
// they have all left: each block of X comes from its owner's view, the
// authoritative copy.
func solve(cfg Config, perPair bool) (*Result, error) {
	r, ports, workers, err := newRun(cfg, perPair)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1 + len(workers))
	go func() {
		defer wg.Done()
		r.supervise()
	}()
	for w := range workers {
		wk := &workers[w]
		go func() {
			defer wg.Done()
			if err := wk.Run(&ports[w]); err != nil {
				r.fail(err)
			}
		}()
	}
	wg.Wait()
	if r.err != nil {
		return nil, r.err
	}

	res := &Result{
		X:                make([]float64, r.blocks[len(r.blocks)-1][1]),
		Converged:        r.converged.Load(),
		UpdatesPerWorker: make([]int, len(workers)),
		Elapsed:          time.Since(start),
		MessagesSent:     r.q.Sent(),
		MessagesDropped:  r.q.Dropped(),
		Cancelled:        r.cancelled.Load(),
	}
	for w, b := range r.blocks {
		copy(res.X[b[0]:b[1]], workers[w].View[b[0]:b[1]])
		res.UpdatesPerWorker[w] = workers[w].Updates
		if s := workers[w].Stats; s != nil {
			res.PerWorker = append(res.PerWorker, *s)
		}
	}
	return res, nil
}

// blockSlot is one box: components [lo, hi) of a block as a reader takes
// them, newest wins. vals is written and read only under mu; ver counts the
// publishes, bumped under mu and read without it so a reader can skip a
// block that has not changed. Padded to a cache line so one box's lock
// traffic stays off its neighbours'.
type blockSlot struct {
	mu     sync.Mutex
	ver    atomic.Uint64
	vals   []float64
	lo, hi int
	_      [8]byte
}

// publish overwrites the box with vals (hi-lo of them) and bumps its version.
func (b *blockSlot) publish(vals []float64) {
	b.mu.Lock()
	copy(b.vals, vals)
	b.ver.Add(1)
	b.mu.Unlock()
}

// readIfNewer copies the box from component at into dst only if its version
// moved past *seen, moves *seen to it, and returns by how many (0: no copy).
func (b *blockSlot) readIfNewer(dst []float64, at int, seen *uint64) (moved uint64) {
	if b.ver.Load() != *seen {
		b.mu.Lock()
		copy(dst, b.vals[at-b.lo:])
		v := b.ver.Load()
		b.mu.Unlock()
		moved, *seen = v-*seen, v
	}
	return moved
}

// peer is a reader: its doorbell and the range [a, b) its rows read.
type peer struct {
	bell chan struct{}
	a, b int
}

// window is what reader d's rows read of writer s's block (lo >= hi: none).
func (r *run) window(s, d int) (lo, hi int) {
	return max(r.peers[d].a, r.blocks[s][0]), min(r.peers[d].b, r.blocks[s][1])
}

// port is the in-process Transport, over either box layout. A publish
// overwrites its boxes under their locks, and a reader copies its window
// out of a box only when the box's version moved: it sees each window
// exactly as some publish left it — under flexible communication part of
// an interpolated partial — and an inconsistent cut only across blocks,
// which is the asynchronous read model. Newest wins, the out-of-order
// messages rule: a publish supersedes what a reader has not read yet.
//
// A publish to a peer whose window is not empty is one message; a read
// delivers one and drops every version it skipped, so in flight is the
// sum over readers of the versions they have not read. Publish never
// blocks, and the reliable final sends nothing: it repeats the block its
// phase has just published, and a box never loses its newest value. Any
// receipt reactivates a passive worker BEFORE the delivery is
// acknowledged (quiescence.go's ordering rule).
//
// Nothing polls: a parked worker sleeps on its doorbell, which every
// publish to it rings, and the stop channel.
type port struct {
	Slot
	r    *run
	view []float64
	// seen[s] is the version of box(s, w) that the view holds; readers
	// counts the peers whose window of the worker's block is not empty, the
	// messages a send counts.
	seen    []uint64
	readers int64
	// flex is the block as last published, the start point flexible
	// partials interpolate from, then the partial; nil without a flexible
	// schedule.
	flex []float64
}

func (p *port) Block() (lo, hi int) { return p.r.blocks[p.w][0], p.r.blocks[p.w][1] }

//repro:hotpath
func (p *port) Drain() (in Input, err error) {
	if p.r.stopped.Load() {
		return Stop, nil
	}
	a, b := p.r.peers[p.w].a, p.r.peers[p.w].b
	for s := range p.seen {
		box := &p.r.boxes[p.r.box(s, p.w)]
		lo, hi := max(a, box.lo), min(b, box.hi) // the window, see run.window
		if s == p.w || lo >= hi || box.ver.Load() == p.seen[s] {
			continue
		}
		p.Slot.Account(Active) // before anything is acknowledged
		if moved := box.readIfNewer(p.view[lo:hi], lo, &p.seen[s]); moved > 1 {
			p.q.MsgDropped(int64(moved - 1)) // superseded before they were read
		}
		p.q.MsgDelivered()
		in = Fresh
	}
	return in, nil
}

func (p *port) Wait() (Input, error) {
	select {
	case <-p.r.peers[p.w].bell:
		return p.Drain()
	case <-p.r.stopCh:
		return Stop, nil
	}
}

//repro:hotpath
func (p *port) Publish(vals []float64, reliable bool) error {
	if reliable {
		return nil
	}
	last, part := p.flex[:len(p.flex)/2], p.flex[len(p.flex)/2:]
	for _, f := range p.r.cfg.Flexible.Fracs {
		if f < 1 {
			vec.LerpInto(part, last, vals, f)
			p.send(part)
		}
	}
	p.send(vals)
	copy(last, vals)
	return nil
}

// send is one version of the worker's block to every peer that reads it:
// a message each, counted before any version moves (in flight is never
// negative), then every box written once and every such doorbell rung.
//
//repro:hotpath
func (p *port) send(vals []float64) {
	r := p.r
	p.q.MsgSent(p.readers)
	var written *blockSlot
	for d := range r.peers {
		if lo, hi := r.window(p.w, d); d == p.w || lo >= hi {
			continue
		}
		if b := &r.boxes[r.box(p.w, d)]; b != written {
			b.publish(vals[b.lo-r.blocks[p.w][0]:][:b.hi-b.lo])
			written = b
		}
		select {
		case r.peers[d].bell <- struct{}{}:
		default: // a pending ring is as good as many
		}
	}
}

func (p *port) Account(s State) {
	p.Slot.Account(s)
	select {
	case p.r.wake <- struct{}{}:
	default: // a pending ring is as good as many
	}
}

// RunShared executes the Worker loop over shared memory: one goroutine per
// block, each writer publishing into one box that every peer reads.
func RunShared(cfg Config) (*Result, error) { return solve(cfg, false) }

// RunMessage executes the Worker loop over message passing: one goroutine
// per block, each (sender, receiver) pair with a mailbox of its own.
func RunMessage(cfg Config) (*Result, error) { return solve(cfg, true) }
