package dist

// Elastic membership: the knobs, the worker-side rejoin/backoff machinery,
// and the chaos harness. The coordinator-side protocol (the reshard barrier,
// checkpoint collection) lives in coordstate.go, loss detection in
// coordinator.go; the worker side in worker.go; the frames in wire.go.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/operators"
)

// Elastic is the dist engine's elasticity knob group, the one declaration of
// these knobs (the repro package exports it as repro.Elastic). Membership is
// always elastic: a worker whose link fails is lost, the coordinator
// re-shards the component space over the survivors and keeps solving, and a
// restarted worker can claim the freed slot and warm-start from the
// checkpointed iterate. The knobs only pace that machinery; the zero value
// detects a lost worker by its connection failing and streams no
// checkpoints. None of them changes a churn-free trajectory.
type Elastic struct {
	// HeartbeatEvery picks how silence is detected. Zero trusts the
	// connection: a worker is lost when a read or write on its link fails,
	// which catches a crashed process or a closed socket but not a stalled
	// one. A positive period makes each worker write a heartbeat frame on
	// the control link at this cadence whenever no other frame has gone out,
	// and the coordinator treats a link silent for max(6×HeartbeatEvery,
	// 200ms) as lost too. Choose it comfortably above one block evaluation
	// so a slow iteration is not mistaken for a dead worker.
	HeartbeatEvery time.Duration
	// CheckpointEvery is the cadence at which an active worker streams a
	// checkpoint of its shard to the coordinator, which folds it into the
	// warm-start iterate handed to rejoining workers (a re-shard folds in
	// every survivor's shard either way). Checkpoints ride the heartbeat
	// pacing, so they require HeartbeatEvery > 0; zero defaults to
	// 4×HeartbeatEvery.
	CheckpointEvery time.Duration
	// MaxRejoinWait bounds a restarted worker's dial/register retry loop
	// (capped exponential backoff with jitter). Zero means the default,
	// see RejoinWait.
	MaxRejoinWait time.Duration
	// CheckpointPath, when non-empty, additionally persists the
	// coordinator's warm-start iterate to this file (atomically, at most
	// once per CheckpointEvery) and, when a matching-dimension checkpoint
	// exists at startup, warm-starts the whole run from it instead of X0 —
	// a coordinator-level restart survives with the last solve's progress.
	// Like CheckpointEvery, it requires HeartbeatEvery > 0.
	CheckpointPath string
}

func (e *Elastic) validate() error {
	for _, d := range []time.Duration{e.HeartbeatEvery, e.CheckpointEvery, e.MaxRejoinWait} {
		if d < 0 || d > maxDuration {
			return fmt.Errorf("dist: Elastic duration %v outside [0, %v]", d, maxDuration)
		}
	}
	if e.HeartbeatEvery == 0 && (e.CheckpointEvery > 0 || e.CheckpointPath != "") {
		return errors.New("dist: Elastic checkpointing requires HeartbeatEvery > 0")
	}
	if e.CheckpointEvery == 0 {
		e.CheckpointEvery = 4 * e.HeartbeatEvery
	}
	return nil
}

// RejoinWait is how long a restarted worker keeps retrying to rejoin:
// MaxRejoinWait, or 10s when it is zero.
func (e Elastic) RejoinWait() time.Duration {
	if e.MaxRejoinWait > 0 {
		return e.MaxRejoinWait
	}
	return 10 * time.Second
}

// silence is how long a link may stay quiet before its worker is lost: zero
// (never, only a failed read or write loses it) without heartbeats. The
// multiple absorbs scheduler jitter under load (a false positive costs a
// spurious re-shard); the floor keeps tiny test cadences from turning GC
// pauses into worker losses.
func (e Elastic) silence() time.Duration {
	if e.HeartbeatEvery <= 0 {
		return 0
	}
	return max(6*e.HeartbeatEvery, 200*time.Millisecond)
}

// The checkpoint file layout: magic, u32 dimension, f64×n values. It is
// written via a temp file + rename so readers never observe a torn write.
const checkpointMagic = "repro-dist-ckpt1"

func writeCheckpointFile(path string, x []float64) error {
	buf := make([]byte, 0, len(checkpointMagic)+4+8*len(x))
	buf = append(buf, checkpointMagic...)
	buf = appendU32(buf, uint32(len(x)))
	buf = appendF64s(buf, x)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readCheckpointFile loads a checkpoint written by writeCheckpointFile,
// returning (nil, nil) when no file exists and an error only for a file that
// exists but is corrupt, has the wrong dimension or carries a NaN — a NaN
// iterate can only burn the run's budget (±Inf stays legal: routing
// checkpoints unreachable nodes as +Inf).
func readCheckpointFile(path string, n int) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(raw) < len(checkpointMagic)+4 || string(raw[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("dist: %s is not a checkpoint file", filepath.Base(path))
	}
	cur := cursor{b: raw[len(checkpointMagic):]}
	dim := int(cur.u32())
	if dim != n || len(cur.b) != 8*n {
		return nil, fmt.Errorf("dist: checkpoint %s has dimension %d, want %d", filepath.Base(path), dim, n)
	}
	x := cur.f64s(n)
	for i, v := range x {
		if v != v {
			return nil, fmt.Errorf("dist: %s is not a checkpoint file: value %d is NaN", filepath.Base(path), i)
		}
	}
	return x, nil
}

// Rejoin configures the dial/register retry loop of ConnectWorker.
type Rejoin struct {
	// MaxWait bounds the total retrying time; zero means a single attempt
	// (what Run's initial workers make: its listener is already up).
	MaxWait time.Duration
	// Seed drives the backoff jitter. Seeding it from the worker's identity
	// (RunChaos uses Fault.Seed mixed with the slot) keeps retry schedules
	// reproducible run to run.
	Seed uint64
}

// WorkerOptions bundles the optional knobs of ConnectWorker.
type WorkerOptions struct {
	// Scratch is the reusable operator scratch (nil allocates one).
	Scratch *operators.Scratch
	// Rejoin is the dial/register retry policy.
	Rejoin Rejoin
	// Ctl, when non-nil, lets the caller kill this worker mid-run (the
	// chaos harness's kill switch).
	Ctl *WorkerCtl
	// progress is the run's Progress counter, shared with the Worker loop
	// of a worker that runs inside the coordinator's process (see Run).
	progress *atomic.Int64
}

// WorkerCtl is a kill switch for one in-process worker: Kill closes every
// connection (and listener) the worker has registered and stops any retry
// loop, making the worker indistinguishable from a crashed process to
// everyone else.
type WorkerCtl struct {
	mu     sync.Mutex
	conns  []io.Closer
	killed bool
}

// Kill abruptly severs the worker. Safe to call at any time and more than
// once.
func (c *WorkerCtl) Kill() {
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	c.killed = true
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

// Killed reports whether Kill has been called.
func (c *WorkerCtl) Killed() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// register adds a connection to the kill set; it reports false (and the
// caller must abandon the connection) when the worker is already killed.
func (c *WorkerCtl) register(conn io.Closer) bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		return false
	}
	c.conns = append(c.conns, conn)
	return true
}

// errWorkerKilled is returned by a worker severed through its WorkerCtl.
var errWorkerKilled = errors.New("dist: worker killed")

// rejectedError is a coordinator msgReject: the rejoin attempt found no free
// worker slot (typically a transient state while the lost link's read
// deadline has not yet expired), so it is retried under backoff.
type rejectedError struct{ reason string }

func (e *rejectedError) Error() string { return "dist: rejoin rejected: " + e.reason }

// Dial/register backoff bounds: capped exponential, factor 2, jittered to
// [backoff/2, backoff) so simultaneously restarted workers do not dial in
// lockstep.
const (
	rejoinBaseBackoff = 10 * time.Millisecond
	rejoinMaxBackoff  = 500 * time.Millisecond
	dialTimeout       = 5 * time.Second
)

// ConnectWorker dials the coordinator and runs one worker to completion,
// retrying the dial/register phase under capped exponential backoff with
// jitter for up to Rejoin.MaxWait — the client half of elastic rejoin: a
// restarted worker keeps knocking until the coordinator has noticed the old
// link die and freed its slot. Only connect-phase failures (dial errors,
// msgReject) are retried; an error after a successful registration is a run
// error and surfaces immediately.
func ConnectWorker(addr string, op operators.Operator, o WorkerOptions) error {
	// The jitter RNG is seeded from the caller-provided identity, never the
	// clock, so a rerun retries on the same schedule. It is built at the
	// first retry: a math/rand source costs ~5 KiB to seed, and most
	// connects never retry.
	var rng *rand.Rand
	backoff := rejoinBaseBackoff
	start := time.Now()
	for {
		err := connectOnce(addr, op, o)
		if err == nil {
			return nil
		}
		if o.Ctl.Killed() {
			return errWorkerKilled
		}
		var rej *rejectedError
		retryable := errors.As(err, &rej)
		if !retryable {
			var ne net.Error
			var opErr *net.OpError
			retryable = errors.As(err, &ne) && errors.As(err, &opErr) && opErr.Op == "dial"
		}
		if !retryable || o.Rejoin.MaxWait <= 0 {
			return err
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(int64(o.Rejoin.Seed)*7919 + 1))
		}
		sleep := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		if time.Since(start)+sleep >= o.Rejoin.MaxWait {
			return err
		}
		time.Sleep(sleep)
		if backoff *= 2; backoff > rejoinMaxBackoff {
			backoff = rejoinMaxBackoff
		}
	}
}

func connectOnce(addr string, op operators.Operator, o WorkerOptions) error {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("dist: worker dial: %w", err)
	}
	if !o.Ctl.register(conn) {
		conn.Close()
		return errWorkerKilled
	}
	defer conn.Close()
	return runWorker(conn, op, o)
}

// ChaosEvent schedules one kill (and optional restart) of a worker slot.
type ChaosEvent struct {
	// Worker is the initial worker index to kill.
	Worker int
	// KillAfter is when, after the run starts, the worker is severed.
	KillAfter time.Duration
	// RestartAfter is how long after the kill a fresh worker process is
	// launched to rejoin; zero or negative means the worker never comes
	// back.
	RestartAfter time.Duration
}

// ChaosPlan is a deterministic schedule of worker churn for RunChaos.
type ChaosPlan struct {
	Events []ChaosEvent
}

// RunChaos is Run under a churn schedule: it launches the coordinator and
// cfg.Workers in-process workers exactly like Run, then executes the plan —
// severing each event's worker at KillAfter (closing its sockets, exactly
// what a crashed process looks like from the network) and, RestartAfter
// later, launching a replacement worker that rejoins through the elastic
// accept loop, retrying for up to Elastic.RejoinWait.
func RunChaos(cfg Config, plan ChaosPlan) (*Result, error) {
	if _, err := cfg.validate(); err != nil {
		return nil, err
	}
	for _, ev := range plan.Events {
		if ev.Worker < 0 || ev.Worker >= cfg.Workers {
			return nil, fmt.Errorf("dist: chaos event targets worker %d of %d", ev.Worker, cfg.Workers)
		}
		if ev.KillAfter < 0 {
			return nil, fmt.Errorf("dist: chaos event for worker %d has negative KillAfter", ev.Worker)
		}
	}
	return runLocal(cfg, plan)
}
