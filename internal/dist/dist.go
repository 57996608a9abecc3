// Package dist executes asynchronous iterations across workers that
// exchange shard frames over real TCP sockets — the genuinely distributed
// transport behind the repro "dist" engine. Each worker owns a contiguous
// multi-component shard of the iterate (Workers may be far smaller than the
// dimension) and publishes [offset, len) slices of it; under a delta
// threshold only the components that moved significantly are shipped — the
// paper's flexible communication realized on the wire.
//
// Two data planes share one control plane — rendezvous, config
// distribution, membership, probe-round double-collect termination and
// final shard collection always run through the coordinator:
//
//   - Star (TopologyStar): every worker connects to one coordinator, which
//     relays shard broadcasts between workers.
//   - Mesh (TopologyMesh): after rendezvous the coordinator hands every
//     worker its peers' listen addresses and workers exchange shard frames
//     directly over worker-to-worker TCP links.
//
// Both send with the same code (sender.go): every worker holds one sender,
// its links to every peer on mesh or, on star, an uplink onto the control
// link whose frames the coordinator relays through one more sender per
// source link. The mesh worker's and the relay inject the per-link faults
// (delay, reordering holds, drops), so the paper's unbounded-delay and
// out-of-order regimes run on a real network path; every sender writes only
// a leg's newest due frame and discards, unwritten, what that overtook
// (counted reordered or duplicate, and drained for termination).
//
// A worker is the Worker loop of internal/runtime (loop.go) — the same
// loop the shared-memory and channel engines run — over a TCP transport
// (worker.go): the loop decides when the shard counts as converged, when to
// go passive and what a reactivated or budget-exhausted worker must prove;
// the transport frames shard values onto the star relay or the mesh links
// and keeps everything only a network has (probe replies, the generation
// fence, the reshard pause, heartbeat and checkpoint pacing, delta-
// threshold span selection) inside its Drain, Wait and Publish. A parked
// worker blocks on its inbox; it wakes on a timer only when a heartbeat is
// due.
//
// Termination is the two-phase double-collect protocol of
// internal/runtime (quiescence.go, whose ordering rule every worker obeys),
// run over the network as probe rounds: every worker replies with a
// self-consistent status composed by its compute goroutine (passive and
// spent flags, activity epoch, sent, delivered and drained counters), and
// the run stops only after two consecutive quiet, identical rounds with
// nothing in flight — converged when every worker was passive, not when one
// had spent its budget. Rounds start on parks (a worker going passive or
// spent sends a park frame): at once, or as the round in flight completes;
// the probe timer is only a backstop.
//
// Membership is elastic in every run (protocol v4): a link whose read or
// write fails — or, when Config.Elastic.HeartbeatEvery has workers
// heartbeat the control link, one silent past its deadline — is a lost
// worker; the coordinator re-shards over the survivors behind a
// pause/ack/assign barrier (a reactivation under the two-phase protocol, so
// no quiescence is certified across one) and keeps its listener open so a
// restarted worker, retrying under capped exponential backoff, can claim
// the freed slot and warm-start from the last checkpointed iterate.
// Every data frame is fenced to the membership generation it was sent in,
// so frames from before a re-shard self-discard wherever they surface.
//
// The coordinator is an I/O shell around one decision machine. Its link
// readers relay star broadcasts, ring a doorbell for each park and decode
// every other control frame (hello, status, reshard ack, checkpoint, final,
// diverged, a lost link, a malformed frame) into an event on one channel;
// one loop goroutine feeds each event, each ring and each firing of its one
// timer to coordState.step (coordstate.go: no socket, clock, lock or
// goroutine), which decides welcomes and rejects, probe rounds and their
// certification, reshards, stop and the outcome, and returns the writes,
// relay-leg changes and timer the loop then carries out.
//
// The same code paths serve two deployments: Run spawns the coordinator
// and all workers in-process over localhost TCP (how the tests and the
// in-process engine use it), and Serve/ConnectWorker are the halves the
// `asyncsolve dist-coordinator` / `asyncsolve dist-worker` subcommands
// expose for true multi-process runs. A clean star run (converged, no
// worker lost) ends with the coordinator's bye on each link once every relay
// has flushed (protocol v6); Run keeps those links (keptLinks), so the next
// plan-free star Run that finds enough idle neither listens nor dials.
// A worker's inbox of 4p frames is backpressure, not a burst buffer (see
// runWorker); welcomes and finals travel in pooled frames, and a faulty
// sender reseeds a pooled fault stream rather than building one.
package dist

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/operators"
	"repro/internal/runtime"
)

// The supported data-plane topologies.
const (
	// TopologyStar relays every shard frame through the coordinator.
	TopologyStar = "star"
	// TopologyMesh exchanges shard frames over direct worker-to-worker TCP
	// links; the coordinator keeps only the control plane.
	TopologyMesh = "mesh"
)

// Fault configures per-link fault injection. Every non-reliable shard frame
// the source's faulty sender handles is independently subjected to each
// knob on each leg, wherever that sender runs (the coordinator's relay in
// the star topology, the sending worker in the mesh topology).
type Fault struct {
	// DropProb is the iid probability a frame is dropped on a leg.
	DropProb float64
	// ReorderProb is the iid probability a frame is held back long enough
	// for later frames on the same leg to overtake it.
	ReorderProb float64
	// MaxDelay adds a uniform random transit delay in [0, MaxDelay] to
	// every frame (reliable ones included — delay is not loss).
	MaxDelay time.Duration
	// Seed drives the injection randomness: one RNG stream per source
	// worker, drawn in destination order per frame its faulty sender
	// handles — the same decision sequence on star and mesh, though the
	// relay never sees the broadcasts a star worker's uplink shed.
	Seed uint64
}

// Config describes one distributed run: the run every concurrent engine
// shares, plus what only a network has. One Config drives Run, RunChaos
// and Serve; workers learn everything in it that they need from the
// welcome frame.
type Config struct {
	// Config is the shared run: Op (a coordinator reads only its
	// dimension), Workers (TCP workers, each owning a contiguous shard of
	// roughly Dim/Workers components), X0, Tol, MaxUpdatesPerWorker,
	// per-worker Scratches and Tuning, and Done and Progress — Done makes
	// the coordinator drop every link and return a Cancelled result,
	// Progress is bumped by in-process workers. Flexible is the
	// shared-memory engine's knob; DeltaThreshold is its counterpart here.
	runtime.Config
	// Topology selects the data plane: TopologyStar (default) or
	// TopologyMesh.
	Topology string
	// DeltaThreshold, when positive, enables flexible communication: a
	// non-final broadcast ships one frame covering the span from the first
	// to the last shard component that moved by more than the threshold
	// since it was last shipped (sub-threshold components inside the span
	// ride along), and ships nothing when nothing moved. On loss-free
	// delivery peer views lag the sender by at most the threshold per
	// component, so it should be chosen at or below Tol; a frame lost to
	// injection or superseded before delivery leaves its components stale
	// until they move again, and the reliable final re-broadcast — always
	// the whole shard — restores exactness for termination.
	DeltaThreshold float64
	// Fault is the per-link fault injection.
	Fault Fault
	// Elastic paces the elastic membership every run has: how a lost
	// worker is detected, checkpoints, and rejoin retries.
	Elastic Elastic
	// Timeout is the wall-clock safety bound on the whole run (default 2m).
	// Workers derive their own I/O deadline from it, so none outlives a
	// coordinator that went silent.
	Timeout time.Duration
}

// Result reports one distributed run.
type Result struct {
	// Result is the part every concurrent engine reports. MessagesSent
	// counts per-recipient shard-frame sends (a broadcast to p-1 peers
	// counts p-1) and MessagesDropped fault-injection drops plus frames
	// disposed at teardown (sent but no longer deliverable once the run
	// stopped); the accounting identity they take part in is spelled out
	// below.
	runtime.Result
	// Topology is the data plane that ran (TopologyStar or TopologyMesh).
	Topology string
	// MessagesDelivered counts frames acknowledged by receivers. A
	// certified-quiescent (converged) run with no churn
	// stops with nothing pending, so its counters balance exactly: sent =
	// delivered + dropped + reordered + duplicate; a budget- or
	// timeout-ended run may leave a small residual of frames cut off
	// mid-teardown, and a run with churn loses the lifetime counters of
	// workers that died (each re-shard also erases the old generation's
	// in-flight frames from the books), so under churn the identity is not
	// expected to hold.
	//
	// The sender's filter counters are disjoint from each other and from the
	// above: MessagesReordered counts frames discarded on a leg because a
	// later-sequenced frame from the same source had already gone out on it
	// or was due on it as well, a leg writing only its newest due frame (they
	// are dropped at the sender, never written or applied — which a source
	// outrunning a socket causes on its own, so the count can be positive
	// with no fault configured, on star as on mesh); MessagesDuplicate counts
	// frames whose sequence number exactly matched the newest already written
	// on that leg; MessagesStale counts frames that slipped past the filter
	// and were discarded by the receiver as superseded (defense in depth —
	// zero in a healthy run).
	MessagesDelivered, MessagesStale, MessagesReordered, MessagesDuplicate int64
	// BytesSent / BytesReceived count wire bytes from the coordinator's
	// perspective (sent to workers / received from workers). In the star
	// topology that is the whole run; in the mesh topology it is the
	// control plane only — the data plane is in LinkBytes.
	BytesSent, BytesReceived int64
	// LinkBytes[i][j] counts data-plane wire bytes written on the leg from
	// worker i to worker j by i's sender: the relay's bytes onto j's
	// control link in star (links lost to churn included), the bytes on
	// the direct link in mesh (as reported in the surviving workers'
	// finals).
	LinkBytes [][]int64
	// ProbeRounds counts termination probe rounds the coordinator ran.
	ProbeRounds int64
	// WorkersLost counts links the coordinator declared dead (a failed read
	// or write, or heartbeat silence), WorkersRejoined the restarted workers
	// that successfully claimed a freed slot, and Resharding the membership
	// barriers that re-issued the shard table. All three are zero in a
	// churn-free run. A slot that was lost and re-occupied reports only its
	// final occupant's UpdatesPerWorker.
	WorkersLost, WorkersRejoined, Resharding int64
}

// validate is the one validation of a run's parameters: the shared run
// first, then the network knobs. What it leaves in c is what the welcome
// frame carries to the workers.
func (c *Config) validate() (n int, err error) {
	if n, err = c.Config.Validate(); err != nil {
		return 0, err
	}
	switch c.Topology {
	case "":
		c.Topology = TopologyStar
	case TopologyStar, TopologyMesh:
	default:
		return 0, fmt.Errorf("dist: unknown topology %q (want %q or %q)", c.Topology, TopologyStar, TopologyMesh)
	}
	if c.DeltaThreshold < 0 || c.DeltaThreshold != c.DeltaThreshold {
		return 0, fmt.Errorf("dist: DeltaThreshold %v is not a non-negative number", c.DeltaThreshold)
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if err := c.Fault.validate(); err != nil {
		return 0, err
	}
	if err := c.Elastic.validate(); err != nil {
		return 0, err
	}
	return n, nil
}

func (f Fault) validate() error {
	if !(f.DropProb >= 0 && f.DropProb < 1) { // NaN fails too
		return fmt.Errorf("dist: DropProb %v outside [0, 1)", f.DropProb)
	}
	if !(f.ReorderProb >= 0 && f.ReorderProb < 1) {
		return fmt.Errorf("dist: ReorderProb %v outside [0, 1)", f.ReorderProb)
	}
	if f.MaxDelay < 0 || f.MaxDelay > maxDuration {
		return fmt.Errorf("dist: MaxDelay %v outside [0, %v]", f.MaxDelay, maxDuration)
	}
	return nil
}

// maxDuration bounds every duration a run is configured with: a sender
// holds a reordered frame for up to 5×MaxDelay (its transit delay plus a
// 4×MaxDelay hold) and a link may stay silent for 6×HeartbeatEvery, which
// must not overflow.
const maxDuration = time.Duration(1<<63-1) / 6

// Run executes the full distributed solve in-process over localhost TCP:
// it starts the coordinator and one TCP worker per shard, on links it dials
// or a star run kept, and returns the coordinator's result. This is real
// networking end to end — the same frames, fault injection and probe
// rounds a multi-process deployment uses (including the worker-to-worker
// links of the mesh topology) — just with every endpoint in one process so
// tests and the engine need no orchestration.
func Run(cfg Config) (*Result, error) {
	if _, err := cfg.validate(); err != nil {
		return nil, err
	}
	return runLocal(cfg, ChaosPlan{})
}

// runLocal is Run under an optional churn schedule (see RunChaos); cfg is
// already validated. The coordinator's result is authoritative. A worker's
// error is surfaced only from an uncancelled run without churn, and only
// when the worker failed on its own: a cancelled coordinator drops its links
// on purpose; under a plan deliberately killed workers and replacements
// that raced the end of the run are expected casualties; and a worker that
// lost its link (linkLost) was re-sharded around, which the result already
// shows as WorkersLost. A malformed frame is the worker's own failure and
// fails the run even though the survivors finished without it; when the
// coordinator failed too, its error names the worker's.
func runLocal(cfg Config, plan ChaosPlan) (*Result, error) {
	links, ln, err := listenLocal(cfg.Workers, len(plan.Events) == 0 && cfg.Topology == TopologyStar)
	if err != nil {
		return nil, err
	}
	type serveOut struct {
		res *Result
		err error
	}
	serveCh := make(chan serveOut, 1)
	go func() {
		res, err := Serve(ln, cfg)
		serveCh <- serveOut{res, err}
	}()

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var workerErr error
	launch := func(w int, ctl *WorkerCtl, rejoin Rejoin) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := WorkerOptions{
				Scratch:  operators.WorkerScratch(cfg.Scratches, w, cfg.Tuning),
				Rejoin:   rejoin,
				Ctl:      ctl,
				progress: cfg.Progress,
			}
			var err error
			if links == nil {
				err = ConnectWorker(ln.Addr().String(), cfg.Op, o)
			} else {
				err = runWorker(links[w].worker, cfg.Op, o)
			}
			errMu.Lock()
			if workerErr == nil && err != nil && !linkLost(err) {
				workerErr = err
			}
			errMu.Unlock()
		}()
	}
	ctls := make([]*WorkerCtl, cfg.Workers)
	for w := range ctls {
		ctls[w] = &WorkerCtl{}
		launch(w, ctls[w], Rejoin{})
	}

	// The churn schedule. Each event goroutine sleeps out its offsets so
	// kills land mid-solve regardless of how the solve itself is paced. A
	// replacement still retrying when the run ends is killed, not left to
	// knock on a closed listener for the rest of its RejoinWait.
	replacements := make([]*WorkerCtl, len(plan.Events))
	for i, ev := range plan.Events {
		seed := cfg.Fault.Seed ^ (uint64(cfg.Workers+i) * 0x9e3779b97f4a7c15)
		replacements[i] = &WorkerCtl{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(ev.KillAfter)
			ctls[ev.Worker].Kill()
			if ev.RestartAfter <= 0 {
				return
			}
			time.Sleep(ev.RestartAfter)
			launch(ev.Worker, replacements[i], Rejoin{MaxWait: cfg.Elastic.RejoinWait(), Seed: seed})
		}()
	}

	out := <-serveCh
	for _, ctl := range replacements {
		ctl.Kill()
	}
	wg.Wait()
	retireLinks(links)
	// A worker that failed on its own is the cause of whatever the
	// coordinator made of its loss, so a coordinator error carries it (a
	// divergence the coordinator reports itself).
	ownErr := len(plan.Events) == 0 && workerErr != nil
	if out.err != nil {
		if ownErr && !errors.Is(out.err, operators.ErrDiverged) {
			return nil, fmt.Errorf("%w (%v)", out.err, workerErr)
		}
		return nil, out.err
	}
	if ownErr && !out.res.Cancelled {
		return nil, workerErr
	}
	return out.res, nil
}

// keptLinks is the free list of the star links Run keeps between solves:
// loopback pairs of a coordinator end and a worker end, each from a run that
// ended cleanly on bye, at most maxKeptLinks. Nothing else of a run is kept.
var keptLinks struct {
	sync.Mutex
	pairs []linkPair
}

const maxKeptLinks = 16 // two 8-worker runs' worth

type linkPair struct{ coord, worker net.Conn }

// listenLocal listens for runLocal's workers: a plan-free star run on p
// links taken off the free list or, when fewer are idle, made over a
// listener of its own; any other run on a fresh listener.
func listenLocal(p int, star bool) ([]linkPair, net.Listener, error) {
	var links []linkPair
	keptLinks.Lock()
	if rest := len(keptLinks.pairs) - p; star && rest >= 0 {
		links = slices.Clone(keptLinks.pairs[rest:])
		keptLinks.pairs = slices.Delete(keptLinks.pairs, rest, len(keptLinks.pairs))
	}
	keptLinks.Unlock()
	if links == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil || !star {
			return nil, ln, err
		}
		defer ln.Close()
		links = make([]linkPair, p)
		for i := 0; i < p && err == nil; i++ {
			if links[i].worker, err = net.DialTimeout("tcp", ln.Addr().String(), dialTimeout); err == nil {
				links[i].coord, err = ln.Accept()
			}
		}
		if err != nil {
			retireLinks(links)
			return nil, nil, err
		}
	}
	kl := make(keptListener, p)
	for _, pr := range links {
		kl <- pr.coord
	}
	close(kl)
	return links, kl, nil
}

// retireLinks keeps each link whose two ends are open with nothing unread
// (a worker that did not end on bye closed its end), deadlines cleared,
// while there is room, and closes every other end.
func retireLinks(links []linkPair) {
	keptLinks.Lock()
	defer keptLinks.Unlock()
	for _, pr := range links {
		if pr.coord != nil && len(keptLinks.pairs) < maxKeptLinks && quiet(pr.coord) && quiet(pr.worker) &&
			pr.coord.SetDeadline(time.Time{}) == nil && pr.worker.SetDeadline(time.Time{}) == nil {
			keptLinks.pairs = append(keptLinks.pairs, pr)
			continue
		}
		for _, c := range [...]net.Conn{pr.coord, pr.worker} {
			if c != nil {
				c.Close()
			}
		}
	}
}

// keptListener is what Serve accepts a plan-free star run's links on: each
// coordinator end once, then it reads as closed, since nobody rejoins such a
// run. Close closes the ends never accepted.
type keptListener chan net.Conn

func (l keptListener) Accept() (net.Conn, error) {
	if c, ok := <-l; ok {
		return c, nil
	}
	return nil, net.ErrClosed
}

func (l keptListener) Close() error {
	for c := range l {
		c.Close()
	}
	return nil
}

func (keptListener) Addr() net.Addr { return nil } // nobody dials it

// linkLost reports whether a worker's error is the loss of one of its links
// — a failed read or write, or the control reader's msgConnLost — rather
// than a failure of the worker's own.
func linkLost(err error) bool {
	var ne net.Error
	return errors.Is(err, errConnLost) || errors.As(err, &ne)
}
