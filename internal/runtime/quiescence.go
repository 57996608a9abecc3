package runtime

import "sync/atomic"

// Two-phase (Safra-style double-collect) quiescence detection, shared by
// every concurrent transport (shared memory, in-process message passing,
// and the TCP engine in internal/dist).
//
// The state machine: each worker is either active (computing, publishing
// stores or sending messages) or parked — passive (locally converged, only
// watching for input that would reactivate it) or spent (update budget
// exhausted: it still absorbs and re-verifies input but can publish nothing
// further). A run is quiescent — and may be stopped — exactly when every
// worker is parked and no communication is in flight that could reactivate
// one; it has converged when, in addition, every worker is passive.
//
// Deciding that from concurrently mutated state is the classic distributed
// termination problem: a supervisor that samples passivity flags and
// message counters one by one can assemble an observation that was never
// globally true (the torn-read stop races this protocol replaced). The fix
// is the double collect:
//
//  1. First pass observes all-passive with in-flight == 0 (sent ==
//     delivered + dropped).
//  2. An optional confirm callback re-validates convergence against the
//     now-candidate-frozen state (the shared-memory engine re-snapshots
//     and re-certifies the full fixed-point residual here).
//  3. Second pass confirms no worker reactivated in between — every
//     passivity flag still set, the activity epoch unchanged, and every
//     counter identical.
//
// Soundness rests on one ordering rule the transports must follow: a
// worker MUST publish its reactivation (Tracker.SetActive, or the
// transport's equivalent epoch bump) BEFORE it acknowledges the input that
// reactivated it — before counting a message delivered, and before its
// first store of a resumed phase. Then an observation with in-flight == 0
// has already seen the delivery acknowledgement of any reactivating
// message, so the second pass must see either the reactivation itself
// (passive flag cleared) or, if the worker already re-passivated after
// re-checking convergence with the new data, the epoch bumps of that
// round trip. Either way the collect is rejected and retried; a collect
// that survives both passes observed a genuinely frozen, quiescent system.
// Supervisors wake when a worker parks: the message supervisor on its
// doorbell, the dist coordinator on a park frame (its timer a backstop).

// Observation is one collect of the global termination state. The zero
// value is "not quiescent".
type Observation struct {
	// AllPassive reports whether every worker was observed parked: passive,
	// or spent and therefore unable to publish again.
	AllPassive bool
	// Exhausted reports that some parked worker was spent without being
	// passive: it holds data its budget cannot iterate away, so a quiescent
	// observation with Exhausted set is an end state but not a converged
	// one.
	Exhausted bool
	// Epoch is the activity epoch: a counter bumped on every worker state
	// transition (activation and passivation). Epochs only grow, so two
	// equal observations bracket an interval with no transitions.
	Epoch uint64
	// Sent, Delivered and Dropped count transport messages. Transports
	// without messages leave them zero.
	Sent, Delivered, Dropped int64
}

// InFlight is the number of messages sent but not yet delivered or dropped.
func (o Observation) InFlight() int64 { return o.Sent - o.Delivered - o.Dropped }

// Quiet reports whether this single observation is consistent with
// quiescence (necessary, not sufficient — hence the double collect).
func (o Observation) Quiet() bool { return o.AllPassive && o.InFlight() == 0 }

// DoubleCollect runs the two-phase protocol over an observation source:
// collect, optionally confirm, collect again, and report quiescence only
// if both collects are quiet and identical. observe may be a set of atomic
// loads (in-process transports) or a network probe round (dist transport);
// confirm, when non-nil, runs between the passes and may veto (the
// shared-memory engine re-certifies the fixed-point residual there); an
// Exhausted observation claims no convergence, so there is nothing for it
// to confirm and it is not consulted.
func DoubleCollect(observe func() Observation, confirm func() bool) bool {
	first := observe()
	if !first.Quiet() {
		return false
	}
	if confirm != nil && !first.Exhausted && !confirm() {
		return false
	}
	second := observe()
	return second.Quiet() && second == first
}

// Tracker is the in-process implementation of the protocol state: per-worker
// passive and spent flags, a global activity epoch, and message counters,
// all atomics so workers update them lock-free on the hot path.
type Tracker struct {
	passive, spent           []atomic.Bool
	epoch                    atomic.Uint64
	sent, delivered, dropped atomic.Int64
}

// NewTracker returns a Tracker for the given worker count; every worker
// starts active.
func NewTracker(workers int) *Tracker {
	flags := make([]atomic.Bool, 2*workers)
	return &Tracker{passive: flags[:workers], spent: flags[workers:]}
}

// SetActive marks worker w active. Per the protocol's ordering rule it must
// be called BEFORE the worker acknowledges the reactivating input: before
// MsgDelivered for the message that woke it, and before the first store of
// a resumed update phase.
func (t *Tracker) SetActive(w int) {
	t.passive[w].Store(false)
	t.epoch.Add(1)
}

// SetPassive marks worker w passive (locally converged and no longer
// publishing). The epoch bump lets the double collect detect a worker that
// reactivated and re-passivated between the two passes.
func (t *Tracker) SetPassive(w int) {
	t.epoch.Add(1)
	t.passive[w].Store(true)
}

// SetSpent marks worker w's update budget exhausted, for good: from now on
// it counts as parked whether or not it is passive.
func (t *Tracker) SetSpent(w int) {
	t.epoch.Add(1)
	t.spent[w].Store(true)
}

// IsPassive reports worker w's current state.
func (t *Tracker) IsPassive(w int) bool { return t.passive[w].Load() }

// MsgSent / MsgDelivered / MsgDropped account one transport message.
// A dropped message is one that can never reactivate a worker.
func (t *Tracker) MsgSent()      { t.sent.Add(1) }
func (t *Tracker) MsgDelivered() { t.delivered.Add(1) }
func (t *Tracker) MsgDropped()   { t.dropped.Add(1) }

// Sent and Dropped expose the message totals for reporting.
func (t *Tracker) Sent() int64    { return t.sent.Load() }
func (t *Tracker) Dropped() int64 { return t.dropped.Load() }

// Observe performs one collect. The passivity flags are read before the
// epoch and counters: combined with the SetActive-before-acknowledge rule
// this ordering makes the double collect sound (see the package comment
// above).
func (t *Tracker) Observe() Observation {
	o := Observation{AllPassive: true}
	for w := range t.passive {
		if t.passive[w].Load() {
			continue
		}
		if !t.spent[w].Load() {
			o.AllPassive = false
			break
		}
		o.Exhausted = true
	}
	o.Epoch = t.epoch.Load()
	o.Sent = t.sent.Load()
	o.Delivered = t.delivered.Load()
	o.Dropped = t.dropped.Load()
	return o
}

// Quiescent runs the double collect against this tracker's state.
func (t *Tracker) Quiescent(confirm func() bool) bool {
	return DoubleCollect(t.Observe, confirm)
}

// slot is worker w's handle on a Tracker: the Account and Passive half of
// a Transport, shared by the in-process transports.
type slot struct {
	q *Tracker
	w int
}

func (s slot) Passive() bool { return s.q.IsPassive(s.w) }

func (s slot) Account(st State) {
	switch {
	case st == Spent:
		s.q.SetSpent(s.w)
	case st == Passive && !s.Passive():
		s.q.SetPassive(s.w)
	case st == Active && s.Passive():
		s.q.SetActive(s.w)
	}
}
