package runtime

import (
	"testing"

	"repro/internal/flexible"
	"repro/internal/operators"
	"repro/internal/vec"
)

func TestTrackerStateMachine(t *testing.T) {
	q := NewTracker(2)
	if q.IsPassive(0) || q.IsPassive(1) {
		t.Fatal("workers must start active")
	}
	o := q.Observe()
	if o.AllPassive {
		t.Error("observation of active workers reports AllPassive")
	}
	q.SetPassive(0)
	q.SetPassive(1)
	o = q.Observe()
	if !o.AllPassive || o.InFlight() != 0 {
		t.Errorf("all-passive idle system not quiet: %+v", o)
	}
	if !q.Quiescent() {
		t.Error("frozen all-passive system must be quiescent")
	}
	q.MsgSent(1)
	if q.Quiescent() {
		t.Error("quiescent with a message in flight")
	}
	q.MsgDelivered()
	if !q.Quiescent() {
		t.Error("delivered message still counts as in flight")
	}
	q.MsgSent(1)
	q.MsgDropped(1)
	if !q.Quiescent() {
		t.Error("dropped message still counts as in flight")
	}
	if q.Sent() != 2 || q.Dropped() != 1 {
		t.Errorf("Sent/Dropped = %d/%d, want 2/1", q.Sent(), q.Dropped())
	}
	q.SetActive(1)
	if q.Quiescent() {
		t.Error("quiescent with an active worker")
	}
}

// TestDoubleCollectRejectsTransition scripts the torn-read scenario the
// protocol exists to catch: both collects look individually quiet, but a
// worker reactivated (epoch bump) between them.
func TestDoubleCollectRejectsTransition(t *testing.T) {
	calls := 0
	observe := func() Observation {
		calls++
		return Observation{AllPassive: true, Epoch: uint64(calls)}
	}
	if DoubleCollect(observe) {
		t.Error("double collect accepted an epoch change between passes")
	}

	// Counter movement between passes must also be rejected even when
	// in-flight is zero at both.
	calls = 0
	observe = func() Observation {
		calls++
		return Observation{AllPassive: true, Sent: int64(calls), Delivered: int64(calls)}
	}
	if DoubleCollect(observe) {
		t.Error("double collect accepted counter movement between passes")
	}

	if !DoubleCollect(func() Observation { return Observation{AllPassive: true} }) {
		t.Error("double collect rejected a stable quiet state")
	}
}

// chainOp builds a dense contraction dominated by a one-directional chain:
// component i leans hard on component i-1 (weight decaying slowly along the
// block partition) plus weak dense coupling. Convergence then propagates as
// a wave through the worker blocks — downstream workers converge early on
// stale inputs, passivate, and are REACTIVATED when the wave arrives. That
// reactivation churn is exactly the window of the termination stop races:
// a supervisor that samples passivity and in-flight counters non-atomically
// can catch a worker between absorbing the wave and publishing that it woke
// up, and declare convergence with the wave still un-absorbed.
func chainOp(t testing.TB, n int, seed uint64) *operators.Linear {
	t.Helper()
	rng := vec.NewRNG(seed)
	m := vec.NewDense(n, n)
	weak := 0.05 / float64(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, weak*rng.Normal())
			}
		}
		if i > 0 {
			m.Set(i, i-1, 0.85)
		}
	}
	b := rng.NormalVector(n)
	for i := range b {
		b[i] += 3 // push the fixed point away from the zero start
	}
	return operators.NewLinear(m, b)
}

// TestMessageStopRace is the deterministic regression test for the
// message-engine stop race. The pre-fix worker acknowledged a delivery
// BEFORE publishing its reactivation, and the pre-fix supervisor stopped on
// a single quiet observation — so in the instant between the
// acknowledgement and the passive-flag clear, the supervisor could observe
// "all passive, in flight == 0" and stop with the reactivating message
// un-absorbed. This test scripts exactly that interleaving against the
// extracted protocol: the single collect the old supervisor used accepts
// the torn state, the two-phase double collect must reject it.
func TestMessageStopRace(t *testing.T) {
	q := NewTracker(1)
	q.SetPassive(0)
	// A message is sent toward the passive worker...
	q.MsgSent(1)
	// ...and the worker acknowledges it with the PRE-FIX ordering:
	// delivery first, reactivation afterwards.
	q.MsgDelivered()

	// The old supervisor polls here, between the two steps of the worker's
	// racy acknowledge-then-reactivate sequence: one observation, stop if
	// quiet. It accepts — this is the bug.
	if got := q.Observe(); !(got.AllPassive && got.InFlight() == 0) {
		t.Fatal("torn window not reproduced: single collect should look quiet")
	}

	// The two-phase protocol must catch the same interleaving: its second
	// collect lands after the worker finishes reactivating.
	first := q.Observe()
	q.SetActive(0) // the delayed reactivation of the pre-fix ordering
	second := q.Observe()
	if first.AllPassive && first.InFlight() == 0 &&
		second.AllPassive && second.InFlight() == 0 && second == first {
		t.Fatal("double collect accepted the torn interleaving the old supervisor raced on")
	}
	// And with the FIXED ordering (reactivate before acknowledging) even a
	// single collect can no longer look quiet while the message is being
	// absorbed: the in-flight count stays positive until after SetActive.
	q2 := NewTracker(1)
	q2.SetPassive(0)
	q2.MsgSent(1)
	q2.SetActive(0)
	if got := q2.Observe(); got.AllPassive {
		t.Fatal("fixed ordering still observable as passive mid-absorption")
	}
	q2.MsgDelivered()
	if q2.Quiescent() {
		t.Fatal("worker is active with absorbed data; not quiescent")
	}
}

// TestMessageQuiescenceStress is the end-to-end invariant behind the stop
// race fix: a converged run guarantees every worker's final evaluation saw
// every final block, so the assembled iterate's fixed-point residual must
// actually meet the tolerance (the margin covers only floating-point
// noise). The chain workload maximizes the passive/reactivate churn that
// opened the pre-fix window.
func TestMessageQuiescenceStress(t *testing.T) {
	const trials = 6
	tol := 1e-12
	for trial := 0; trial < trials; trial++ {
		op := chainOp(t, 128, 60+uint64(trial))
		res, err := RunMessage(Config{
			Op: op, Workers: 12, Tol: tol,
			MaxUpdatesPerWorker: 1 << 18,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("trial %d did not converge", trial)
		}
		// True quiescence means every worker's last evaluation saw every
		// final block, so the assembled iterate's residual is <= Tol
		// exactly (the evaluations are deterministic); the margin covers
		// only floating-point noise. A supervisor that fired mid-
		// reactivation leaves a block whose displacement exceeds Tol.
		if r := operators.Residual(op, res.X); r > tol*1.01 {
			t.Fatalf("trial %d: declared quiescent with residual %.3e > tol %.1e — termination fired early",
				trial, r, tol)
		}
	}
}

// TestSharedCertificationRace is the deterministic regression test for the
// shared-engine certification race, now decided on the counters. The
// pre-fix certifier sampled the workers' streak counters, took ONE
// snapshot — which could straddle a peer's mid-phase interpolated flexible
// partial stores — and stopped on it: a state that never existed could
// pass. On the shared layout every publish is p-1 messages, so a peer's
// publish that lands between the two collects moves the counters, and the
// collect fails even when both look quiet.
func TestSharedCertificationRace(t *testing.T) {
	r, ports := portPair(t, false)
	r.q.SetPassive(0)
	r.q.SetPassive(1)
	between := func(step func()) func() Observation {
		calls := 0
		return func() Observation {
			o := r.q.Observe()
			if calls++; calls == 1 {
				step()
			}
			return o
		}
	}
	publish := func() {
		if err := ports[1].Publish([]float64{1, 1}, false); err != nil {
			t.Fatal(err)
		}
	}
	if DoubleCollect(between(publish)) {
		t.Fatal("double collect accepted a peer publish that landed between the collects")
	}
	// Even when the reader absorbs that publish and re-parks before the
	// second collect — nothing in flight, every worker passive again — the
	// counters and the epoch have moved.
	if DoubleCollect(between(func() {
		publish()
		if _, err := ports[0].Drain(); err != nil {
			t.Fatal(err)
		}
		ports[0].Account(Passive)
	})) {
		t.Fatal("double collect accepted a publish absorbed between the collects")
	}
	// Once the publishes are read and every worker is passive, the state
	// is frozen and the collect succeeds.
	if _, err := ports[0].Drain(); err != nil {
		t.Fatal(err)
	}
	ports[0].Account(Passive)
	if !r.q.Quiescent() {
		t.Fatalf("frozen all-passive state with nothing in flight not quiescent: %+v", r.q.Observe())
	}
}

// TestSharedFlexibleCertificationStress is the end-to-end invariant of the
// termination rule under flexible communication, on both engines: once
// every reader has read every block's last version (a phase's last publish
// is always the whole block, after its partials) and re-verified its own
// block against it, the workers' views agree with the returned vector, so
// a converged run's final residual meets the tolerance even under an
// aggressive flexible schedule.
func TestSharedFlexibleCertificationStress(t *testing.T) {
	const trials = 6
	tol := 1e-11
	for _, engine := range engines {
		for trial := 0; trial < trials; trial++ {
			op := chainOp(t, 96, 70+uint64(trial))
			res, err := engine.run(Config{
				Op: op, Workers: 8, Tol: tol,
				MaxUpdatesPerWorker: 1 << 18,
				Flexible:            flexible.Uniform(4),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s trial %d did not converge", engine.name, trial)
			}
			// A stop taken while some reader still held a partial or an
			// older block leaves a residual above Tol behind.
			if r := operators.Residual(op, res.X); r > tol*1.01 {
				t.Fatalf("%s trial %d: stopped with residual %.3e > tol %.1e — termination fired early",
					engine.name, trial, r, tol)
			}
		}
	}
}
