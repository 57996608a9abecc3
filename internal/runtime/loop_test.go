package runtime

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/operators"
)

// The Worker loop, tested once against a scripted transport: no goroutines,
// no clock, every wake-up of a parked worker written down in advance. What
// is asserted here holds for every engine, because every engine runs this
// loop and differs only in its Transport.

// pullOp is F_0(x) = x_0/2 + x_1/4 on a two-component vector. The worker
// under test owns component 0; component 1 stands for a peer's block and
// only changes when the script delivers a value for it. With x_1 = v the
// block's fixed point is v/2 and each phase halves the distance to it.
type pullOp struct{}

func (pullOp) Dim() int                             { return 2 }
func (pullOp) Name() string                         { return "pull" }
func (pullOp) Component(_ int, x []float64) float64 { return x[0]/2 + x[1]/4 }

// scriptPort is the scripted Transport. Each Wait consumes one scripted
// value for x_1; when the script runs out the run stops. It records what
// the loop did, and what it did itself, as a trace of events.
//
// acks selects which side owns reactivation, the one difference between
// transports that the loop has to cope with: an acknowledging transport
// (channels, TCP) reactivates a passive worker itself, BEFORE it
// acknowledges the input — the ordering rule of quiescence.go; a transport
// with nothing to acknowledge (shared memory: Drain copies blocks) leaves
// the worker passive and the loop must account Active before the first
// Publish of the resumed phase.
type scriptPort struct {
	t      *testing.T
	view   []float64
	script []float64
	acks   bool

	passive, spent bool
	trace          []string
}

func (p *scriptPort) Block() (lo, hi int) { return 0, 1 }
func (p *scriptPort) Passive() bool       { return p.passive }

func (p *scriptPort) Drain() (Input, error) {
	if p.acks {
		return 0, nil // nothing queued between scripted wake-ups
	}
	return Fresh, nil // a snapshot always is
}

func (p *scriptPort) Wait() (Input, error) {
	if !p.passive && !p.spent {
		p.t.Fatalf("Wait called on a worker that is neither passive nor spent; trace: %v", p.trace)
	}
	if len(p.script) == 0 {
		return Stop, nil
	}
	if p.acks {
		p.Account(Active)
	}
	p.view[1], p.script = p.script[0], p.script[1:]
	p.trace = append(p.trace, "input")
	return Fresh, nil
}

func (p *scriptPort) Publish(vals []float64, reliable bool) error {
	if p.passive {
		p.t.Fatalf("Publish while accounted passive; trace: %v", p.trace)
	}
	if reliable {
		p.trace = append(p.trace, "final")
		return nil // the final is the worker's own block in its view
	}
	p.trace = append(p.trace, "publish")
	// A transport may not retain vals, so the loop may not read them again:
	// poison them, and a loop that does reads NaN and fails as diverged.
	for i := range vals {
		vals[i] = math.NaN()
	}
	return nil
}

func (p *scriptPort) Account(s State) {
	switch {
	case s == Spent:
		p.spent = true
		p.trace = append(p.trace, "spent")
	case s == Passive && !p.passive:
		p.passive = true
		p.trace = append(p.trace, "passive")
	case s == Active && p.passive:
		p.passive = false
		p.trace = append(p.trace, "active")
	}
}

// runScript runs one worker from x = (1, 0) over the script and returns the
// transport with its trace. Publish events are folded: "publish*" stands
// for one or more lossy publishes in a row.
func runScript(t *testing.T, acks bool, budget int, script ...float64) *scriptPort {
	t.Helper()
	view := []float64{1, 0}
	p := &scriptPort{t: t, view: view, script: script, acks: acks}
	w := Worker{Op: pullOp{}, Tol: 1e-3, Budget: budget, View: view}
	if err := w.Run(p); err != nil {
		t.Fatal(err)
	}
	var folded []string
	for _, ev := range p.trace {
		if ev == "publish" {
			if n := len(folded); n == 0 || folded[n-1] != "publish*" {
				folded = append(folded, "publish*")
			}
			continue
		}
		folded = append(folded, ev)
	}
	p.trace = folded
	return p
}

func policyName(acks bool) string {
	if acks {
		return "acknowledging"
	}
	return "snapshot"
}

// TestLoopReactivationOrdering is the ordering rule seen from the loop:
// input that breaks a passive worker's convergence is followed by "active"
// before anything is published, whichever side owns the reactivation — the
// transport, ahead of its acknowledgement, or the loop, ahead of its first
// store. (scriptPort.Publish fails the test outright if the loop ever
// publishes while accounted passive.)
func TestLoopReactivationOrdering(t *testing.T) {
	// x_1 = 4 moves the block's fixed point from 0 to 2.
	want := map[bool][]string{
		true:  {"publish*", "final", "passive", "active", "input", "publish*", "final", "passive"},
		false: {"publish*", "final", "passive", "input", "active", "publish*", "final", "passive"},
	}
	for _, acks := range []bool{true, false} {
		p := runScript(t, acks, 1<<20, 4)
		if !reflect.DeepEqual(p.trace, want[acks]) {
			t.Errorf("%s transport: trace %v, want %v", policyName(acks), p.trace, want[acks])
		}
		if got := p.view[0]; got < 2-2e-3 || got > 2+2e-3 {
			t.Errorf("%s transport: block settled at %v, want 2 within Tol/(1-1/2)", policyName(acks), got)
		}
	}
}

// TestLoopRepassivatesWithoutPublish is the passivation ping-pong case: a
// passive worker woken by input that leaves its block within Tol must go
// back to passive without publishing. If it resumed the broadcast path
// instead, two converged workers whose frames cross in flight would wake
// each other forever and quiescence would never be certified. PR 10 fixed
// this in the TCP engine's copy of the loop only and left open whether the
// message engine needed it; with one loop the answer is the same
// everywhere, and this is the test that fails when reverify is taken out
// of the parked branch of Worker.Run.
func TestLoopRepassivatesWithoutPublish(t *testing.T) {
	// x_1 = 1e-4 moves the fixed point by 5e-5, far inside Tol = 1e-3.
	want := map[bool][]string{
		true:  {"publish*", "final", "passive", "active", "input", "passive"},
		false: {"publish*", "final", "passive", "input"},
	}
	for _, acks := range []bool{true, false} {
		p := runScript(t, acks, 1<<20, 1e-4)
		if !reflect.DeepEqual(p.trace, want[acks]) {
			t.Errorf("%s transport: trace %v, want %v", policyName(acks), p.trace, want[acks])
		}
		if !p.passive {
			t.Errorf("%s transport: worker ended active", policyName(acks))
		}
	}
}

// TestLoopSpentWorkerNeverPassiveOnUnverifiedData: a worker that runs out
// of budget stays in the run, absorbing input, and re-verifies each time —
// but input it cannot iterate away must leave it active (spent, not
// passive), so the run can end only as not converged. Input that happens to
// leave its block converged does re-passivate it.
func TestLoopSpentWorkerNeverPassiveOnUnverifiedData(t *testing.T) {
	for _, acks := range []bool{true, false} {
		// Three phases take x_0 from 1 to 1/8, nowhere near converged; then
		// x_1 = 4 arrives, and again x_1 = 8.
		p := runScript(t, acks, 3, 4, 8)
		if want := []string{"publish*", "spent", "input", "input"}; !reflect.DeepEqual(p.trace, want) {
			t.Errorf("%s transport: trace %v, want %v", policyName(acks), p.trace, want)
		}
		if p.passive || strings.Contains(strings.Join(p.trace, " "), "passive") {
			t.Errorf("%s transport: spent worker reported passive on data it could not verify: %v", policyName(acks), p.trace)
		}
		if p.view[0] != 0.125 {
			t.Errorf("%s transport: spent worker kept computing: x_0 = %v, want 1/8", policyName(acks), p.view[0])
		}

		// x_1 = 1/4 makes 1/8 the exact fixed point: the re-verification
		// passes and the spent worker may report passive after all.
		p = runScript(t, acks, 3, 4, 0.25)
		if want := []string{"publish*", "spent", "input", "input", "passive"}; !reflect.DeepEqual(p.trace, want) {
			t.Errorf("%s transport: trace %v, want %v", policyName(acks), p.trace, want)
		}
	}
}

// TestLoopStopsOnNaNBeforeInstallingIt: input that makes a parked worker's
// block evaluate to NaN ends the loop at the re-verification, with nothing
// installed, published or accounted after it. Unchecked, the displacement
// of a NaN block reads as 0 (a max-norm distance never sees a NaN) and the
// worker would re-passivate on it. The updating phase has the same check,
// in the same scan: a NaN its first phase evaluates ends the run at phase 1
// with the view untouched. (The root TestEveryEngineStopsOnNaN drives both
// on every engine.)
func TestLoopStopsOnNaNBeforeInstallingIt(t *testing.T) {
	for _, acks := range []bool{true, false} {
		view := []float64{1, 0}
		p := &scriptPort{t: t, view: view, script: []float64{math.NaN()}, acks: acks}
		w := Worker{ID: 7, Op: pullOp{}, Tol: 1e-3, Budget: 1 << 20, View: view}
		err := w.Run(p)
		var de *operators.DivergedError
		if !errors.As(err, &de) || !errors.Is(err, operators.ErrDiverged) ||
			*de != (operators.DivergedError{Worker: 7, Phase: w.Updates + 1, Component: 0}) {
			t.Fatalf("%s transport: err %v, want worker 7's phase %d diverging at component 0", policyName(acks), err, w.Updates+1)
		}
		if last := p.trace[len(p.trace)-1]; last != "input" || view[0] != view[0] {
			t.Errorf("%s transport: after the NaN input: trace %v, x_0 = %v", policyName(acks), p.trace, view[0])
		}

		view = []float64{1, math.NaN()}
		w = Worker{ID: 7, Op: pullOp{}, Tol: 1e-3, Budget: 1 << 20, View: view}
		err = w.Run(&scriptPort{t: t, view: view, acks: acks})
		if !errors.As(err, &de) || *de != (operators.DivergedError{Worker: 7, Phase: 1, Component: 0}) || view[0] != 1 {
			t.Errorf("%s transport: NaN from the first phase: err %v, x_0 = %v, want phase 1 diverging and x_0 = 1", policyName(acks), err, view[0])
		}
	}
}

// clockPort is a scriptPort on a fake clock: each Publish, Drain and Wait
// takes a set time, and clockOp makes each evaluation take another, so
// every part of the worker's time split is known in advance.
type clockPort struct {
	*scriptPort
	now                             *time.Duration
	publishes, drains, waits, accts int64
}

func (p *clockPort) Publish(vals []float64, reliable bool) error {
	*p.now += 3
	p.publishes++
	return p.scriptPort.Publish(vals, reliable)
}

func (p *clockPort) Drain() (Input, error) {
	*p.now += 5
	p.drains++
	return p.scriptPort.Drain()
}

func (p *clockPort) Wait() (Input, error) {
	*p.now += 7
	p.waits++
	return p.scriptPort.Wait()
}

func (p *clockPort) Now() time.Time { return time.Unix(0, 0).Add(*p.now) }

func (p *clockPort) Account(s State) {
	p.accts++
	p.scriptPort.Account(s)
}

type clockOp struct {
	pullOp
	now   *time.Duration
	evals *int64
}

func (o clockOp) Component(i int, x []float64) float64 {
	*o.now += 11
	*o.evals++
	return o.pullOp.Component(i, x)
}

// TestLoopStatsSplitIsExact: with Worker.Stats set, Run's time split gives
// each part exactly the time its calls took on the clock, compute is the
// evaluations' time, and the parts sum to the elapsed time; on both kinds
// of transport, with a reactivation and a spent budget in the script.
func TestLoopStatsSplitIsExact(t *testing.T) {
	for _, acks := range []bool{true, false} {
		for _, budget := range []int{1 << 20, 3} {
			var now time.Duration
			var evals int64
			view := []float64{1, 0}
			p := &clockPort{scriptPort: &scriptPort{t: t, view: view, script: []float64{4, 1e-4}, acks: acks}, now: &now}
			w := Worker{Op: clockOp{now: &now, evals: &evals}, Tol: 1e-3, Budget: budget, View: view, Stats: &Stats{Parked: 99}}
			if err := w.Run(p); err != nil {
				t.Fatal(err)
			}
			want := Stats{Compute: time.Duration(11 * evals), Publish: time.Duration(3 * p.publishes),
				Drain: time.Duration(5 * p.drains), Parked: time.Duration(7 * p.waits), Accounts: p.accts}
			want.Elapsed = want.Compute + want.Publish + want.Drain + want.Parked
			if *w.Stats != want || want.Elapsed != now || p.waits < 2 || evals == 0 {
				t.Errorf("%s transport, budget %d: split %+v, want %+v (clock at %v)", policyName(acks), budget, *w.Stats, want, now)
			}
		}
	}
}
