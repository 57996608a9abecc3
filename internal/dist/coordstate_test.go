package dist

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/operators"
)

// seated returns a star machine of p workers over n components whose
// rendezvous is done (links 1..p).
func seated(p, n int) (*coordState, []action) { return seatedOn(false, p, n) }

// seatedOn is seated on either data plane; a mesh rendezvous also collects
// every listen address. It returns the actions of the last event.
func seatedOn(mesh bool, p, n int) (*coordState, []action) {
	s := newCoordState(p, n, mesh, make([]float64, n), time.Minute, time.Second)
	var acts []action
	for l := 1; l <= p; l++ {
		acts = s.step(event{kind: evHello, link: l})
	}
	for w := 0; mesh && w < p; w++ {
		acts = s.step(event{kind: evMeshAddr, slot: w, addr: "peer"})
	}
	return s, acts
}

// Slices of a 6-component iterate that leave slot 1's shard [2, 4): another
// slot's shard, both edges straddled, the whole iterate.
var outsideShard = []struct {
	name string
	lo   int
	vals []float64
}{
	{"a neighbour's shard", 0, []float64{9, 9}},
	{"straddling the lower edge", 1, []float64{9, 9}},
	{"straddling the upper edge", 3, []float64{9, 9}},
	{"covering", 0, []float64{9, 9, 9, 9, 9, 9}},
}

// TestCheckpointOutsideShardRejected: a current-generation checkpoint may
// cover only the sender's shard — a lying peer must not plant values over
// another worker's components in xbest — while one from a fenced generation
// is skipped before its bounds are looked at.
func TestCheckpointOutsideShardRejected(t *testing.T) {
	untouched := make([]float64, 6)
	for _, tc := range outsideShard {
		s, _ := seated(3, 6)
		s.step(event{kind: evCheckpoint, slot: 1, gen: 1, lo: tc.lo, vals: tc.vals})
		if s.err == nil || !strings.Contains(s.err.Error(), "malformed checkpoint frame") {
			t.Errorf("%s: err = %v, want a malformed checkpoint frame error", tc.name, s.err)
		}
		if !reflect.DeepEqual(s.xbest, untouched) {
			t.Errorf("%s: rejected checkpoint left xbest %v", tc.name, s.xbest)
		}
		s, _ = seated(3, 6)
		s.gen = 2
		s.step(event{kind: evCheckpoint, slot: 1, gen: 1, lo: tc.lo, vals: tc.vals})
		if s.err != nil || !reflect.DeepEqual(s.xbest, untouched) {
			t.Errorf("%s, stale generation: err %v, xbest %v; want it skipped", tc.name, s.err, s.xbest)
		}
	}
	s, _ := seated(3, 6)
	s.step(event{kind: evCheckpoint, slot: 1, gen: 1, lo: 2, vals: []float64{7, 8}})
	s.step(event{kind: evCheckpoint, slot: 1, gen: 1, lo: 3, vals: []float64{5}})
	if want := []float64{0, 0, 7, 5, 0, 0}; s.err != nil || !reflect.DeepEqual(s.xbest, want) {
		t.Errorf("checkpoints inside the shard: err %v, xbest %v, want %v", s.err, s.xbest, want)
	}
}

// TestFinalOutsideShardRejected: the same bound on the authoritative upload.
// A rejoiner stopped before its first assign owns nothing and uploads an
// empty final, which passes.
func TestFinalOutsideShardRejected(t *testing.T) {
	for _, tc := range outsideShard {
		s, _ := seated(3, 6)
		s.stop()
		s.step(event{kind: evFinal, slot: 1, fin: &final{lo: tc.lo, vals: tc.vals}})
		if s.err == nil || !strings.Contains(s.err.Error(), "malformed final frame") {
			t.Errorf("%s: err = %v, want a malformed final frame error", tc.name, s.err)
		}
		if s.finals[1] != nil {
			t.Errorf("%s: rejected final counted", tc.name)
		}
	}
	for _, f := range []final{{lo: 2, vals: []float64{7, 8}, updates: 3}, {}} {
		s, _ := seated(3, 6)
		if f.vals == nil {
			s.blocks[1] = [2]int{} // a rejoiner not yet assigned
		}
		s.stop()
		s.step(event{kind: evFinal, slot: 1, fin: &f})
		if got := s.finals[1]; s.err != nil || got == nil || got.updates != f.updates || !slices.Equal(s.xbest[f.lo:f.lo+len(f.vals)], f.vals) {
			t.Errorf("final %+v: err %v, counted %+v, xbest %v", f, s.err, got, s.xbest)
		}
	}
}

// TestCoordStateImportsNoIO keeps the decision machine pure: its file
// imports nothing that reaches a socket, a clock, a lock or the file
// system, and coordState holds no channel or function — what lets a test
// (or a seeded simulation) drive it through any order of events.
func TestCoordStateImportsNoIO(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "coordstate.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "net", "time", "sync", "sync/atomic", "os":
			t.Errorf("coordstate.go imports %q", path)
		}
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "coordState" {
			return true
		}
		found = true
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			switch field.Type.(type) {
			case *ast.ChanType, *ast.FuncType:
				t.Errorf("coordState field %v is a %T", field.Names, field.Type)
			}
		}
		return false
	})
	if !found {
		t.Fatal("no coordState type in coordstate.go")
	}
}

// TestCoordStateScenarios replays event orders the end-to-end suites once
// found wrong decisions in.
func TestCoordStateScenarios(t *testing.T) {
	quiet := func(s *coordState, w int) event {
		return event{kind: evStatus, slot: w, status: status{probeID: s.probeSeq, passive: true, gen: s.gen}}
	}
	t.Run("final lost after stop is not converged", func(t *testing.T) {
		s, _ := seated(1, 4)
		s.step(quiet(s, 0))
		s.step(quiet(s, 0))
		if s.phase != phStop {
			t.Fatalf("two quiet rounds left the machine in phase %d", s.phase)
		}
		s.step(event{kind: evLost, slot: 0})
		if s.phase != phDone || s.err != nil || s.converged || s.workersLost != 1 {
			t.Errorf("phase %d, err %v, converged %v, lost %d; want a finished, unconverged run with one loss",
				s.phase, s.err, s.converged, s.workersLost)
		}
	})
	t.Run("all workers lost fails promptly", func(t *testing.T) {
		s, _ := seated(1, 4)
		acts := s.step(event{kind: evLost, slot: 0})
		if !slices.Contains(acts, action{kind: actArm, timer: timerRejoin}) {
			t.Fatalf("losing the only worker armed %v, want the rejoin wait", acts)
		}
		s.step(event{kind: evTimer, timer: timerRejoin})
		if s.err == nil || !strings.Contains(s.err.Error(), "all 1 workers lost") {
			t.Errorf("err = %v, want every worker lost", s.err)
		}
	})
	t.Run("a park while the timer is armed starts a round at once", func(t *testing.T) {
		s, _ := seated(2, 4)
		s.step(event{kind: evStatus, slot: 0, status: status{probeID: s.probeSeq, gen: s.gen}})
		if acts := s.step(quiet(s, 1)); !slices.Contains(acts, action{kind: actArm, timer: timerProbe}) {
			t.Fatalf("a round with an active worker armed %v, want the probe timer", acts)
		}
		seq := s.probeSeq
		if acts := s.step(event{kind: evPark}); s.probeSeq != seq+1 || !slices.Contains(acts, action{kind: actProbe, slot: 0, id: seq + 1}) {
			t.Errorf("a park with no round out emitted %v, want round %d", acts, seq+1)
		}
	})
	t.Run("a park mid-round starts the next round once it completes", func(t *testing.T) {
		s, _ := seated(2, 4)
		seq := s.probeSeq
		if acts := s.step(event{kind: evPark}); len(acts) != 0 || s.probeSeq != seq {
			t.Fatalf("a park mid-round emitted %v, probe %d; want nothing until the round completes", acts, s.probeSeq)
		}
		s.step(event{kind: evStatus, slot: 0, status: status{probeID: seq, gen: s.gen}})
		acts := s.step(quiet(s, 1))
		if s.probeSeq != seq+1 || slices.Contains(acts, action{kind: actArm, timer: timerProbe}) {
			t.Errorf("the round after a mid-round park emitted %v, want round %d at once", acts, seq+1)
		}
	})
	for _, tc := range []struct {
		name string
		to   func(*coordState)
	}{
		{"rendezvous", func(s *coordState) { *s = *newCoordState(2, 4, false, make([]float64, 4), time.Minute, time.Second) }},
		{"reshard", func(s *coordState) { s.step(event{kind: evLost, slot: 1}) }},
		{"stop", func(s *coordState) { s.stop() }},
	} {
		t.Run("a park during "+tc.name+" does nothing", func(t *testing.T) {
			s, _ := seated(2, 4)
			tc.to(s)
			before := s.clone()
			if acts := s.step(event{kind: evPark}); len(acts) != 0 || !reflect.DeepEqual(s.clone(), before) {
				t.Errorf("a park in phase %d emitted %v and moved the machine", s.phase, acts)
			}
		})
	}
	t.Run("a rejoiner within the wait is sharded in", func(t *testing.T) {
		s, _ := seated(1, 4)
		s.step(event{kind: evLost, slot: 0})
		s.step(event{kind: evHello, link: 7})
		if s.phase != phReshard || s.links[0] != 7 {
			t.Fatalf("phase %d, links %v; want a reshard over the rejoiner", s.phase, s.links)
		}
		s.step(event{kind: evTimer, timer: timerRejoin}) // a stale fire
		if s.err != nil {
			t.Errorf("stale rejoin timer failed the run: %v", s.err)
		}
	})
}

// The enumeration harness: a model of the workers and the network around
// one coordState, explored over every order of events.

type ctlMsg struct {
	kind   actKind
	id     uint64
	gen    uint32
	lo, hi int
}

// modelWorker is one slot's current incarnation, as honest as the loop in
// worker.go: it answers probes with its flags and generation-scoped
// counters, pauses at a reshard, resumes at its assign and uploads its
// shard at stop.
type modelWorker struct {
	link            int  // 0: no connection
	dead            bool // connection gone; out drains, then the reader sees EOF
	done            bool // the reader read this incarnation's last frame
	gen             uint32
	lo, hi          int
	passive, await  bool
	stopped         bool
	epoch           uint64
	sent, delivered uint64
	in              []ctlMsg
	out             []event
}

type modelData struct {
	from, to int
	gen      uint32
}

type world struct {
	s        *coordState
	w        []modelWorker
	data     []modelData
	fence    uint32 // the relay ledger's generation
	drained  int64  // relay disposals in the fenced generation
	nextLink int
	// budgets of the adversary's rarer moves
	sends, kills, rejoins, deadlines int
	// park is the coordinator's doorbell: some worker parked since the
	// machine last took an evPark.
	park    bool
	finals  []bool // a real final was read from the slot's incarnation
	stopSet []int  // the slots stop went to
}

func (s *coordState) clone() *coordState {
	c := *s
	c.links = slices.Clone(s.links)
	c.joining = slices.Clone(s.joining)
	c.addrs = slices.Clone(s.addrs)
	c.blocks = slices.Clone(s.blocks)
	c.xbest = slices.Clone(s.xbest)
	c.waiting = slices.Clone(s.waiting)
	c.finals = slices.Clone(s.finals)
	c.acts = nil
	return &c
}

func (wd *world) clone() *world {
	c := *wd
	c.s = wd.s.clone()
	c.w = slices.Clone(wd.w)
	for i := range c.w {
		c.w[i].in = slices.Clone(c.w[i].in)
		c.w[i].out = slices.Clone(c.w[i].out)
	}
	c.data = slices.Clone(wd.data)
	c.finals = slices.Clone(wd.finals)
	c.stopSet = slices.Clone(wd.stopSet)
	return &c
}

// key identifies a state for deduplication; probe ids count back from the
// machine's newest so rounds that only differ in their number coincide.
func (wd *world) key() string {
	s := wd.s
	b := make([]byte, 0, 256)
	num := func(vs ...int64) {
		for _, v := range vs {
			b = strconv.AppendInt(b, v, 36)
			b = append(b, ',')
		}
	}
	flag := func(vs ...bool) {
		for _, v := range vs {
			if v {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
		}
	}
	num(int64(s.phase), int64(s.gen), int64(s.armed), int64(s.pending), int64(s.obs.Epoch), s.obs.Sent, s.obs.Delivered, s.obs.Dropped,
		int64(s.first.Epoch), s.first.Sent, s.first.Delivered, s.first.Dropped)
	flag(s.obs.AllPassive, s.obs.Exhausted, s.first.AllPassive, s.haveFirst, s.exhausted, s.timedOut)
	for w := range s.links {
		num(int64(s.links[w]), int64(s.blocks[w][0]), int64(s.blocks[w][1]))
		flag(s.waiting[w], s.joining[w], wd.finals[w])
	}
	for _, v := range s.xbest {
		num(int64(v))
	}
	for _, m := range wd.w {
		num(int64(m.link), int64(m.gen), int64(m.lo), int64(m.hi), int64(m.epoch), int64(m.sent), int64(m.delivered))
		flag(m.dead, m.done, m.passive, m.await, m.stopped)
		for _, c := range m.in {
			num(int64(c.kind), int64(s.probeSeq-c.id), int64(c.gen), int64(c.lo), int64(c.hi))
		}
		b = append(b, '|')
		for _, e := range m.out {
			num(int64(e.kind), int64(s.probeSeq-e.status.probeID), int64(e.status.gen), int64(e.status.epoch), int64(e.status.sent), int64(e.status.delivered), int64(e.gen))
			flag(e.status.passive)
		}
		b = append(b, '|')
	}
	for _, d := range wd.data {
		num(int64(d.from), int64(d.to), int64(d.gen))
	}
	num(int64(wd.fence), wd.drained, int64(wd.sends), int64(wd.kills), int64(wd.rejoins), int64(wd.deadlines), int64(len(wd.stopSet)))
	flag(wd.park)
	return string(b)
}

func (wd *world) alive(w int) bool {
	m := &wd.w[w]
	return m.link != 0 && !m.dead && !m.done
}

// deliver feeds one event to the machine, applies the actions to the model
// and checks every invariant; it reports a violation, if any.
func (wd *world) deliver(ev event) error {
	s := wd.s
	if ev.kind == evStatus {
		ev.drained = 0
		if wd.fence == s.gen {
			ev.drained = wd.drained
		}
	}
	beforeObs, beforePending, beforePhase, beforeSeq, beforeGen := s.obs, s.pending, s.phase, s.probeSeq, s.gen
	acts := slices.Clone(s.step(ev))
	if ev.kind == evStatus && (ev.status.probeID != beforeSeq || ev.status.gen != beforeGen) &&
		(len(acts) > 0 || s.obs != beforeObs || s.pending != beforePending || s.phase != beforePhase) {
		return fmt.Errorf("a stale status (probe %d gen %d; machine at probe %d gen %d) counted", ev.status.probeID, ev.status.gen, beforeSeq, beforeGen)
	}
	if certified := beforePhase == phProbe && s.phase >= phStop && !s.timedOut && !s.cancelled && s.err == nil; certified {
		// Quiescence: every member parked, paused by nothing, in this
		// generation, and nothing of this generation in flight.
		var sent, delivered uint64
		for w := range wd.w {
			if !s.member(w) {
				continue
			}
			m := &wd.w[w]
			if !m.passive || m.await || m.gen != s.gen {
				return fmt.Errorf("quiescence certified with worker %d passive=%v awaiting=%v gen %d (machine gen %d)", w, m.passive, m.await, m.gen, s.gen)
			}
			sent += m.sent
			delivered += m.delivered
		}
		for _, d := range wd.data {
			if d.gen == s.gen {
				return fmt.Errorf("quiescence certified with a frame of generation %d in flight", d.gen)
			}
		}
		if sent != delivered+uint64(wd.drained) {
			return fmt.Errorf("quiescence certified with sent %d, delivered %d, drained %d", sent, delivered, wd.drained)
		}
	}
	for _, a := range acts {
		switch a.kind {
		case actWelcome:
			wd.w[a.slot] = modelWorker{link: a.link, gen: a.gen, lo: a.lo, hi: a.hi, await: a.rejoining}
			if s.mesh { // a mesh rejoiner reports its listen address first
				wd.w[a.slot].out = []event{{kind: evMeshAddr, slot: a.slot, addr: "peer"}}
			}
			wd.finals[a.slot] = false
		case actClose, actDown:
			for w := range wd.w {
				if wd.w[w].link == a.link && !wd.w[w].done {
					wd.w[w].dead, wd.w[w].in, wd.w[w].out = true, nil, nil
				}
			}
		case actFence:
			if a.gen <= wd.fence {
				return fmt.Errorf("fence to generation %d after generation %d", a.gen, wd.fence)
			}
			wd.fence, wd.drained = a.gen, 0
		case actProbe, actReshard, actAssign, actStop:
			if a.kind == actReshard && wd.fence != a.gen {
				return fmt.Errorf("reshard of generation %d sent with the relay fenced at %d", a.gen, wd.fence)
			}
			if beforePhase >= phStop && a.kind != actStop || a.kind == actStop && wd.stopSet != nil && !slices.Contains(wd.stopSet, a.slot) {
				return fmt.Errorf("action %d for slot %d after stop", a.kind, a.slot)
			}
			if wd.alive(a.slot) {
				wd.w[a.slot].in = append(wd.w[a.slot].in, ctlMsg{kind: a.kind, id: a.id, gen: a.gen, lo: a.lo, hi: a.hi})
			}
		}
	}
	if s.phase >= phStop && wd.stopSet == nil {
		wd.stopSet = []int{}
		for _, a := range acts {
			if a.kind == actStop {
				wd.stopSet = append(wd.stopSet, a.slot)
			}
		}
	}
	switch ev.kind {
	case evLost:
		wd.w[ev.slot] = modelWorker{}
	case evFinal:
		wd.w[ev.slot].done = true
		wd.finals[ev.slot] = beforePhase == phStop && slices.Contains(wd.stopSet, ev.slot)
	case evTimer:
		if ev.timer == timerRejoin && beforePhase == phEmpty && (s.err == nil || !strings.Contains(s.err.Error(), "all")) {
			return fmt.Errorf("the rejoin wait ran out with err %v", s.err)
		}
	}
	members := 0
	for w := range s.links {
		if s.member(w) {
			members++
		}
	}
	if members == 0 && s.phase != phDone && s.phase != phStop && s.armed != timerRejoin {
		return fmt.Errorf("no member left in phase %d and the timer armed for %d, not the rejoin wait", s.phase, s.armed)
	}
	if s.phase == phProbe {
		// After every completed reshard the members' shards partition
		// [0, n), each non-empty (n >= p here), and no other slot owns
		// anything.
		var shards [][2]int
		for w, b := range s.blocks {
			if s.member(w) {
				shards = append(shards, b)
			} else if b[1] > b[0] {
				return fmt.Errorf("slot %d, not a member, owns %v", w, b)
			}
		}
		slices.SortFunc(shards, func(a, b [2]int) int { return a[0] - b[0] })
		at := 0
		for _, b := range shards {
			if b[0] != at || b[1] <= b[0] {
				return fmt.Errorf("member shards %v do not partition [0, %d)", s.blocks, s.n)
			}
			at = b[1]
		}
		if at != s.n {
			return fmt.Errorf("member shards %v do not partition [0, %d)", s.blocks, s.n)
		}
	}
	if s.phase == phDone && s.err == nil && !s.cancelled {
		covered := make([]bool, s.n)
		for w, b := range s.blocks {
			if s.converged && b[1] > b[0] && !wd.finals[w] {
				return fmt.Errorf("converged without a real final from slot %d, which owns %v", w, b)
			}
			if wd.finals[w] {
				for i := b[0]; i < b[1]; i++ {
					covered[i] = true
					if s.xbest[i] != finalValue(w) {
						return fmt.Errorf("x[%d] = %v, want slot %d's final", i, s.xbest[i], w)
					}
				}
			}
		}
		for i, v := range s.xbest {
			if !covered[i] && v >= 1000 && v < 2000 {
				return fmt.Errorf("x[%d] = %v is a final's value outside every final", i, v)
			}
		}
	}
	return nil
}

func finalValue(w int) float64 { return 1000 + float64(w) }

// idle checks that termination never waits on the probe timer once the
// run is quiet and every park has been read: while probing, with every
// member alive and passive in the current generation and nothing of it in
// flight, a round must be out.
func (wd *world) idle() error {
	s := wd.s
	if s.phase != phProbe || wd.park {
		return nil
	}
	for w := range wd.w {
		if m := &wd.w[w]; s.member(w) && (!wd.alive(w) || !m.passive || m.await || m.gen != s.gen) {
			return nil
		}
	}
	for _, d := range wd.data {
		if d.gen == s.gen {
			return nil
		}
	}
	if s.armed == timerProbe || s.pending == 0 {
		return fmt.Errorf("quiet with every park read, yet no round out (timer %d, %d answers owed)", s.armed, s.pending)
	}
	return nil
}

// moves lists every state the adversary can move the world to next, each
// with the event it delivered (or nil for a move inside the model).
func (wd *world) moves(yield func(*world, error)) {
	s := wd.s
	try := func(f func(*world) error) {
		c := wd.clone()
		err := f(c)
		c.settle()
		if err == nil {
			err = c.idle()
		}
		yield(c, err)
	}
	for w := range wd.w {
		m := wd.w[w]
		if m.link == 0 || m.done {
			continue
		}
		// The coordinator reads the worker's next frame, or its EOF.
		if len(m.out) > 0 {
			try(func(c *world) error {
				ev := c.w[w].out[0]
				c.w[w].out = c.w[w].out[1:]
				return c.deliver(ev)
			})
		} else if m.dead {
			try(func(c *world) error { return c.deliver(event{kind: evLost, slot: w}) })
		}
		if m.dead {
			continue
		}
		if wd.kills > 0 {
			try(func(c *world) error {
				c.kills--
				c.w[w].dead, c.w[w].in = true, nil
				return nil
			})
		}
		active := !m.passive && !m.await && !m.stopped
		if active {
			try(func(c *world) error {
				c.w[w].passive = true
				c.w[w].epoch++
				c.park = true
				return nil
			})
			if wd.sends > 0 {
				for q := range wd.w {
					if q != w && wd.w[q].link != 0 {
						try(func(c *world) error {
							c.sends--
							c.data = append(c.data, modelData{from: w, to: q, gen: m.gen})
							c.w[w].sent++
							return nil
						})
					}
				}
			}
		}
	}
	for i, d := range wd.data {
		try(func(c *world) error {
			c.data = slices.Delete(c.data, i, i+1)
			q := &c.w[d.to]
			switch {
			case d.gen != c.fence:
				// Fenced at the relay: its send was erased from the books.
			case q.link == 0 || q.dead || q.done:
				c.drained++
			case d.gen == q.gen:
				if q.passive {
					q.passive = false
					q.epoch++
				}
				q.delivered++
			}
			return nil
		})
	}
	if wd.park {
		try(func(c *world) error {
			c.park = false
			return c.deliver(event{kind: evPark})
		})
	}
	if s.armed != timerNone {
		try(func(c *world) error { return c.deliver(event{kind: evTimer, timer: s.armed}) })
	}
	if wd.deadlines > 0 {
		try(func(c *world) error {
			c.deadlines--
			return c.deliver(event{kind: evTimer, timer: timerRun})
		})
	}
	if wd.rejoins > 0 {
		try(func(c *world) error {
			c.rejoins--
			c.nextLink++
			return c.deliver(event{kind: evHello, link: c.nextLink})
		})
	}
}

func fill(n int, v float64) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return vals
}

// settle has every live worker take its queued control frames, as handle
// in worker.go does, while it has fewer than two replies in flight.
func (wd *world) settle() {
	for w := range wd.w {
		for m := &wd.w[w]; len(m.in) > 0 && len(m.out) < 2 && wd.alive(w); {
			wd.process(w, m.in[0])
			m.in = m.in[1:]
		}
	}
}

func (wd *world) process(w int, msg ctlMsg) {
	m := &wd.w[w]
	switch msg.kind {
	case actProbe:
		m.out = append(m.out, event{kind: evStatus, slot: w, status: status{
			probeID: msg.id, passive: m.passive, gen: m.gen, epoch: m.epoch, sent: m.sent, delivered: m.delivered,
		}})
	case actReshard:
		if msg.gen <= m.gen {
			return
		}
		m.gen, m.passive, m.await = msg.gen, false, true
		m.epoch++
		m.sent, m.delivered = 0, 0
		m.out = append(m.out, event{kind: evAck, slot: w, gen: msg.gen, lo: m.lo, vals: fill(m.hi-m.lo, 2000+float64(w))})
	case actAssign:
		if msg.gen == m.gen {
			m.lo, m.hi, m.await = msg.lo, msg.hi, false
		}
	case actStop:
		m.stopped = true
		m.out = append(m.out, event{kind: evFinal, slot: w, fin: &final{lo: m.lo, vals: fill(m.hi-m.lo, finalValue(w))}})
	}
}

// leaves delivers, each to a copy of the machine, the events whose outcome
// does not depend on what follows them: a cancellation, a diverged frame,
// an honest checkpoint and a late status from before the last reshard that
// answers the current probe.
func (wd *world) leaves() error {
	s := wd.s
	if c := s.clone(); len(c.step(event{kind: evCancel})) > 0 || c.phase != phDone || !c.cancelled || c.err != nil {
		return fmt.Errorf("a cancellation in phase %d ended with cancelled %v, err %v", s.phase, c.cancelled, c.err)
	}
	for w, m := range wd.w {
		if !wd.alive(w) {
			continue
		}
		var de *operators.DivergedError
		if c := s.clone(); len(c.step(event{kind: evDiverged, slot: w, err: &operators.DivergedError{Worker: w}})) > 0 || !errors.As(c.err, &de) || de.Worker != w {
			return fmt.Errorf("a diverged frame from worker %d in phase %d ended with err %v", w, s.phase, c.err)
		}
		if !m.await && m.hi > m.lo {
			c := s.clone()
			if c.step(event{kind: evCheckpoint, slot: w, gen: m.gen, lo: m.lo, vals: fill(m.hi-m.lo, 3000+float64(w))}); c.err != nil {
				return fmt.Errorf("an honest checkpoint from worker %d failed the run: %v", w, c.err)
			}
		}
		if s.gen > 1 {
			c := s.clone()
			acts := c.step(event{kind: evStatus, slot: w, status: status{probeID: s.probeSeq, passive: true, gen: s.gen - 1}})
			if len(acts) > 0 || c.obs != s.obs || c.pending != s.pending || c.phase != s.phase {
				return fmt.Errorf("a status of generation %d from worker %d counted at generation %d", s.gen-1, w, s.gen)
			}
		}
	}
	return nil
}

// explore walks every event order from wd to the given depth, once per
// state (a state reached again with no more depth left is not walked
// again); it returns the states visited and the first violation.
func explore(wd *world, depth int, seen map[string]int) (int, error) {
	visited := 1
	if wd.s.phase == phDone {
		return visited, nil
	}
	if err := wd.leaves(); err != nil || depth == 0 {
		return visited, err
	}
	var err error
	wd.moves(func(next *world, verr error) {
		if err != nil {
			return
		}
		if verr != nil {
			err = verr
			return
		}
		k := next.key()
		if d, ok := seen[k]; ok && d >= depth-1 {
			return
		}
		seen[k] = depth - 1
		var n int
		n, err = explore(next, depth-1, seen)
		visited += n
	})
	return visited, err
}

// TestCoordStateEveryEventOrder drives the machine directly through every
// order of events a p-worker star (or mesh) run can see — probe replies,
// reshard acks, finals, a data frame in flight, a worker loss, a rejoiner,
// the timer and the run deadline, with at most two replies in flight per
// link, a park ringing the doorbell, plus cancellation, a diverged worker,
// a checkpoint and a stale status checked on every state — to a bounded
// depth, checking after every step that quiescence is certified only while
// it holds, that a quiet run whose parks were all read has a round out
// rather than waiting on the timer, that stale replies
// never count, that shards partition the iterate after every reshard, that
// a converged result holds a real final for every shard, that an all-lost
// membership waits out the rejoin wait and that stop's target set never
// grows.
func TestCoordStateEveryEventOrder(t *testing.T) {
	for _, tc := range []struct {
		mesh     bool
		p, depth int
	}{
		{false, 1, 14}, // the only worker lost: the rejoin wait
		{false, 2, 12},
		{false, 3, 8},
		{true, 2, 11}, // a rejoiner joins once its listen address arrives
	} {
		if raceEnabled {
			tc.depth -= 2 // the machine runs on one goroutine: depth buys the detector nothing
		}
		t.Run(fmt.Sprintf("mesh=%v/p=%d", tc.mesh, tc.p), func(t *testing.T) {
			start := time.Now()
			s, _ := seatedOn(tc.mesh, tc.p, tc.p+2)
			wd := &world{
				s: s, w: make([]modelWorker, tc.p), fence: 1, nextLink: tc.p,
				sends: 1, kills: 1, rejoins: 1, deadlines: 1,
				finals: make([]bool, tc.p),
			}
			for w := range wd.w {
				// Worker 0 is still computing; the others have converged.
				wd.w[w] = modelWorker{link: w + 1, gen: 1, lo: s.blocks[w][0], hi: s.blocks[w][1], passive: w > 0}
				wd.w[w].in = []ctlMsg{{kind: actProbe, id: s.probeSeq}}
			}
			seen := map[string]int{}
			wd.settle()
			n, err := explore(wd, tc.depth, seen)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("p=%d depth %d: %d states visited, %d distinct, %v", tc.p, tc.depth, n, len(seen), time.Since(start))
		})
	}
}
