package dist

// The coordinator's control plane as a decision machine: every event the
// I/O shell (coordinator.go) observes goes through coordState.step, which
// updates the membership, the double collect and the finals bookkeeping and
// returns the actions the shell is to carry out. Nothing here touches a
// socket, a clock, a lock or a goroutine, so a test can drive the machine
// through every order of events (coordstate_test.go).

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/operators"
	"repro/internal/runtime"
	"repro/internal/vec"
)

type evKind uint8

const (
	evNone       evKind = iota
	evHello             // a connection's hello was read (err: it was not)
	evMeshAddr          // a mesh worker's listen address
	evStatus            // a probe reply
	evAck               // a reshard ack
	evCheckpoint        // a shard checkpoint
	evFinal             // a worker's last frame after stop
	evDiverged          // a worker's operator evaluated NaN
	evLost              // a slot's link failed (read, write or silence)
	evMalformed         // a slot's worker broke the protocol (err)
	evTimer             // the timer fired
	evCancel            // the caller gave up on the run
)

// event is one control-plane fact: slot is the worker slot whose link the
// frame arrived on, link a connection that has no slot yet.
type event struct {
	kind        evKind
	slot, link  int
	timer       timerKind
	status      status
	drained     int64  // evStatus: the relay's generation disposals, read after the status arrived
	gen         uint32 // evAck, evCheckpoint: the shard is fin.lo, fin.vals
	fin         final
	addr        string
	phase, comp int
	err         error
}

// timerKind is what the one timer is armed for; the shell maps each to its
// duration and reports timerRun when the run deadline comes first.
type timerKind uint8

const (
	timerNone   timerKind = iota
	timerProbe            // the next probe round
	timerRound            // one probe round, or one reshard attempt's acks
	timerRejoin           // every worker lost: how long to wait for a rejoiner
	timerFinal            // the finals after stop
	timerRun              // the run deadline
)

type actKind uint8

const (
	actWelcome    actKind = iota // write slot's welcome (shard lo/hi, gen, rejoining, xbest) on link
	actReject                    // write a no-free-slot reject on link and close it
	actClose                     // close link
	actUp                        // link serves slot: relay legs both ways (star) and a reader
	actDown                      // close slot's link; no relay writes to slot any more
	actPeers                     // send slot the peer address table (mesh rendezvous)
	actProbe                     // send slot probe id
	actFence                     // open gen in the relay ledger, ahead of gen's first reshard: older frames self-discard
	actReshard                   // send slot reshard gen
	actAssign                    // send slot its shard lo/hi of generation gen over xbest
	actStop                      // send slot stop
	actArm                       // re-arm the timer
	actCheckpoint                // persist xbest, if a checkpoint file is configured
)

type action struct {
	kind       actKind
	slot, link int
	id         uint64
	gen        uint32
	lo, hi     int
	rejoining  bool
	timer      timerKind
}

type coordPhase uint8

const (
	phRendezvous coordPhase = iota // welcoming the first p workers (mesh: and their addresses)
	phProbe                        // probe rounds of the double collect
	phReshard                      // a reshard attempt awaits its acks
	phEmpty                        // every worker lost: waiting for a rejoiner
	phStop                         // stop sent, collecting finals
	phDone                         // the outcome is err, or cancelled, or converged
)

// coordState is the coordinator's control-plane state. A slot is free
// (links 0), a member, or joining: a mesh rejoiner whose listen address has
// not arrived, which takes no part in rounds or reshards.
type coordState struct {
	p, n int
	mesh bool
	// timeout and rejoinWait only name the bounds in error messages.
	timeout, rejoinWait fmt.Stringer

	phase   coordPhase
	links   []int // link id by slot
	joining []bool
	addrs   []string
	blocks  [][2]int
	gen     uint32
	// xbest is x0 overlaid with every checkpoint, reshard ack and, after
	// stop, real final absorbed so far.
	xbest []float64
	armed timerKind

	// waiting marks the slots the probe round, reshard attempt or finals
	// collection in flight still needs an answer from; pending counts them.
	waiting []bool
	pending int

	// The double collect: probeSeq numbers rounds (a counter, unlike a
	// clock, keeps the machine reproducible), obs accumulates the round in
	// flight, first holds a quiet collect awaiting its confirming twin.
	probeSeq   uint64
	obs, first runtime.Observation
	haveFirst  bool
	exhausted  bool // the certifying collect saw a spent worker
	timedOut   bool // stopped at the run deadline, not on quiescence

	finals                                   []*final // the real finals, by slot
	workersLost, workersRejoined, resharding int64
	converged, cancelled                     bool
	err                                      error
	acts                                     []action
}

func newCoordState(p, n int, mesh bool, x0 []float64, timeout, rejoinWait fmt.Stringer) *coordState {
	return &coordState{
		p: p, n: n, mesh: mesh, timeout: timeout, rejoinWait: rejoinWait,
		links:   make([]int, p),
		joining: make([]bool, p),
		addrs:   make([]string, p),
		blocks:  vec.Blocks(n, p),
		gen:     1,
		xbest:   append([]float64(nil), x0...),
		waiting: make([]bool, p),
		finals:  make([]*final, p),
	}
}

// step applies one event and returns the actions it decided, in order, in a
// slice the next step reuses.
func (s *coordState) step(ev event) []action {
	s.acts = s.acts[:0]
	w := ev.slot
	switch ev.kind {
	case evHello:
		s.hello(ev)
	case evMeshAddr:
		s.meshAddr(w, ev.addr)
	case evStatus:
		s.status(w, ev.status, ev.drained)
	case evAck:
		if s.phase == phReshard && ev.gen == s.gen && s.waiting[w] {
			copy(s.xbest[ev.fin.lo:], ev.fin.vals)
			s.answered(w)
		}
	case evCheckpoint:
		s.checkpoint(w, ev)
	case evFinal:
		s.final(w, ev.fin)
	case evDiverged: // not a loss: a reshard would hand the NaN on
		s.finish(&operators.DivergedError{Worker: w, Phase: ev.phase, Component: ev.comp})
	case evLost:
		s.lost(w)
	case evMalformed:
		s.finish(ev.err)
	case evTimer:
		s.fired(ev.timer)
	case evCancel:
		s.cancelled = true
		s.finish(nil)
	}
	return s.acts
}

func (s *coordState) emit(a action) { s.acts = append(s.acts, a) }

func (s *coordState) arm(k timerKind) {
	s.armed = k
	s.emit(action{kind: actArm, timer: k})
}

func (s *coordState) member(w int) bool { return s.links[w] != 0 && !s.joining[w] }

// hello seats a connection: a rendezvous slot in arrival order, later the
// lowest free slot for a rejoiner (welcomed with an empty shard and xbest),
// a reject when none is free. After stop the connection is closed: the
// stop's target set never grows.
func (s *coordState) hello(ev event) {
	if ev.err != nil && s.phase == phRendezvous {
		s.finish(fmt.Errorf("dist: worker %w", ev.err))
		return
	}
	if ev.err != nil || s.phase >= phStop {
		s.emit(action{kind: actClose, link: ev.link})
		return
	}
	w := slices.Index(s.links, 0)
	if w < 0 {
		s.emit(action{kind: actReject, link: ev.link})
		return
	}
	s.links[w] = ev.link
	if s.phase == phRendezvous {
		s.emit(action{kind: actWelcome, slot: w, link: ev.link, gen: s.gen, lo: s.blocks[w][0], hi: s.blocks[w][1]})
		if w < s.p-1 {
			return
		}
		// The readers go up together, so every relay has its legs before
		// the first block is read.
		for q, l := range s.links {
			s.emit(action{kind: actUp, slot: q, link: l})
		}
		if !s.mesh {
			s.startRound()
		}
		return
	}
	s.emit(action{kind: actWelcome, slot: w, link: ev.link, gen: s.gen, rejoining: true})
	s.emit(action{kind: actUp, slot: w, link: ev.link})
	if s.mesh {
		s.joining[w] = true // a member once its listen address arrives
		return
	}
	s.workersRejoined++
	s.reshard()
}

// meshAddr records a mesh worker's listen address: at the rendezvous the
// last one sends out the peer table; a joining rejoiner becomes a member.
func (s *coordState) meshAddr(w int, addr string) {
	if s.phase >= phStop {
		return
	}
	s.addrs[w] = addr
	switch {
	case s.phase == phRendezvous:
		if slices.Contains(s.addrs, "") {
			return
		}
		for q := range s.links {
			s.emit(action{kind: actPeers, slot: q})
		}
		s.startRound()
	case s.joining[w]:
		s.joining[w] = false
		s.workersRejoined++
		s.reshard()
	}
}

// lost frees slot w. A member's loss voids the round or reshard attempt in
// flight and starts a fresh attempt; after stop it settles w's final as
// missing, so w's shard keeps the best-known values and the run is not
// converged.
func (s *coordState) lost(w int) {
	l := s.links[w]
	if l == 0 {
		return
	}
	s.links[w] = 0
	s.addrs[w] = ""
	s.emit(action{kind: actDown, slot: w, link: l})
	if s.joining[w] {
		s.joining[w] = false // never a member: nothing to re-shard
		return
	}
	s.workersLost++
	switch s.phase {
	case phRendezvous:
		s.finish(fmt.Errorf("dist: worker %d lost during the rendezvous", w))
	case phStop:
		s.answered(w)
	default:
		s.reshard()
	}
}

// await marks every member as owing an answer.
func (s *coordState) await() {
	s.pending = 0
	for w := range s.waiting {
		s.waiting[w] = s.member(w)
		if s.waiting[w] {
			s.pending++
		}
	}
}

// answered takes w's answer off the collection in flight, ending it with
// the last one owed.
func (s *coordState) answered(w int) {
	if !s.waiting[w] {
		return
	}
	s.waiting[w] = false
	if s.pending--; s.pending > 0 {
		return
	}
	switch s.phase {
	case phProbe:
		s.collected()
	case phReshard: // resume every member on its new shard, and probe at once
		for w, b := range s.blocks {
			if s.member(w) {
				s.emit(action{kind: actAssign, slot: w, gen: s.gen, lo: b[0], hi: b[1]})
			}
		}
		s.startRound()
	case phStop:
		s.done()
	}
}

// reshard opens a new generation and starts its barrier: pause every
// member (reshard), fold their acked shards into xbest, then re-issue the
// shard table (assign). With no member left it waits for a rejoiner, for
// the rejoin wait at most.
func (s *coordState) reshard() {
	s.gen++
	s.haveFirst = false
	s.await()
	if s.pending == 0 {
		if s.phase != phEmpty {
			s.phase = phEmpty
			s.arm(timerRejoin)
		}
		return
	}
	s.phase = phReshard
	s.resharding++
	s.emit(action{kind: actFence, gen: s.gen}) // no frame of gen precedes its reshard
	shards, i := vec.Blocks(s.n, s.pending), 0
	for w := range s.blocks {
		s.blocks[w] = [2]int{}
		if s.waiting[w] {
			s.blocks[w] = shards[i]
			i++
			s.emit(action{kind: actReshard, slot: w, gen: s.gen})
		}
	}
	s.arm(timerRound)
}

// startRound probes every member: one collect of the double collect.
func (s *coordState) startRound() {
	s.phase = phProbe
	s.probeSeq++
	s.obs = runtime.Observation{AllPassive: true}
	s.await()
	for w, owed := range s.waiting {
		if owed {
			s.emit(action{kind: actProbe, slot: w, id: s.probeSeq})
		}
	}
	s.arm(timerRound)
}

// status folds one reply into the round in flight; one to an earlier round
// or generation, or from a slot that already answered, never counts. The
// relay's drained total, read after the round's last status arrived, enters
// with it: flags before counters, as the in-process Tracker collects.
func (s *coordState) status(w int, st status, drained int64) {
	if s.phase != phProbe || !s.waiting[w] || st.probeID != s.probeSeq || st.gen != s.gen {
		return
	}
	switch {
	case st.passive:
	case st.spent:
		s.obs.Exhausted = true
	default:
		s.obs.AllPassive = false
	}
	s.obs.Epoch += st.epoch
	s.obs.Sent += int64(st.sent)
	s.obs.Delivered += int64(st.delivered)
	s.obs.Dropped += int64(st.drained)
	if s.pending == 1 {
		// The generation is folded into the epoch, so two quiet collects
		// never straddle a reshard unnoticed.
		s.obs.Epoch += uint64(s.gen)
		s.obs.Dropped += drained
	}
	s.answered(w)
}

// collected ends a complete round: a quiet first collect is confirmed by a
// second one at once; two quiet, identical collects stop the run; anything
// else waits for the next round.
func (s *coordState) collected() {
	if s.haveFirst {
		s.haveFirst = false
		if s.obs.Quiet() && s.obs == s.first {
			// Every member is parked with nothing in flight: converged
			// unless one ran out of budget on unverified data.
			s.exhausted = s.obs.Exhausted
			s.stop()
			return
		}
	} else if s.obs.Quiet() {
		s.first, s.haveFirst = s.obs, true
		s.startRound()
		return
	}
	s.arm(timerProbe)
}

// checkpoint folds a current-generation shard checkpoint into xbest. One
// from before a reshard is skipped before its bounds are looked at; one
// that leaves the sender's shard is a lying peer's.
func (s *coordState) checkpoint(w int, ev event) {
	if ev.gen != s.gen || !s.member(w) {
		return
	}
	if !inShard(s.blocks[w], ev.fin.lo, len(ev.fin.vals)) {
		s.finish(fmt.Errorf("dist: worker %d sent a malformed checkpoint frame", w))
		return
	}
	copy(s.xbest[ev.fin.lo:], ev.fin.vals)
	s.emit(action{kind: actCheckpoint})
}

// inShard reports whether [lo, lo+count) lies inside shard, all a worker's
// checkpoint or final may cover: a lying peer must not overwrite another
// slot's components. An empty slice (a rejoiner not yet assigned) passes.
func inShard(shard [2]int, lo, count int) bool {
	return count == 0 || (lo >= shard[0] && lo+count <= shard[1])
}

// stop ends the probing: stop every member and collect their finals. A
// joining rejoiner is turned away instead.
func (s *coordState) stop() {
	s.phase = phStop
	s.await()
	for w, l := range s.links {
		switch {
		case s.waiting[w]:
			s.emit(action{kind: actStop, slot: w})
		case l != 0:
			s.emit(action{kind: actClose, link: l})
		}
	}
	if s.pending == 0 {
		s.done()
		return
	}
	s.arm(timerFinal)
}

func (s *coordState) final(w int, f final) {
	switch {
	case !inShard(s.blocks[w], f.lo, len(f.vals)):
		s.finish(fmt.Errorf("dist: worker %d sent a malformed final frame", w))
	case s.phase != phStop:
		s.finish(fmt.Errorf("dist: worker %d sent its final before stop", w))
	case s.waiting[w]:
		s.finals[w] = &f
		copy(s.xbest[f.lo:], f.vals)
		s.answered(w)
	}
}

// fired handles the timer. The run deadline is a timer of its own kind,
// whatever was armed.
func (s *coordState) fired(k timerKind) {
	if k == timerRun && s.phase < phStop {
		switch s.phase {
		case phRendezvous:
			s.finish(errors.New("dist: not every worker connected before the run deadline"))
		case phProbe:
			s.timedOut = true
			s.stop()
		default:
			s.finish(errors.New("dist: resharding did not complete before the run ended"))
		}
		return
	}
	if k != s.armed {
		return
	}
	s.armed = timerNone
	switch s.phase {
	case phProbe:
		if k == timerProbe {
			s.startRound()
			return
		}
		// A member that cannot answer in time fails the round, not the run.
		s.haveFirst, s.pending = false, 0
		clear(s.waiting)
		s.arm(timerProbe)
	case phReshard:
		s.reshard() // an unresponsive survivor; its silence deadline will evict it
	case phEmpty:
		s.finish(fmt.Errorf("dist: all %d workers lost and none rejoined within %v", s.p, s.rejoinWait))
	case phStop:
		s.finish(errors.New("dist: timed out waiting for final blocks"))
	}
}

// done settles a completed finals collection: converged when the stop was
// certified on an unexhausted collect and every slot that owns a shard
// uploaded a real final.
func (s *coordState) done() {
	if s.timedOut {
		s.finish(fmt.Errorf("dist: run exceeded timeout %v without quiescence or budget exhaustion", s.timeout))
		return
	}
	s.converged = !s.exhausted
	for w, b := range s.blocks {
		if b[1] > b[0] && s.finals[w] == nil {
			s.converged = false
		}
	}
	s.finish(nil)
}

func (s *coordState) finish(err error) {
	s.phase, s.err, s.armed = phDone, err, timerNone
}
