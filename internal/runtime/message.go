package runtime

import (
	gort "runtime"
	"sync"
)

// blockMsg carries one worker's freshly computed block to a peer. The
// payload is a pooled buffer: receivers copy it into their view and return
// it to the pool, so the steady-state broadcast traffic allocates nothing.
type blockMsg struct {
	lo   int
	vals *[]float64
}

// payloads recycles message buffers across runs as well as within one. How
// many buffers a run has in flight at its peak is up to the scheduler (a
// peer that is descheduled for a moment lets its inbox fill, 16 per sender),
// so a pool owned by the run would bill that peak to every run that reaches
// it, and what a solve allocates would follow the machine's load; shared,
// the buffers of the last run serve the next. Every buffer a run makes has
// room for its largest block, so any worker of the run can reuse it; one too
// small for the run that draws it is left to the collector.
var payloads sync.Pool

func getPayload(n, maxBlock int) *[]float64 {
	if vp, _ := payloads.Get().(*[]float64); vp != nil && cap(*vp) >= maxBlock {
		*vp = (*vp)[:n]
		return vp
	}
	buf := make([]float64, n, maxBlock)
	return &buf
}

// chanPort is the message-passing Transport: each worker keeps a private
// view of the full vector and exchanges blocks over buffered channels. A
// lossy Publish never blocks — when a peer's inbox is full the message is
// dropped, the transient-fault regime the paper argues asynchronous
// iterations tolerate (later messages carry fresher values). A reliable
// Publish retries until the peer takes it, draining its own inbox between
// attempts so no cyclic wait can form; termination detection depends on
// finals being truly reliable, because a lost final would let the system
// quiesce on inconsistent views.
//
// Any receipt reactivates a passive worker BEFORE the delivery is
// acknowledged (the protocol's ordering rule): the supervisor either still
// sees the message in flight or sees this worker active.
//
// Nothing here polls. A parked worker sleeps on its inbox and the stop
// channel, and the supervisor sleeps on a doorbell that every Account
// rings — a worker parks, re-parks or resumes only through Account, and
// those are the only moments the answer to "is the run quiescent" can
// change from no to yes.
type chanPort struct {
	slot
	r       *run
	lo, hi  int
	view    []float64
	inboxes []chan blockMsg
	wake    chan struct{}
	// maxBlock is the largest block of the run, the capacity of its payloads.
	maxBlock int
}

func (p *chanPort) Block() (lo, hi int) { return p.lo, p.hi }

func (p *chanPort) receive(m blockMsg) {
	p.slot.Account(Active)
	copy(p.view[m.lo:m.lo+len(*m.vals)], *m.vals)
	payloads.Put(m.vals)
	p.q.MsgDelivered()
}

func (p *chanPort) Drain() (Input, error) {
	if p.r.stopped.Load() {
		return Stop, nil
	}
	var in Input
	for {
		select {
		case m := <-p.inboxes[p.w]:
			p.receive(m)
			in = Fresh
		default:
			return in, nil
		}
	}
}

func (p *chanPort) Wait() (Input, error) {
	select {
	case m := <-p.inboxes[p.w]:
		p.receive(m)
		in, err := p.Drain()
		return in | Fresh, err
	case <-p.r.stopCh:
		return Stop, nil
	}
}

func (p *chanPort) Publish(vals []float64, reliable bool) error {
	for qi := range p.inboxes {
		if qi == p.w {
			continue
		}
		vp := getPayload(len(vals), p.maxBlock)
		copy(*vp, vals)
		p.send(qi, blockMsg{lo: p.lo, vals: vp}, reliable)
	}
	return nil
}

func (p *chanPort) send(qi int, m blockMsg, reliable bool) {
	p.q.MsgSent()
	for {
		select {
		case p.inboxes[qi] <- m:
			return
		default:
		}
		if !reliable || p.r.stopped.Load() {
			payloads.Put(m.vals)
			p.q.MsgDropped()
			return
		}
		p.Drain()
		gort.Gosched()
	}
}

func (p *chanPort) Account(s State) {
	p.slot.Account(s)
	select {
	case p.wake <- struct{}{}:
	default: // a pending ring is as good as many
	}
}

// RunMessage executes the Worker loop over message passing: one goroutine
// per block exchanging blocks through chanPorts, and a supervisor (the
// scheme of [22]) that certifies the end state with the two-phase double
// collect of quiescence.go and broadcasts stop — converged when every
// worker was passive, not converged when some worker was spent on data it
// could not iterate away.
func RunMessage(cfg Config) (*Result, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	p := len(r.blocks)

	inboxes := make([]chan blockMsg, p)
	for w := range inboxes {
		// Room for a burst of broadcasts from every peer before a lossy
		// send starts dropping.
		inboxes[w] = make(chan blockMsg, 16*p)
	}
	wake := make(chan struct{}, 1)
	maxBlock := r.blocks[0][1] - r.blocks[0][0] // vec.Blocks puts the remainder first

	supervised := make(chan struct{})
	go func() {
		defer close(supervised)
		for !r.stopped.Load() {
			if r.q.Quiescent(nil) {
				r.converged.Store(!r.q.Observe().Exhausted) // frozen: a third collect reads the same state
				r.stop()
				return
			}
			select {
			case <-wake:
			case <-r.stopCh:
			}
		}
	}()

	ports := make([]chanPort, p)
	res, err := r.solve(func(w int, wk *Worker) Transport {
		ports[w] = chanPort{
			slot: slot{r.q, w}, r: r,
			lo: r.blocks[w][0], hi: r.blocks[w][1],
			view: wk.View, inboxes: inboxes, wake: wake, maxBlock: maxBlock,
		}
		return &ports[w]
	})
	<-supervised
	// Every worker has left its loop: what a stopped run abandoned in the
	// inboxes goes back to the pool (a converged run abandons nothing).
	for _, in := range inboxes {
		for len(in) > 0 {
			payloads.Put((<-in).vals)
		}
	}
	if err != nil {
		return nil, err
	}
	res.MessagesSent, res.MessagesDropped = r.q.Sent(), r.q.Dropped()
	return res, nil
}
