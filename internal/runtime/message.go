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
	pool    *sync.Pool
	wake    chan struct{}
}

func (p *chanPort) Block() (lo, hi int) { return p.lo, p.hi }

func (p *chanPort) receive(m blockMsg) {
	p.slot.Account(Active)
	copy(p.view[m.lo:m.lo+len(*m.vals)], *m.vals)
	p.pool.Put(m.vals)
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
		vp := p.pool.Get().(*[]float64)
		*vp = (*vp)[:len(vals)]
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
			p.pool.Put(m.vals)
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
	// Message payload pool, sized to the largest block. Senders Get, fill
	// and ship; receivers copy out and Put back (drops Put immediately).
	// Payloads abandoned in inboxes when the run stops are reclaimed by GC.
	maxBlock := r.blocks[0][1] - r.blocks[0][0] // vec.Blocks puts the remainder first
	pool := &sync.Pool{New: func() interface{} {
		buf := make([]float64, maxBlock)
		return &buf
	}}
	wake := make(chan struct{}, 1)

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
	res := r.solve(func(w int, wk *Worker) Transport {
		ports[w] = chanPort{
			slot: slot{r.q, w}, r: r,
			lo: r.blocks[w][0], hi: r.blocks[w][1],
			view: wk.View, inboxes: inboxes, pool: pool, wake: wake,
		}
		return &ports[w]
	})
	<-supervised
	res.MessagesSent, res.MessagesDropped = r.q.Sent(), r.q.Dropped()
	return res, nil
}
