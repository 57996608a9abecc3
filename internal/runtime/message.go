package runtime

// chanPort is the message-passing Transport: each worker keeps a private
// view of the full vector and sends its block to every peer through a
// mailbox, a blockSlot per (sender, receiver) pair. Newest wins — the
// out-of-order messages rule: a publish overwrites what the receiver has
// not read yet, and the receiver copies only the freshest block. A publish
// to a peer is one message; a read delivers one and drops every version it
// skipped, so a mailbox's unread versions are its messages in flight.
// Publish never blocks, and the reliable final sends nothing: it repeats
// the block its phase has just published, and a mailbox never loses its
// newest value.
//
// Any receipt reactivates a passive worker BEFORE the delivery is
// acknowledged (the protocol's ordering rule): the supervisor either still
// sees the message in flight or sees this worker active.
//
// Nothing here polls. A parked worker sleeps on its doorbell, which every
// publish to it rings, and the stop channel; the supervisor sleeps on a
// doorbell that every Account rings — a worker parks, re-parks or resumes
// only through Account, and those are the only moments the answer to "is
// the run quiescent" can change from no to yes.
type chanPort struct {
	slot
	r    *run
	view []float64
	// boxes[s*p+d] carries sender s's block to receiver d.
	boxes []blockSlot
	// seen[s] is the version of boxes[s*p+w] that the view holds.
	seen []uint64
	// bells[d] is receiver d's doorbell, rung after every publish to it.
	bells []chan struct{}
	wake  chan struct{}
}

func (p *chanPort) Block() (lo, hi int) { return p.r.blocks[p.w][0], p.r.blocks[p.w][1] }

//repro:hotpath
func (p *chanPort) Drain() (in Input, err error) {
	if p.r.stopped.Load() {
		return Stop, nil
	}
	n := len(p.bells)
	for s := range p.seen {
		b := &p.boxes[s*n+p.w]
		if s == p.w || b.ver.Load() == p.seen[s] {
			continue
		}
		p.slot.Account(Active) // before anything is acknowledged
		for moved := b.readIfNewer(p.view[p.r.blocks[s][0]:], &p.seen[s]); moved > 1; moved-- {
			p.q.MsgDropped() // superseded before it was read
		}
		p.q.MsgDelivered()
		in = Fresh
	}
	return in, nil
}

func (p *chanPort) Wait() (Input, error) {
	select {
	case <-p.bells[p.w]:
		return p.Drain()
	case <-p.r.stopCh:
		return Stop, nil
	}
}

//repro:hotpath
func (p *chanPort) Publish(vals []float64, reliable bool) error {
	if reliable {
		return nil
	}
	n := len(p.bells)
	for d, bell := range p.bells {
		if d == p.w {
			continue
		}
		p.q.MsgSent() // before the version moves: in flight is never negative
		p.boxes[p.w*n+d].publish(vals)
		select {
		case bell <- struct{}{}:
		default: // a pending ring is as good as many
		}
	}
	return nil
}

func (p *chanPort) Account(s State) {
	p.slot.Account(s)
	select {
	case p.wake <- struct{}{}:
	default: // a pending ring is as good as many
	}
}

// messagePorts builds the run's mailboxes — every sender's block once per
// peer, (p-1)·n values in all — and a port per worker over them.
func (r *run) messagePorts(wake chan struct{}) []chanPort {
	p := len(r.blocks)
	boxes := make([]blockSlot, p*p)
	vals := make([]float64, (p-1)*len(r.cfg.X0))
	seen := make([]uint64, p*p)
	bells := make([]chan struct{}, p)
	for s, b := range r.blocks {
		bells[s] = make(chan struct{}, 1)
		for d := 0; d < p; d++ {
			if d != s {
				boxes[s*p+d].vals, vals = vals[:b[1]-b[0]:b[1]-b[0]], vals[b[1]-b[0]:]
			}
		}
	}
	ports := make([]chanPort, p)
	for w := range ports {
		ports[w] = chanPort{slot: slot{r.q, w}, r: r, boxes: boxes, seen: seen[w*p : (w+1)*p], bells: bells, wake: wake}
	}
	return ports
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

	ports := r.messagePorts(wake)
	res, err := r.solve(func(w int, wk *Worker) Transport {
		ports[w].view = wk.View
		return &ports[w]
	})
	<-supervised
	if err != nil {
		return nil, err
	}
	res.MessagesSent, res.MessagesDropped = r.q.Sent(), r.q.Dropped()
	return res, nil
}
