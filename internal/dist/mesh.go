package dist

// The mesh data plane: direct worker-to-worker TCP links over which shard
// frames travel without passing through the coordinator. Rendezvous runs on
// the control plane — every worker opens a listener, reports its address to
// the coordinator, and receives the full peer table back; worker i then
// dials every peer j != i, so each directed pair (i, j) has a dedicated
// connection owned by the sender.
//
// Those connections are the legs of the worker's sender (sender.go), which
// does all the sending; this file is the plumbing around it — dialing,
// accepting, keeping the listener open for peers that rejoin and following
// the coordinator's re-issued peer table.

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// mesh is one worker's half of the mesh data plane: the sender whose legs
// are the up to p-1 outbound links it dialed, and the inbound connections
// it accepted (read by reader goroutines into the worker's inbox).
type mesh struct {
	id, p int
	snd   *sender
	// addrs[q] is the address the installed leg to q was dialed at ("" when
	// there is none); like the legs it is touched only by the rendezvous and
	// then the compute goroutine.
	addrs []string

	// inMu guards the inbound connection list shared by the rendezvous, the
	// rejoin accept loop and shutdown; inClosed makes a late accept lose
	// the race with teardown cleanly.
	inMu     sync.Mutex
	in       []net.Conn
	inClosed bool

	// ln stays open after rendezvous so peers that rejoin can redial us;
	// accepts joins the accept goroutines.
	ln       net.Listener
	accepts  sync.WaitGroup
	deadline time.Time
}

// newMesh builds a worker's mesh around its listener ln and a fresh sender;
// the caller (dialMesh for a rendezvous worker, runWorker for a rejoiner
// whose links arrive only with its first assign) fills in the legs. The sender gets no write-failure
// callback: peers legitimately close their sockets once stopped — possibly
// before our own stop lands — so the drop it accounts is the whole story.
func newMesh(id, p int, ln net.Listener, fault Fault, gen uint32, deadline time.Time) *mesh {
	return &mesh{
		id:       id,
		p:        p,
		ln:       ln,
		snd:      newSender(id, p, fault, &ledger{gen: gen}),
		addrs:    make([]string, p),
		deadline: deadline,
	}
}

// dialMesh establishes the full data plane for one worker: listen (already
// bound by the caller), report nothing — the peer table is already known —
// dial every peer, and accept every peer's dial. It returns only when all
// 2(p-1) connections exist, so no frame can ever race a missing link. The
// listener is left open for rejoining peers to redial; the caller must
// start serveAccepts.
func dialMesh(id, p int, ln net.Listener, peers []string, fault Fault, gen uint32, deadline time.Time) (*mesh, error) {
	m := newMesh(id, p, ln, fault, gen, deadline)

	// Accept the p-1 inbound connections concurrently with our own dials
	// (every worker dials everyone else, so serial accept+dial would
	// deadlock), and handle every connection's handshake on its own
	// goroutine: with p workers each opening p-1 links at once, any
	// blocking step in the accept loop chains scheduling stalls across the
	// whole rendezvous.
	type accepted struct {
		conn net.Conn
		err  error
	}
	acceptCh := make(chan accepted, p-1)
	// Joined by the rendezvous drain below, or by ln.Close once serveAccepts
	// has taken the listener over.
	go func() {
		for i := 0; i < p-1; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptCh <- accepted{nil, err}
				return
			}
			// The handshake read unblocks at the rendezvous deadline, and
			// acceptCh has room for every send.
			go func() {
				conn.SetDeadline(deadline)
				if err := m.acceptHello(conn); err != nil {
					acceptCh <- accepted{nil, err}
					return
				}
				acceptCh <- accepted{conn, nil}
			}()
		}
	}()

	type dialed struct {
		q   int
		leg *leg
		err error
	}
	dialCh := make(chan dialed, p-1)
	for q := 0; q < p; q++ {
		if q == id {
			continue
		}
		go func(q int) {
			l, err := dialPeer(id, q, peers[q], deadline)
			dialCh <- dialed{q, l, err}
		}(q)
	}

	var firstErr error
	for got := 0; got < p-1; got++ {
		d := <-dialCh
		if d.err != nil && firstErr == nil {
			firstErr = d.err
		}
		if d.leg != nil {
			m.snd.setLeg(d.q, d.leg)
			m.addrs[d.q] = peers[d.q]
		}
	}
	for len(m.in) < p-1 && firstErr == nil {
		a := <-acceptCh
		if a.err != nil {
			firstErr = a.err
			break
		}
		m.in = append(m.in, a.conn)
	}
	if firstErr != nil {
		m.shutdown()
		return nil, firstErr
	}
	return m, nil
}

// dialPeer opens one directed link to peer q and performs the mesh hello.
func dialPeer(id, q int, addr string, deadline time.Time) (*leg, error) {
	timeout := dialTimeout
	if until := time.Until(deadline); until < timeout {
		timeout = until
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dist: worker %d dial peer %d (%s): %w", id, q, addr, err)
	}
	conn.SetDeadline(deadline)
	if _, err := conn.Write(buildFrame(msgMeshHello, appendU32(nil, uint32(id)))); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: worker %d mesh hello to peer %d: %w", id, q, err)
	}
	return &leg{link: &link{conn: conn}, q: q}, nil
}

// acceptHello reads the mesh hello a dialing peer opens its link with and
// checks the peer is one we can have; it closes a connection it refuses.
func (m *mesh) acceptHello(conn net.Conn) error {
	typ, payload, err := readFrame(conn, maxFramePayload)
	if err != nil || typ != msgMeshHello {
		conn.Close()
		return fmt.Errorf("dist: worker %d mesh accept handshake: %v", m.id, err)
	}
	cur := cursor{b: payload}
	from := int(cur.u32())
	if cur.err != nil || from < 0 || from >= m.p || from == m.id {
		conn.Close()
		return fmt.Errorf("dist: worker %d mesh accept from invalid peer %d", m.id, from)
	}
	return nil
}

// serveAccepts keeps accepting peer dials after rendezvous — the rejoin
// half of the data plane: a peer that rejoined (or re-sharded onto a fresh
// link) redials us, and spawn wires the handshaken connection into the
// worker's reader set. It returns when the listener closes (shutdown).
func (m *mesh) serveAccepts(spawn func(net.Conn)) {
	m.accepts.Add(1)
	// This loop and every handshake it starts are joined by accepts.Wait in
	// shutdown, after the listener closes.
	go func() {
		defer m.accepts.Done()
		for {
			conn, err := m.ln.Accept()
			if err != nil {
				return
			}
			m.inMu.Lock()
			if m.inClosed {
				m.inMu.Unlock()
				conn.Close()
				return
			}
			m.in = append(m.in, conn)
			m.inMu.Unlock()
			m.accepts.Add(1)
			go func() {
				defer m.accepts.Done()
				conn.SetDeadline(time.Now().Add(dialTimeout))
				if m.acceptHello(conn) != nil {
					return
				}
				conn.SetDeadline(m.deadline)
				spawn(conn)
			}()
		}
	}()
}

// updatePeers follows a re-issued peer table: legs to unchanged addresses
// are kept (their sequence filters reset lazily via the generation fence),
// dead slots ("") are closed, and changed or new addresses are redialed. A
// failed redial leaves no leg — frames to that slot are accounted as drops
// until the next re-shard fixes the table. Runs on the compute goroutine.
func (m *mesh) updatePeers(addrs []string) {
	for q := 0; q < m.p && q < len(addrs); q++ {
		if q == m.id || addrs[q] == m.addrs[q] {
			continue
		}
		var next *leg
		m.addrs[q] = ""
		if addrs[q] != "" {
			if l, err := dialPeer(m.id, q, addrs[q], m.deadline); err == nil {
				next, m.addrs[q] = l, addrs[q]
			}
		}
		if prev := m.snd.setLeg(q, next); prev != nil {
			prev.conn.Close()
		}
	}
}

// shutdown flushes the sender and only then closes every connection — the
// ordering that keeps queued frames from being written to closing conns.
// The listener closes first so no new inbound connection can be accepted
// while the rest tears down.
func (m *mesh) shutdown() {
	m.snd.flush()
	m.ln.Close()
	m.inMu.Lock()
	m.inClosed = true
	in := m.in
	m.in = nil
	m.inMu.Unlock()
	for _, c := range in {
		c.Close() // unblocks any handshake read before we join the acceptors
	}
	m.accepts.Wait()
	for _, l := range m.snd.out {
		if l != nil {
			l.conn.Close()
		}
	}
}

// meshListener binds the listener a worker will accept peer connections on.
// It listens on the same interface the worker used to reach the coordinator
// so the advertised address is routable for every peer in a multi-process
// deployment.
func meshListener(coordConn net.Conn) (net.Listener, error) {
	host, _, err := net.SplitHostPort(coordConn.LocalAddr().String())
	if err != nil {
		return nil, fmt.Errorf("dist: mesh listener address: %w", err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("dist: mesh listener: %w", err)
	}
	return ln, nil
}
