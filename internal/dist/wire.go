package dist

// The wire format: length-prefixed little-endian binary frames over TCP.
//
//	frame    := u32 length | u8 type | payload          (length counts type + payload)
//	hello    := u32 protocolVersion
//	welcome  := u32 id | u32 workers | u32 n | u32 lo | u32 hi |
//	            f64 tol | u32 maxUpdates |
//	            u8 topology | f64 deltaThreshold | u64 timeoutNs |
//	            f64 dropProb | f64 reorderProb | u64 maxDelayNs | u64 faultSeed |
//	            u32 gen | u8 rejoining | u64 heartbeatNs | u64 checkpointNs |
//	            f64×n x
//	block    := u32 from | u64 seq | u8 flags | u32 gen | slice
//	slice    := u32 lo | u32 count | f64×count
//	meshaddr := str addr                                (worker → coordinator, mesh)
//	peers    := u32 workers | workers × str addr        (coordinator → workers, mesh)
//	meshhello:= u32 from                                (dialing worker → peer, mesh)
//	probe    := u64 probeID
//	status   := u64 probeID | u8 flags | u32 gen | u64 epoch | u64 sent |
//	            u64 delivered | u64 drained
//	stop     := (empty)
//	final    := slice | u32 updates |
//	            u64 sent | u64 delivered | u64 stale |
//	            u64 dropped | u64 reordered | u64 duplicate |
//	            u32 workers | workers × u64 linkBytes
//	heartbeat:= (empty)                                 (worker → coordinator)
//	checkpoint:= u32 gen | slice                        (worker → coordinator)
//	reshard  := u32 gen                                 (coordinator → workers)
//	reshardack:= u32 gen | slice                        (worker → coordinator)
//	assign   := u32 gen | u32 lo | u32 hi | f64×n x |
//	            u32 peerCount | peerCount × str addr    (coordinator → workers)
//	reject   := str reason                              (coordinator → rejoiner)
//	diverged := u32 phase | u32 component               (worker → coordinator)
//	park     := (empty)                                 (worker → coordinator)
//	bye      := (empty)                                 (coordinator → workers, star)
//	str      := u32 len | len × u8
//
// Every data frame (block) and every status is fenced to the membership
// generation it was sent in, so frames from before a re-shard self-discard
// wherever they surface. Heartbeat frames keep a link observably alive
// between data frames; checkpoint frames stream shard snapshots to the
// coordinator so a restarted worker warm-starts; reshard/reshardack/assign
// is the membership-change barrier (pause survivors, collect their shards,
// re-issue the shard table and — on mesh — the peer address table, ""
// marking dead slots); a reject answers a rejoin attempt that found no free
// worker slot; a diverged is the last frame of a worker whose operator
// evaluated NaN, and ends the run with that error instead of a re-shard
// around the worker; a park says its sender just went passive or spent; a
// bye ends a clean star run, whose links may then carry the next one.
//
// A relay forwards a block frame as it read it, byte for byte: the
// coordinator never re-encodes a worker's frame, so what a destination reads
// is exactly what the source encoded.
//
// block.flags bit 0 marks a reliable frame (a worker's final re-broadcast):
// fault injection never drops or reorder-holds it, the TCP analogue of the
// in-process transport's sendReliable. A block frame may carry any
// [lo, lo+count) slice of the sender's shard — under a delta threshold only
// the runs of components that moved by more than the threshold are shipped.
// status.flags bit 0 is passive, bit 1 is spent (update budget exhausted).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

const protocolVersion = 6

const (
	msgHello byte = iota + 1
	msgWelcome
	msgBlock
	msgProbe
	msgStatus
	msgStop
	msgFinal
	msgMeshAddr
	msgPeers
	msgMeshHello
	msgHeartbeat
	msgCheckpoint
	msgReshard
	msgReshardAck
	msgAssign
	msgReject
	msgDiverged
	msgPark
	msgBye

	// msgConnLost is an internal sentinel a worker's control-connection
	// reader enqueues when the coordinator link dies; it never crosses the
	// wire.
	msgConnLost byte = 255
)

const (
	blockReliable  = 1 << 0
	statusPassive  = 1 << 0
	statusSpent    = 1 << 1
	frameHeaderLen = 5 // u32 length + u8 type

	topologyStarWire byte = 0
	topologyMeshWire byte = 1
)

// appendU32 .. appendStr build payloads; the cursor type consumes them.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendF64s(b []byte, vs []float64) []byte {
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// cursor decodes a payload sequentially; the first short read poisons it so
// call sites check err once at the end.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

func (c *cursor) u8() byte {
	v := c.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (c *cursor) u32() uint32 {
	v := c.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (c *cursor) u64() uint64 {
	v := c.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) f64s(n int) []float64 {
	if n < 0 || len(c.b) < 8*n {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	vs := make([]float64, n)
	c.f64sInto(vs)
	return vs
}

// f64sInto decodes len(dst) values into dst.
func (c *cursor) f64sInto(dst []float64) {
	raw := c.take(8 * len(dst))
	if raw == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}

func (c *cursor) u64s(n int) []uint64 {
	if n < 0 {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	raw := c.take(8 * n)
	if raw == nil {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return vs
}

func (c *cursor) str() string {
	n := int(c.u32())
	if c.err != nil || n > len(c.b) {
		if c.err == nil {
			c.err = io.ErrUnexpectedEOF
		}
		return ""
	}
	return string(c.take(n))
}

// buildFrame assembles a complete frame (header + payload) in one buffer so
// a single Write puts it on the wire without interleaving.
func buildFrame(typ byte, payload []byte) []byte {
	return append(appendHeader(nil, typ, len(payload)), payload...)
}

// appendHeader appends the header of a frame of type typ whose payload takes
// exactly size bytes, in dst's spare capacity when the whole frame fits
// there, else in one allocation of exactly the frame's end.
func appendHeader(dst []byte, typ byte, size int) []byte {
	if end := len(dst) + frameHeaderLen + size; cap(dst) < end {
		dst = append(make([]byte, 0, end), dst...)
	}
	return append(binary.LittleEndian.AppendUint32(dst, uint32(1+size)), typ)
}

// appendSlice encodes the [lo, lo+len(vals)) slice of an iterate; cursor.slice
// decodes it, poisoning the cursor when the slice leaves [0, n).
func appendSlice(b []byte, lo int, vals []float64) []byte {
	b = appendU32(b, uint32(lo))
	b = appendU32(b, uint32(len(vals)))
	return appendF64s(b, vals)
}

func (c *cursor) slice(n int) (lo int, vals []float64) {
	lo, count := c.span()
	vals = c.f64s(count)
	if c.err == nil && !inside(lo, count, n) {
		c.err = fmt.Errorf("slice [%d, %d) outside dimension %d", lo, lo+count, n)
	}
	return lo, vals
}

// span reads a slice's lo and count and checks that count values follow,
// leaving them for f64s or f64sInto.
func (c *cursor) span() (lo, count int) {
	lo, count = int(c.u32()), int(c.u32())
	if c.err == nil && len(c.b) < 8*count {
		c.err = io.ErrUnexpectedEOF
	}
	return lo, count
}

// inside reports whether [lo, lo+count) lies in [0, n).
func inside(lo, count, n int) bool { return lo >= 0 && lo+count <= n }

// blockHeader is the fixed prefix of a block frame — all a relay reads of
// it.
type blockHeader struct {
	from  int
	seq   uint64
	flags byte
	gen   uint32
}

// blockPrefixLen is the bytes of a block frame before its values: the
// frame header, the block header and the slice's lo and count.
const blockPrefixLen = frameHeaderLen + 4 + 8 + 1 + 4 + 4 + 4

// appendBlockFrame appends one whole data-plane frame carrying the
// [lo, lo+len(vals)) slice vals of worker from's shard, fenced to membership
// generation gen, encoding in place in dst's spare capacity.
//
//repro:hotpath
func appendBlockFrame(dst []byte, from int, seq uint64, flags byte, gen uint32, lo int, vals []float64) []byte {
	start, end := len(dst), len(dst)+blockPrefixLen+8*len(vals)
	if cap(dst) < end {
		dst = append(make([]byte, 0, end), dst...) //repro:alloc-ok pool miss; TestDelayedSendDoesNotAllocate pins a warm encode at 0
	}
	f := dst[start:end]
	le := binary.LittleEndian
	le.PutUint32(f, uint32(len(f)-4))
	f[4] = msgBlock
	le.PutUint32(f[5:], uint32(from))
	le.PutUint64(f[9:], seq)
	f[17] = flags
	le.PutUint32(f[18:], gen)
	le.PutUint32(f[22:], uint32(lo))
	le.PutUint32(f[26:], uint32(len(vals)))
	for i, v := range vals {
		le.PutUint64(f[blockPrefixLen+8*i:], math.Float64bits(v))
	}
	return dst[:end]
}

// decodeBlock reads a block payload's header and returns the cursor at its
// slice, which only a receiving worker decodes.
func decodeBlock(payload []byte) (h blockHeader, cur cursor) {
	cur.b = payload
	h.from, h.seq, h.flags, h.gen = int(cur.u32()), cur.u64(), cur.u8(), cur.u32()
	return h, cur
}

// buildShardFrame assembles a checkpoint or reshard-ack frame: the sender's
// shard values as of membership generation gen.
func buildShardFrame(typ byte, gen uint32, lo int, vals []float64) []byte {
	return buildFrame(typ, appendSlice(appendU32(nil, gen), lo, vals))
}

// decodeShard is buildShardFrame's inverse for an iterate of dimension n.
func decodeShard(payload []byte, n int) (gen uint32, lo int, vals []float64, err error) {
	cur := cursor{b: payload}
	gen = cur.u32()
	lo, vals = cur.slice(n)
	return gen, lo, vals, cur.err
}

// status is a worker's reply to a probe: its flags and generation-scoped
// counters as of one instant.
type status struct {
	probeID         uint64
	passive, spent  bool
	gen             uint32
	epoch           uint64
	sent, delivered uint64
	drained         uint64
}

// appendStatusFrame appends one whole status frame to dst, in place in its
// spare capacity: a worker answers every probe from one reused buffer.
func appendStatusFrame(dst []byte, st status) []byte {
	var flags byte
	if st.passive {
		flags |= statusPassive
	}
	if st.spent {
		flags |= statusSpent
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, msgStatus) // the length is filled in last
	dst = append(appendU64(dst, st.probeID), flags)
	dst = appendU32(dst, st.gen)
	for _, v := range [...]uint64{st.epoch, st.sent, st.delivered, st.drained} {
		dst = appendU64(dst, v)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func decodeStatus(payload []byte) (status, error) {
	cur := cursor{b: payload}
	st := status{probeID: cur.u64()}
	flags := cur.u8()
	st.passive = flags&statusPassive != 0
	st.spent = flags&statusSpent != 0
	st.gen = cur.u32()
	st.epoch = cur.u64()
	st.sent = cur.u64()
	st.delivered = cur.u64()
	st.drained = cur.u64()
	return st, cur.err
}

// final is a worker's last frame: its authoritative shard and lifetime
// counters.
type final struct {
	lo                     int
	vals                   []float64
	updates                int
	sent, delivered, stale uint64
	dropped                uint64
	reordered, duplicate   uint64
	linkBytes              []uint64
}

// appendFinalFrame appends one whole final frame to dst (see appendHeader).
func appendFinalFrame(dst []byte, f final) []byte {
	b := appendHeader(dst, msgFinal, 8+8*len(f.vals)+4+6*8+4+8*len(f.linkBytes))
	b = appendSlice(b, f.lo, f.vals)
	b = appendU32(b, uint32(f.updates))
	b = appendU64(b, f.sent)
	b = appendU64(b, f.delivered)
	b = appendU64(b, f.stale)
	b = appendU64(b, f.dropped)
	b = appendU64(b, f.reordered)
	b = appendU64(b, f.duplicate)
	b = appendU32(b, uint32(len(f.linkBytes)))
	for _, v := range f.linkBytes {
		b = appendU64(b, v)
	}
	return b
}

// decodeFinal is appendFinalFrame's inverse for an iterate of dimension n
// and a run of p workers.
func decodeFinal(payload []byte, n, p int) (final, error) {
	cur := cursor{b: payload}
	var f final
	f.lo, f.vals = cur.slice(n)
	f.updates = int(cur.u32())
	f.sent = cur.u64()
	f.delivered = cur.u64()
	f.stale = cur.u64()
	f.dropped = cur.u64()
	f.reordered = cur.u64()
	f.duplicate = cur.u64()
	f.linkBytes = cur.u64s(int(cur.u32()))
	if cur.err == nil && len(f.linkBytes) > p {
		cur.err = fmt.Errorf("%d link byte counters from a run of %d workers", len(f.linkBytes), p)
	}
	return f, cur.err
}

// buildDivergedFrame reports that the sender's updating phase `phase`
// evaluated NaN at component.
func buildDivergedFrame(phase, component int) []byte {
	return buildFrame(msgDiverged, appendU32(appendU32(nil, uint32(phase)), uint32(component)))
}

// decodeDiverged is buildDivergedFrame's inverse for an iterate of
// dimension n.
func decodeDiverged(payload []byte, n int) (phase, component int, err error) {
	cur := cursor{b: payload}
	phase, component = int(cur.u32()), int(cur.u32())
	if cur.err == nil && component >= n {
		cur.err = fmt.Errorf("component %d outside dimension %d", component, n)
	}
	return phase, component, cur.err
}

// appendPeers encodes a peer address table ("" marks a dead slot);
// cursor.peers decodes one, which is empty or has exactly p entries.
func appendPeers(b []byte, addrs []string) []byte {
	b = appendU32(b, uint32(len(addrs)))
	for _, a := range addrs {
		b = appendStr(b, a)
	}
	return b
}

func (c *cursor) peers(p int) []string {
	if c.err != nil {
		return nil
	}
	count := int(c.u32()) // cut short, it reads as 0 and fails below: p >= 1
	if c.err == nil && count == 0 {
		return nil
	}
	if count != p {
		c.err = fmt.Errorf("count %d, want %d", count, p)
		return nil
	}
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = c.str()
	}
	if c.err != nil {
		c.err = fmt.Errorf("decode: %w", c.err)
		return nil
	}
	return addrs
}

// decodePeers reads the rendezvous peer table of a p-worker mesh.
func decodePeers(payload []byte, p int) ([]string, error) {
	cur := cursor{b: payload}
	addrs := cur.peers(p)
	if cur.err == nil && addrs == nil {
		cur.err = fmt.Errorf("count 0, want %d", p)
	}
	return addrs, cur.err
}

// assign re-issues slot's shard [lo, hi) over the merged iterate x for
// membership generation gen; addrs is the refreshed peer table on mesh, nil
// on star.
type assign struct {
	gen    uint32
	lo, hi int
	x      []float64
	addrs  []string
}

func buildAssignFrame(a assign) []byte {
	b := appendU32(nil, a.gen)
	b = appendU32(b, uint32(a.lo))
	b = appendU32(b, uint32(a.hi))
	b = appendF64s(b, a.x)
	return buildFrame(msgAssign, appendPeers(b, a.addrs))
}

// decodeAssign is buildAssignFrame's inverse for an iterate of dimension n
// and a run of p workers.
func decodeAssign(payload []byte, n, p int) (assign, error) {
	cur := cursor{b: payload}
	a := assign{gen: cur.u32(), lo: int(cur.u32()), hi: int(cur.u32())}
	a.x = cur.f64s(n)
	a.addrs = cur.peers(p)
	if cur.err == nil && (a.lo < 0 || a.lo > a.hi || a.hi > n) {
		cur.err = fmt.Errorf("shard [%d, %d) of %d", a.lo, a.hi, n)
	}
	return a, cur.err
}

// welcome is the decoded welcome frame: the worker's slot in the run plus
// the run's parameters — the coordinator's validated Config travels as is,
// minus what is local to a process (operator, scratches, cancellation),
// with X0 standing for the iterate the worker starts from (x0 at the
// rendezvous, the checkpointed iterate for a rejoiner).
type welcome struct {
	id, n, lo, hi int
	gen           uint32
	rejoining     bool
	cfg           Config
}

// appendFrame appends the whole welcome frame to dst (see appendHeader).
func (w *welcome) appendFrame(dst []byte) []byte {
	c := &w.cfg
	b := appendHeader(dst, msgWelcome, 102+8*len(c.X0)) // 102 bytes of fields, then x
	b = appendU32(b, uint32(w.id))
	b = appendU32(b, uint32(c.Workers))
	b = appendU32(b, uint32(w.n))
	b = appendU32(b, uint32(w.lo))
	b = appendU32(b, uint32(w.hi))
	b = appendF64(b, c.Tol)
	b = appendU32(b, uint32(c.MaxUpdatesPerWorker))
	topo := topologyStarWire
	if c.Topology == TopologyMesh {
		topo = topologyMeshWire
	}
	b = append(b, topo)
	b = appendF64(b, c.DeltaThreshold)
	b = appendU64(b, uint64(c.Timeout))
	b = appendF64(b, c.Fault.DropProb)
	b = appendF64(b, c.Fault.ReorderProb)
	b = appendU64(b, uint64(c.Fault.MaxDelay))
	b = appendU64(b, c.Fault.Seed)
	b = appendU32(b, w.gen)
	rejoining := byte(0)
	if w.rejoining {
		rejoining = 1
	}
	b = append(b, rejoining)
	b = appendU64(b, uint64(c.Elastic.HeartbeatEvery))
	b = appendU64(b, uint64(c.Elastic.CheckpointEvery))
	return appendF64s(b, c.X0)
}

// decodeWelcome decodes a welcome, its x into x when x holds n values (a
// worker's kept view), else into a slice of its own.
func decodeWelcome(payload []byte, x []float64) (welcome, error) {
	cur := cursor{b: payload}
	var w welcome
	c := &w.cfg
	w.id = int(cur.u32())
	c.Workers = int(cur.u32())
	w.n = int(cur.u32())
	w.lo = int(cur.u32())
	w.hi = int(cur.u32())
	c.Tol = cur.f64()
	c.MaxUpdatesPerWorker = int(cur.u32())
	c.Topology = TopologyStar
	if cur.u8() == topologyMeshWire {
		c.Topology = TopologyMesh
	}
	c.DeltaThreshold = cur.f64()
	c.Timeout = time.Duration(cur.u64())
	c.Fault = Fault{
		DropProb:    cur.f64(),
		ReorderProb: cur.f64(),
		MaxDelay:    time.Duration(cur.u64()),
		Seed:        cur.u64(),
	}
	w.gen = cur.u32()
	w.rejoining = cur.u8() != 0
	c.Elastic.HeartbeatEvery = time.Duration(cur.u64())
	c.Elastic.CheckpointEvery = time.Duration(cur.u64())
	if cur.err == nil && len(x) == w.n {
		cur.f64sInto(x)
		c.X0 = x
	} else if cur.err == nil {
		c.X0 = cur.f64s(w.n)
	}
	if cur.err != nil {
		return w, cur.err
	}
	// A validated coordinator sends 1 <= Workers <= n (and n is bounded by
	// the payload that carried x), so nothing a worker sizes by either can
	// be made large by a lying peer.
	if c.Workers < 1 || c.Workers > w.n || w.id < 0 || w.id >= c.Workers || w.lo < 0 || w.lo > w.hi || w.hi > w.n {
		return w, fmt.Errorf("slot %d of %d with shard [%d, %d) of %d", w.id, c.Workers, w.lo, w.hi, w.n)
	}
	return w, c.Fault.validate() // the worker's own sender draws from it
}

// readFrameChunk bounds the allocation a single untrusted length prefix can
// force before any payload byte has actually arrived.
const readFrameChunk = 64 << 10

// readFrame reads one frame, enforcing maxPayload as a sanity bound against
// corrupt length prefixes.
func readFrame(r io.Reader, maxPayload int) (typ byte, payload []byte, err error) {
	f, err := readFrameInto(r, maxPayload, nil)
	if err != nil {
		return 0, nil, err
	}
	return f[4], f[frameHeaderLen:], nil
}

// readFrameInto reads one whole frame, header included, into buf's backing
// array when its payload is at most one chunk and buf has room for it. The
// length prefix is never trusted for an up-front allocation beyond one
// chunk: a large payload is read incrementally into a fresh buffer, so a
// lying prefix on a short or hostile stream fails after the bytes that truly
// arrived instead of first committing maxPayload of memory.
func readFrameInto(r io.Reader, maxPayload int, buf []byte) ([]byte, error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	length := int(binary.LittleEndian.Uint32(hdr))
	if length < 1 || length-1 > maxPayload {
		return nil, fmt.Errorf("dist: frame length %d out of range (max payload %d)", length, maxPayload)
	}
	n := length - 1
	if n > readFrameChunk {
		var b bytes.Buffer
		b.Write(hdr)
		if _, err := io.CopyN(&b, r, int64(n)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		return b.Bytes(), nil
	}
	if cap(buf) < frameHeaderLen+n {
		buf = append(make([]byte, 0, frameHeaderLen+n), hdr...)
	}
	f := buf[:frameHeaderLen+n]
	if _, err := io.ReadFull(r, f[frameHeaderLen:]); err != nil {
		return nil, err
	}
	return f, nil
}
