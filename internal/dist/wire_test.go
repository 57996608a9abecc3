package dist

// Wire-format hardening tests: a frame reader fed by real sockets sees
// truncated streams, corrupt length prefixes and version-skewed peers. The
// reader must fail with a clean error every time — never panic, and never
// let an untrusted length prefix force a large up-front allocation.

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
)

// frameWithLyingPrefix builds a header whose length prefix claims length
// bytes follow, backed by only got actual payload bytes.
func frameWithLyingPrefix(length uint32, typ byte, got int) []byte {
	f := make([]byte, frameHeaderLen+got)
	binary.LittleEndian.PutUint32(f, length)
	f[4] = typ
	return f
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	// Prefix claims 1 MiB; the stream ends after 16 bytes.
	data := frameWithLyingPrefix(1<<20, msgBlock, 16)
	_, _, err := readFrame(bytes.NewReader(data), maxFramePayload)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated large frame: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	// Same below the chunk threshold (the direct-allocation path).
	data = frameWithLyingPrefix(512, msgBlock, 3)
	if _, _, err := readFrame(bytes.NewReader(data), maxFramePayload); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated small frame: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

func TestReadFrameOversizedLengthPrefix(t *testing.T) {
	for _, length := range []uint32{0, 0xffffffff, uint32(maxFramePayload) + 2} {
		data := frameWithLyingPrefix(length, msgBlock, 0)
		_, _, err := readFrame(bytes.NewReader(data), maxFramePayload)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("length prefix %d: err = %v, want out-of-range error", length, err)
		}
	}
}

// TestDecodeWelcomeBoundsWorkers: a worker sizes its per-peer state by the
// welcome's worker count, so the decoder accepts only what a validated
// coordinator can send — 1 <= workers <= n with the slot inside it — and a
// lying 4-byte field fails typed instead of becoming a 32 GiB allocation.
func TestDecodeWelcomeBoundsWorkers(t *testing.T) {
	encode := func(id int, workers uint32) []byte {
		w := welcome{id: id, n: 4, lo: 0, hi: 2, gen: 1}
		w.cfg.Workers = 2
		w.cfg.X0 = make([]float64, 4)
		payload := w.frame()[frameHeaderLen:]
		binary.LittleEndian.PutUint32(payload[4:], workers)
		return payload
	}
	if w, err := decodeWelcome(encode(1, 2)); err != nil || w.cfg.Workers != 2 || w.id != 1 {
		t.Fatalf("valid welcome: (%+v, %v)", w, err)
	}
	if _, err := decodeWelcome(encode(3, 4)); err != nil {
		t.Errorf("workers == n refused: %v", err)
	}
	for _, tc := range []struct {
		id      int
		workers uint32
	}{
		{0, 0},          // no workers at all
		{0, 5},          // more workers than components
		{0, 0xffffffff}, // the lying field
		{0, 1 << 31},
		{2, 2}, // slot outside the worker count
	} {
		if _, err := decodeWelcome(encode(tc.id, tc.workers)); err == nil {
			t.Errorf("slot %d of %d workers over n=4 accepted", tc.id, tc.workers)
		}
	}
}

// TestControlFramesRoundTrip: status, final, assign and peers decode to what
// was encoded, and a table of the wrong size is refused.
func TestControlFramesRoundTrip(t *testing.T) {
	payload := func(frame []byte) []byte { return frame[frameHeaderLen:] }
	st := status{probeID: 9, passive: true, spent: true, gen: 2, epoch: 5, sent: 4, delivered: 3, drained: 1}
	if got, err := decodeStatus(payload(buildStatusFrame(st))); err != nil || got != st {
		t.Errorf("status = %+v, %v; want %+v", got, err, st)
	}
	fin := final{lo: 1, vals: []float64{2, 3}, updates: 7, sent: 6, delivered: 5, stale: 4,
		dropped: 3, reordered: 2, duplicate: 1, linkBytes: []uint64{0, 40}}
	if got, err := decodeFinal(payload(buildFinalFrame(fin)), fuzzDim, fuzzWorkers); err != nil || !reflect.DeepEqual(got, fin) {
		t.Errorf("final = %+v, %v; want %+v", got, err, fin)
	}
	if _, err := decodeFinal(payload(buildFinalFrame(fin)), fuzzDim, 1); err == nil {
		t.Error("two link byte counters accepted from a one-worker run")
	}
	for _, as := range []assign{
		{gen: 2, lo: 1, hi: 3, x: []float64{1, 2, 3}},
		{gen: 2, lo: 0, hi: 1, x: []float64{1, 2, 3}, addrs: []string{"127.0.0.1:1", ""}},
	} {
		if got, err := decodeAssign(payload(buildAssignFrame(as)), fuzzDim, fuzzWorkers); err != nil || !reflect.DeepEqual(got, as) {
			t.Errorf("assign = %+v, %v; want %+v", got, err, as)
		}
	}
	bad := assign{gen: 2, lo: 2, hi: 1, x: []float64{1, 2, 3}}
	if _, err := decodeAssign(payload(buildAssignFrame(bad)), fuzzDim, fuzzWorkers); err == nil {
		t.Error("assign with lo > hi accepted")
	}
	addrs := []string{"127.0.0.1:1", "127.0.0.1:2"}
	if got, err := decodePeers(appendPeers(nil, addrs), 2); err != nil || !reflect.DeepEqual(got, addrs) {
		t.Errorf("peers = %v, %v; want %v", got, err, addrs)
	}
	for _, p := range []int{1, 3} {
		if _, err := decodePeers(appendPeers(nil, addrs), p); err == nil || !strings.Contains(err.Error(), "count 2, want") {
			t.Errorf("2-entry peer table for %d workers: err = %v", p, err)
		}
	}
	if _, err := decodePeers(appendPeers(nil, nil), 2); err == nil {
		t.Error("empty rendezvous peer table accepted")
	}
}

// Dimension and worker count the fuzz target decodes final, assign and
// peers payloads against (the seeds are built for them).
const (
	fuzzDim     = 3
	fuzzWorkers = 2
)

// decodeFramePayload drives the production decoders — the very functions the
// coordinator's serveLink and the worker's handle / runWorker call — with
// arbitrary bytes. Decode errors are fine; panics are not.
func decodeFramePayload(typ byte, payload []byte) {
	cur := cursor{b: payload}
	switch typ {
	case msgHello:
		// An unknown-version hello must surface as a comparison failure,
		// never anything worse.
		_ = cur.u32() != protocolVersion
	case msgWelcome:
		decodeWelcome(payload)
	case msgBlock:
		_, cur := decodeBlock(payload)
		cur.slice(maxFramePayload)
	case msgCheckpoint, msgReshardAck:
		decodeShard(payload, maxFramePayload)
	case msgStatus:
		decodeStatus(payload)
	case msgAssign:
		decodeAssign(payload, fuzzDim, fuzzWorkers)
	case msgFinal:
		decodeFinal(payload, maxFramePayload, fuzzWorkers)
	case msgPeers:
		decodePeers(payload, fuzzWorkers)
	case msgMeshAddr, msgReject:
		cur.str()
	case msgDiverged:
		decodeDiverged(payload, fuzzDim)
	case msgReshard, msgMeshHello, msgProbe:
		cur.u64()
	}
}

// FuzzDecodeFrame feeds arbitrary byte streams through readFrame and the
// per-type payload decoders. Required behaviour for any input: no panic, a
// clean error on truncated or corrupt streams, and no payload larger than
// the bytes that actually arrived (a lying length prefix must not commit
// memory the stream never backed).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(buildFrame(msgHello, appendU32(nil, protocolVersion)))
	f.Add(buildFrame(msgHello, appendU32(nil, 99))) // unknown version
	f.Add(buildBlockFrame(1, 7, blockReliable, 2, 3, []float64{1.5, -2, 0.25}))
	f.Add(frameWithLyingPrefix(1<<20, msgBlock, 16))       // truncated
	f.Add(frameWithLyingPrefix(0xffffffff, msgWelcome, 0)) // oversized prefix
	f.Add(frameWithLyingPrefix(0, msgStop, 0))             // zero length
	f.Add(buildFrame(msgCheckpoint, appendU32(appendU32(appendU32(nil, 1), 0), 0xfffffff0)))
	f.Add(buildFrame(msgAssign, appendU32(appendU32(appendU32(nil, 2), 0), 4)))
	f.Add([]byte{})
	wel := welcome{id: 1, n: 3, lo: 1, hi: 2, gen: 1, cfg: Config{Topology: TopologyMesh}}
	wel.cfg.Workers, wel.cfg.X0 = 2, []float64{1, 2, 3}
	f.Add(wel.frame())
	f.Add(buildShardFrame(msgReshardAck, 2, 1, []float64{0.5, -0.5}))
	f.Add(buildStatusFrame(status{probeID: 9, passive: true, gen: 2, epoch: 5, sent: 4, delivered: 3, drained: 1}))
	f.Add(buildFinalFrame(final{lo: 1, vals: []float64{2, 3}, updates: 7, sent: 6, linkBytes: []uint64{0, 40}}))
	f.Add(buildAssignFrame(assign{gen: 2, lo: 1, hi: 3, x: []float64{1, 2, 3}}))
	f.Add(buildAssignFrame(assign{gen: 2, lo: 0, hi: 1, x: []float64{1, 2, 3}, addrs: []string{"127.0.0.1:1", ""}}))
	f.Add(buildFrame(msgAssign, appendU32(appendF64s(appendU32(appendU32(appendU32(nil, 2), 0), 1), []float64{1, 2, 3}), 0xffffffff))) // lying peer count
	f.Add(buildFrame(msgPeers, appendPeers(nil, []string{"127.0.0.1:1", "127.0.0.1:2"})))
	f.Add(buildDivergedFrame(7, 2))
	f.Add(buildDivergedFrame(1, 0xfffffff0)) // component outside the iterate
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data), maxFramePayload)
		if err != nil {
			return // clean rejection is the required outcome for bad streams
		}
		if len(payload) > len(data) {
			t.Fatalf("payload %d bytes from a %d-byte stream", len(payload), len(data))
		}
		decodeFramePayload(typ, payload)
	})
}
