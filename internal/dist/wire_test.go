package dist

// Wire-format hardening tests: a frame reader fed by real sockets sees
// truncated streams, corrupt length prefixes and version-skewed peers. The
// reader must fail with a clean error every time — never panic, and never
// let an untrusted length prefix force a large up-front allocation.

import (
	"bytes"
	"encoding/binary"
	"io"
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

// decodeFramePayload drives the decoders with arbitrary bytes: the
// production ones for welcome, block, checkpoint and reshard-ack, and a
// mirror of the switch arms that still decode inline (status, final, assign
// and the string frames). Decode errors are fine; panics are not.
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
		cur.u64() // probeID
		cur.u8()  // flags
		cur.u32() // gen
		cur.u64() // epoch
		cur.u64() // sent
		cur.u64() // delivered
		cur.u64() // drained
	case msgAssign:
		cur.u32() // gen
		cur.u32() // lo
		cur.u32() // hi
		cur.f64s(len(cur.b)/8 - 1)
		n := int(int32(cur.u32()))
		for i := 0; i < n && cur.err == nil; i++ {
			cur.str()
		}
	case msgFinal:
		cur.u32() // lo
		vals := int(int32(cur.u32()))
		cur.f64s(vals)
		cur.u32() // updates
		for i := 0; i < 6; i++ {
			cur.u64()
		}
		cur.u64s(int(int32(cur.u32())))
	case msgMeshAddr, msgReject:
		cur.str()
	case msgPeers:
		n := int(int32(cur.u32()))
		for i := 0; i < n && cur.err == nil; i++ {
			cur.str()
		}
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
