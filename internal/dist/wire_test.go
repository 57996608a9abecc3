package dist

// Wire-format hardening tests: a frame reader fed by real sockets sees
// truncated streams, corrupt length prefixes and version-skewed peers. The
// reader must fail with a clean error every time — never panic, and never
// let an untrusted length prefix force a large up-front allocation.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
)

// frame and buildFinalFrame build a welcome and a final in one allocation of
// exactly their size: the append forms' nil path.
func (w *welcome) frame() []byte { return w.appendFrame(nil) }

func buildFinalFrame(f final) []byte { return appendFinalFrame(nil, f) }

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
	if w, err := decodeWelcome(encode(1, 2), nil); err != nil || w.cfg.Workers != 2 || w.id != 1 {
		t.Fatalf("valid welcome: (%+v, %v)", w, err)
	}
	if _, err := decodeWelcome(encode(3, 4), nil); err != nil {
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
		if _, err := decodeWelcome(encode(tc.id, tc.workers), nil); err == nil {
			t.Errorf("slot %d of %d workers over n=4 accepted", tc.id, tc.workers)
		}
	}
}

// TestControlFramesRoundTrip: status, final, assign and peers decode to what
// was encoded, and a table of the wrong size is refused.
func TestControlFramesRoundTrip(t *testing.T) {
	payload := func(frame []byte) []byte { return frame[frameHeaderLen:] }
	st := status{probeID: 9, passive: true, spent: true, gen: 2, epoch: 5, sent: 4, delivered: 3, drained: 1}
	if got, err := decodeStatus(payload(appendStatusFrame(nil, st))); err != nil || got != st {
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

// statusFrameOracle is the status encoding as first written: a payload
// built field by field, then framed.
func statusFrameOracle(st status) []byte {
	var flags byte
	if st.passive {
		flags |= statusPassive
	}
	if st.spent {
		flags |= statusSpent
	}
	b := append(appendU64(nil, st.probeID), flags)
	b = appendU32(b, st.gen)
	for _, v := range []uint64{st.epoch, st.sent, st.delivered, st.drained} {
		b = appendU64(b, v)
	}
	return buildFrame(msgStatus, b)
}

// TestStatusFrameIntoWarmBuffer: a worker answers every probe into one
// reused buffer, which costs no allocation once warm, and the bytes are
// the field-by-field encoding's.
func TestStatusFrameIntoWarmBuffer(t *testing.T) {
	buf := appendStatusFrame(nil, status{})
	for _, st := range []status{{}, {probeID: 9, passive: true, spent: true, gen: 2, epoch: 5, sent: 4, delivered: 3, drained: 1},
		{probeID: 1 << 60, spent: true, gen: 1 << 31, epoch: 1<<64 - 1}} {
		buf = appendStatusFrame(buf[:0], st)
		if want := statusFrameOracle(st); !bytes.Equal(buf, want) {
			t.Errorf("%+v: encoded % x, want % x", st, buf, want)
		}
	}
	st := status{probeID: 3, passive: true}
	if avg := testing.AllocsPerRun(100, func() {
		st.probeID++
		buf = appendStatusFrame(buf[:0], st)
	}); avg != 0 {
		t.Errorf("a status into a warm buffer allocates %v times", avg)
	}
}

// TestWelcomeAndFinalAtExactSize: a welcome and a final are each built in
// one allocation of exactly their length, header written in place, and
// decode to what was encoded.
func TestWelcomeAndFinalAtExactSize(t *testing.T) {
	wel := welcome{id: 1, n: 64, lo: 16, hi: 32, gen: 3, rejoining: true, cfg: Config{Topology: TopologyMesh, DeltaThreshold: 1e-6, Timeout: time.Minute,
		Fault:   Fault{DropProb: 0.1, ReorderProb: 0.2, MaxDelay: time.Millisecond, Seed: 7},
		Elastic: Elastic{HeartbeatEvery: time.Millisecond, CheckpointEvery: 4 * time.Millisecond}}}
	wel.cfg.Workers, wel.cfg.Tol, wel.cfg.MaxUpdatesPerWorker, wel.cfg.X0 = 4, 1e-9, 1000, make([]float64, 64)
	for i := range wel.cfg.X0 {
		wel.cfg.X0[i] = float64(i) / 3
	}
	fin := final{lo: 16, vals: wel.cfg.X0[16:32], updates: 7, sent: 6, delivered: 5, stale: 4,
		dropped: 3, reordered: 2, duplicate: 1, linkBytes: []uint64{0, 40, 80, 120}}
	for _, tc := range []struct {
		name  string
		build func() []byte
		check func(payload []byte) error
	}{
		{"welcome", wel.frame, func(payload []byte) error {
			got, err := decodeWelcome(payload, nil)
			if err == nil && !reflect.DeepEqual(got, wel) {
				err = fmt.Errorf("decoded %+v, want %+v", got, wel)
			}
			return err
		}},
		{"final", func() []byte { return buildFinalFrame(fin) }, func(payload []byte) error {
			got, err := decodeFinal(payload, wel.n, wel.cfg.Workers)
			if err == nil && !reflect.DeepEqual(got, fin) {
				err = fmt.Errorf("decoded %+v, want %+v", got, fin)
			}
			return err
		}},
	} {
		f := tc.build()
		typ, payload, err := readFrame(bytes.NewReader(f), maxFramePayload)
		if err == nil {
			err = tc.check(payload)
		}
		if err != nil || len(f) != cap(f) || frameHeaderLen+len(payload) != len(f) {
			t.Errorf("%s (type %d): %d bytes in a buffer of %d, %d payload: %v", tc.name, typ, len(f), cap(f), len(payload), err)
		}
		if avg := testing.AllocsPerRun(100, func() { tc.build() }); avg != 1 {
			t.Errorf("a %s frame takes %v allocations, want 1", tc.name, avg)
		}
	}
}

// TestParkCarryingPayloadIsMalformed: a park is an empty frame; one with
// a payload fails the run as a malformed frame, while empty ones only ring.
func TestParkCarryingPayloadIsMalformed(t *testing.T) {
	op, _ := contractingOp(t, 4, 3)
	addr, errCh, _ := serveOne(t, Config{
		Config:  runtime.Config{Op: op, Workers: 1, Tol: 1e-9},
		Timeout: time.Minute,
	})
	conn, _ := joinScripted(t, addr)
	for _, f := range [][]byte{parkFrame, parkFrame, buildFrame(msgPark, []byte{0})} {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "worker 0 sent a malformed park frame") {
		t.Errorf("err = %v, want a malformed park frame", err)
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
		decodeWelcome(payload, nil)
	case msgBlock:
		// The receiving worker's path: header and bounds checked, then the
		// values decoded straight into its view.
		ws := workerState{p: fuzzWorkers, n: fuzzDim, view: make([]float64, fuzzDim), lastSeq: make([]uint64, fuzzWorkers)}
		ws.applyBlock(payload)
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
	case msgPark, msgBye:
		_ = len(payload) > 0 // an empty frame: the whole check there is
	}
}

// FuzzDecodeFrame feeds arbitrary byte streams through the frame reader,
// reading into one buffer reused across inputs the way a pooled reader does,
// and the per-type payload decoders. Required behaviour for any input: no
// panic, a clean error on truncated or corrupt streams, and no payload
// larger than the bytes that actually arrived (a lying length prefix must
// not commit memory the stream never backed).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(buildFrame(msgHello, appendU32(nil, protocolVersion)))
	f.Add(buildFrame(msgHello, appendU32(nil, 99))) // unknown version
	f.Add(appendBlockFrame(nil, 1, 7, blockReliable, 2, 3, []float64{1.5, -2, 0.25}))
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
	f.Add(appendStatusFrame(nil, status{probeID: 9, passive: true, gen: 2, epoch: 5, sent: 4, delivered: 3, drained: 1}))
	f.Add(buildFinalFrame(final{lo: 1, vals: []float64{2, 3}, updates: 7, sent: 6, linkBytes: []uint64{0, 40}}))
	f.Add(buildAssignFrame(assign{gen: 2, lo: 1, hi: 3, x: []float64{1, 2, 3}}))
	f.Add(buildAssignFrame(assign{gen: 2, lo: 0, hi: 1, x: []float64{1, 2, 3}, addrs: []string{"127.0.0.1:1", ""}}))
	f.Add(buildFrame(msgAssign, appendU32(appendF64s(appendU32(appendU32(appendU32(nil, 2), 0), 1), []float64{1, 2, 3}), 0xffffffff))) // lying peer count
	f.Add(buildFrame(msgPeers, appendPeers(nil, []string{"127.0.0.1:1", "127.0.0.1:2"})))
	f.Add(parkFrame)
	f.Add(byeFrame)
	f.Add(buildFrame(msgPark, []byte{1})) // a park carrying a payload
	f.Add(buildDivergedFrame(7, 2))
	f.Add(buildDivergedFrame(1, 0xfffffff0)) // component outside the iterate
	// Blocks a worker of the fuzz dimension applies: a whole iterate and a
	// one-component span.
	f.Add(appendBlockFrame(nil, 1, 7, 0, 0, 0, []float64{1.5, -2, 0.25}))
	f.Add(appendBlockFrame(nil, 0, 3, blockReliable, 0, 2, []float64{4}))
	var buf []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := readFrameInto(bytes.NewReader(data), maxFramePayload, buf)
		if err != nil {
			return // clean rejection is the required outcome for bad streams
		}
		buf = frame
		payload := frame[frameHeaderLen:]
		if len(payload) > len(data) {
			t.Fatalf("payload %d bytes from a %d-byte stream", len(payload), len(data))
		}
		decodeFramePayload(frame[4], payload)
	})
}
