package serve

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snap"
	"repro/internal/wire"
)

// codecEdgeEvents covers every event kind, negative signed fields,
// all-ones unsigned fields and both used bytes.
func codecEdgeEvents() []engine.Event {
	ones := core.FeatureInput{
		Addr:       math.MaxUint64,
		PC:         math.MaxUint64,
		PCHist:     core.PCHistory{math.MaxUint64, math.MaxUint64, math.MaxUint64},
		Depth:      math.MaxInt64,
		Signature:  math.MaxUint16,
		Confidence: math.MaxInt64,
		Delta:      math.MaxInt64,
	}
	negative := core.FeatureInput{
		Addr:       0x1000,
		PC:         0x400100,
		PCHist:     core.PCHistory{1, 2, 3},
		Depth:      -1,
		Signature:  0x0abc,
		Confidence: -100,
		Delta:      math.MinInt64,
	}
	return []engine.Event{
		engine.Candidate(ones),
		engine.Candidate(negative),
		{Kind: engine.KindDemand, Input: ones},
		engine.Demand(0),
		{Kind: engine.KindLoadPC, Input: negative},
		engine.LoadPC(math.MaxUint64),
		engine.Evict(math.MaxUint64, true),
		engine.Evict(0x2000, false),
		{Kind: engine.KindEvict, Input: negative, Used: true},
	}
}

// decodeBody decodes a batch body with the server's decoder.
func decodeBody(body []byte) ([]engine.Event, error) {
	return decodeBatch(snap.NewDecoder(body[1:]), nil)
}

// TestEventCodec round-trips the edge events and a synthetic stream
// through the batch codec.
func TestEventCodec(t *testing.T) {
	events := append(codecEdgeEvents(), syntheticEvents(13, 256)...)
	kinds := map[engine.Kind]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	if len(kinds) != 4 {
		t.Fatalf("test events cover %d kinds, want all 4", len(kinds))
	}
	body := encodeBatch(nil, events)
	if body[0] != opBatch {
		t.Fatalf("op byte 0x%02x, want opBatch", body[0])
	}
	out, err := decodeBody(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range events {
		if out[i] != events[i] {
			t.Fatalf("event %d round trip diverged: %+v vs %+v", i, out[i], events[i])
		}
	}
	// Reusing the buffers must give the same bytes and events.
	again := encodeBatch(body, events[:5])
	if !bytes.Equal(again, encodeBatch(nil, events[:5])) {
		t.Fatal("encoding over a reused buffer changed the bytes")
	}
	out, err = decodeBatch(snap.NewDecoder(again[1:]), out)
	if err != nil || !slices.Equal(out, events[:5]) {
		t.Fatalf("decoding into a reused buffer: %v, %+v", err, out)
	}
}

// TestEventDecodeRejectsBadKind: a kind byte past the table fails the
// batch typed, as engine.ErrBadKind inside wire.ErrBadFrame.
func TestEventDecodeRejectsBadKind(t *testing.T) {
	body := encodeBatch(nil, []engine.Event{engine.Candidate(core.FeatureInput{Addr: 0x1000})})
	body[1+wire.LenSize+evKind] = 0x7F
	_, err := decodeBody(body)
	if !errors.Is(err, engine.ErrBadKind) || !errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("kind byte 0x7F: err = %v, want ErrBadKind and ErrBadFrame", err)
	}
}

// TestBatchDecodeRejects sends malformed batches to a server: each is
// answered with ErrBadFrame. The client half-closes after the batch, so
// a server that wrongly accepts it ends the stream at EOF instead of
// waiting for another request.
func TestBatchDecodeRejects(t *testing.T) {
	_, addr := startServer(t)
	hello := encodeHello("rejects")
	batch := func() []byte { return encodeBatch(nil, codecEdgeEvents()[6:8]) }
	usedTwo := batch()
	usedTwo[1+wire.LenSize+eventWireSize+evUsed] = 2
	truncated := batch()
	truncated = truncated[:len(truncated)-1]
	trailing := append(batch(), 0)
	cases := []struct {
		name string
		body []byte
	}{
		{"used byte of 2", usedTwo},
		{"truncated event block", truncated},
		{"trailing byte", trailing},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer conn.Close()
			for _, f := range [][]byte{hello, tc.body} {
				if err := wire.WriteFrame(conn, f); err != nil {
					t.Fatalf("write: %v", err)
				}
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatalf("close write: %v", err)
			}
			if err := rawReadError(conn); !errors.Is(err, wire.ErrBadFrame) {
				t.Fatalf("err = %v, want ErrBadFrame", err)
			}
		})
	}
}

// replay is an endless reader that repeats one byte string.
type replay struct {
	b   []byte
	off int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// TestServedBatchAllocs pins the allocation cost of one 32-event round
// trip. The server's read, parse and execute of a batch allocate
// nothing once its buffers have grown. The client's encode, exchange
// and decode allocate only the verdict slice it returns.
func TestServedBatchAllocs(t *testing.T) {
	events := syntheticEvents(21, 32)
	st := &stream{sess: engine.New(core.DefaultConfig())}
	var request bytes.Buffer
	wire.WriteFrame(&request, encodeBatch(nil, events))
	rd := wire.NewReader(&replay{b: request.Bytes()}, MaxFrame)
	serverStep := func() {
		f, err := wire.ReadRequest(rd, boundFor)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		op, err := st.parse(f)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		st.execute(op)
	}
	if n := testing.AllocsPerRun(200, serverStep); n != 0 {
		t.Errorf("server parse and execute: %v allocs per batch, want 0", n)
	}

	var response bytes.Buffer
	wire.WriteFrame(&response, st.reply)
	conn := struct {
		io.Reader
		io.Writer
	}{&replay{b: response.Bytes()}, io.Discard}
	c := &Client{wc: wire.NewConn(conn, MaxFrame, boundFor)}
	clientStep := func() {
		if _, err := c.Decide(events); err != nil {
			t.Fatalf("decide: %v", err)
		}
	}
	if n := testing.AllocsPerRun(200, clientStep); n > 1 {
		t.Errorf("client round trip: %v allocs per batch, want at most 1 (the returned verdicts)", n)
	}
}

// BenchmarkDecideRoundTrip times one client's 32-event Decide against
// an in-process server over loopback TCP, client and server together.
func BenchmarkDecideRoundTrip(b *testing.B) {
	_, addr := startServer(b)
	c, err := Dial(addr, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	events := syntheticEvents(3, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := c.Decide(events); err != nil {
			b.Fatal(err)
		}
	}
}
