package serve

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snap"
	"repro/internal/wire"
)

// FuzzServeFrame feeds one arbitrary frame body to every decoder ppfd
// runs on untrusted bytes: the server's hello and request parsing, and
// the client's response decoding behind each call. Nothing may panic,
// and since the frame is complete, every error must carry a wire class.
// A body the server accepts as a batch must also round-trip: its
// events re-encode to the same bytes and decode back to themselves.
func FuzzServeFrame(f *testing.F) {
	st := &stream{sess: engine.New(core.DefaultConfig())}
	st.sess.ApplyBatch(syntheticEvents(2, 64), nil)
	seeds := [][]byte{
		encodeHello("seed"),
		encodeBatch(nil, syntheticEvents(1, 4)),
		wire.Body(opStats, nil),
		wire.Body(opSnapshot, nil),
		wire.Body(opReset, nil),
		wire.Body(opOK, nil),
		encodeDecisions(nil, []core.Decision{core.FillL2, core.FillLLC, core.Drop}),
		st.execute(opStats),
		encodeSnapRep([]byte("blob")),
		// The wire contract's edge frames.
		{},
		{opStats, 0},
		make([]byte, boundFor(opBatch)+1),
		append([]byte{opHello}, make([]byte, boundFor(opHello))...),
		rawErrorBody(0),
		rawErrorBody(0xFE),
	}
	for _, err := range wireClasses {
		seeds = append(seeds, wire.ErrorBody(err, wire.CodeInternal))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	calls := map[string]func(c *Client) error{
		"decide":   func(c *Client) error { _, err := c.Decide(nil); return err },
		"stats":    func(c *Client) error { _, err := c.Stats(); return err },
		"snapshot": func(c *Client) error { _, err := c.Snapshot(); return err },
		"reset":    func(c *Client) error { return c.Reset() },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var framed bytes.Buffer
		wire.WriteFrame(&framed, body)
		frame := framed.Bytes()
		reader := func() *wire.Reader { return wire.NewReader(bytes.NewReader(frame), MaxFrame) }

		if _, err := readHello(reader()); err != nil {
			requireWireClass(t, "hello", err)
		}
		parsed := &stream{}
		req, err := wire.ReadRequest(reader(), boundFor)
		if err == nil {
			_, err = parsed.parse(req)
		}
		if err != nil {
			requireWireClass(t, "request", err)
		} else if req.Op == opBatch {
			requireBatchRoundTrip(t, body, parsed.events)
		}
		for name, call := range calls {
			rw := struct {
				io.Reader
				io.Writer
			}{bytes.NewReader(frame), io.Discard}
			c := &Client{wc: wire.NewConn(rw, MaxFrame, boundFor)}
			if err := call(c); err != nil {
				requireWireClass(t, name, err)
			}
		}
	})
}

// requireBatchRoundTrip checks the batch codec on events the server
// decoded from body: encoding them gives body back byte for byte, and
// decoding that encoding gives the events back.
func requireBatchRoundTrip(t *testing.T, body []byte, events []engine.Event) {
	t.Helper()
	enc := encodeBatch(nil, events)
	if !bytes.Equal(enc, body) {
		t.Fatalf("batch of %d events re-encodes to different bytes:\n got %x\nwant %x", len(events), enc, body)
	}
	back, err := decodeBatch(snap.NewDecoder(enc[1:]), nil)
	if err != nil {
		t.Fatalf("decoding the re-encoded batch: %v", err)
	}
	if !slices.Equal(back, events) {
		t.Fatalf("batch round trip diverged:\n got %+v\nwant %+v", back, events)
	}
}

// wireClasses lists every wire sentinel.
var wireClasses = []error{wire.ErrBadFrame, wire.ErrBadOrder, wire.ErrSessionBusy,
	wire.ErrOverloaded, wire.ErrTooLarge, wire.ErrInternal, wire.ErrBadLease}

// requireWireClass fails the test unless err matches a wire sentinel.
func requireWireClass(t *testing.T, what string, err error) {
	t.Helper()
	for _, class := range wireClasses {
		if errors.Is(err, class) {
			return
		}
	}
	t.Fatalf("%s: error %v carries no wire class", what, err)
}
