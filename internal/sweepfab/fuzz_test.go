package sweepfab

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/simstore"
	"repro/internal/wire"
)

// FuzzFabricFrame feeds one arbitrary frame body to every decoder the
// fabric runs on untrusted bytes: the coordinator's hello and request
// dispatch against a fresh board holding one cell, and the worker's
// response decoding. Nothing may panic, and since the frame is
// complete, every error must carry a wire class.
func FuzzFabricFrame(f *testing.F) {
	seeds := [][]byte{
		encodeHello("seed"),
		encodeLease(),
		encodeDone(1, true),
		encodeWelcome(),
		encodeCell(1, []byte("cell-spec")),
		encodeShutdown(),
		encodeAck(),
		// The wire contract's edge frames.
		{},
		{opFabLease, 0},
		// A welcome in an older layout, carrying an 8-byte payload.
		append([]byte{opFabWelcome}, make([]byte, 8)...),
		make([]byte, fabBoundFor(opFabDone)+1),
		append([]byte{opFabHello}, make([]byte, fabBoundFor(opFabHello))...),
		rawErrorBody(0),
		rawErrorBody(0xFE),
	}
	for _, err := range wireClasses {
		seeds = append(seeds, wire.ErrorBody(err, wire.CodeBadFrame))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	store, err := simstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var framed bytes.Buffer
		wire.WriteFrame(&framed, body)
		frame := framed.Bytes()

		c := NewCoordinator(Config{Store: store})
		c.Board().Submit([]byte("cell-spec"))
		reader := func() *wire.Reader { return wire.NewReader(bytes.NewReader(frame), maxFrame) }
		if _, err := readHello(reader()); err != nil {
			requireWireClass(t, "hello", err)
		}
		req, err := wire.ReadRequest(reader(), fabBoundFor)
		if err == nil {
			_, err = c.dispatch("fuzz", req)
		}
		if err != nil {
			requireWireClass(t, "dispatch", err)
		}

		wc := workerWire(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(frame), io.Discard})
		resp, err := wc.Recv(fabResponses...)
		if err == nil && resp.Op == opFabCell {
			_, _, err = decodeCell(resp)
		}
		if err != nil {
			requireWireClass(t, "response", err)
		}
	})
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
