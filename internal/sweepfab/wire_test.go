package sweepfab

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/simstore"
	"repro/internal/wire"
)

// startCoordinator spins a coordinator over a throwaway store on a
// loopback listener and returns its address.
func startCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	if cfg.Store == nil {
		st, err := simstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	c := NewCoordinator(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(lis)
	t.Cleanup(func() { c.Close() })
	return c, lis.Addr().String()
}

// rawConn dials the coordinator and speaks raw frames, for testing the
// protocol's error paths below the worker client.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	wc   wire.Conn
}

// dialRaw connects a hand-driven worker. Its reads share one deadline,
// so a coordinator that wrongly stays silent fails the test instead of
// leaving it blocked.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &rawConn{t: t, conn: conn, wc: workerWire(conn)}
}

// workerWire reads responses as a worker at the default frame cap does.
func workerWire(rw io.ReadWriter) wire.Conn {
	return wire.NewConn(rw, defaultMaxFrame, func(op uint8) int { return fabBoundFor(op, defaultMaxFrame) })
}

// fabResponses lists every response op.
var fabResponses = []uint8{opFabWelcome, opFabCell, opFabWait, opFabShutdown, opFabAck}

func (r *rawConn) send(body []byte) {
	r.t.Helper()
	if err := wire.WriteFrame(r.conn, body); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads one response frame, failing the test on any error.
func (r *rawConn) recv() wire.Frame {
	r.t.Helper()
	f, err := r.wc.Recv(fabResponses...)
	if err != nil {
		r.t.Fatal(err)
	}
	return f
}

// recvOp reads one response frame and returns its op.
func (r *rawConn) recvOp() uint8 {
	r.t.Helper()
	return r.recv().Op
}

// recvErr reads one response frame and requires it to be a typed error.
func (r *rawConn) recvErr() error {
	r.t.Helper()
	f, err := r.wc.Recv(fabResponses...)
	if err == nil {
		r.t.Fatalf("response op 0x%02x, want an error frame", f.Op)
	}
	var we *wire.Error
	if !errors.As(err, &we) {
		r.t.Fatal(err)
	}
	return err
}

// TestWireErrorRoundTrip pins that every fabric failure class survives
// the coordinator's error frame to the worker's exchange: errors.Is
// against each sentinel holds on the decoded side, and only against
// that one, which is the whole point of the typed codes. A failure with
// no wire class travels as ErrBadFrame, keeping its text.
func TestWireErrorRoundTrip(t *testing.T) {
	cases := []*wire.Error{
		{Code: wire.CodeBadFrame, Msg: "mangled"},
		{Code: wire.CodeBadOrder, Msg: "lease before hello"},
		{Code: wire.CodeBadLease, Msg: "lease 7 not held"},
		{Code: wire.CodeTooLarge, Msg: "frame of doom"},
	}
	sentinels := []error{wire.ErrBadFrame, wire.ErrBadOrder, wire.ErrBadLease, wire.ErrTooLarge}
	overWire := func(err error) error {
		var buf bytes.Buffer
		wire.WriteFrame(&buf, wire.ErrorBody(err, wire.CodeBadFrame))
		wc := workerWire(&buf)
		_, got := wc.Recv(opFabAck)
		return got
	}
	for i, we := range cases {
		got := overWire(we)
		if !errors.Is(got, sentinels[i]) {
			t.Fatalf("decoded %v does not match sentinel %v", got, sentinels[i])
		}
		for j, other := range sentinels {
			if j != i && errors.Is(got, other) {
				t.Fatalf("decoded %v wrongly matches %v", got, other)
			}
		}
		var back *wire.Error
		if !errors.As(got, &back) || back.Msg != we.Msg {
			t.Fatalf("message lost: %v", got)
		}
	}
	got := overWire(errors.New("short read"))
	var back *wire.Error
	if !errors.Is(got, wire.ErrBadFrame) || !errors.As(got, &back) || back.Msg != "short read" {
		t.Fatalf("untyped failure came back as %v, want ErrBadFrame with its text", got)
	}
}

func TestWireRequestBeforeHello(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	r := dialRaw(t, addr)
	r.send(encodeLease())
	if err := r.recvErr(); !errors.Is(err, wire.ErrBadOrder) {
		t.Fatalf("lease before hello: %v, want ErrBadOrder", err)
	}
}

func TestWireDuplicateHello(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	if op := r.recvOp(); op != opFabWelcome {
		t.Fatalf("hello response op 0x%02x", op)
	}
	r.send(encodeHello("w"))
	if err := r.recvErr(); !errors.Is(err, wire.ErrBadOrder) {
		t.Fatalf("duplicate hello: %v, want ErrBadOrder", err)
	}
}

func TestWireUnknownOp(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	r.recvOp()
	r.send([]byte{0x7E})
	if err := r.recvErr(); !errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("unknown op: %v, want ErrBadFrame", err)
	}
}

func TestWireOversizedFrame(t *testing.T) {
	_, addr := startCoordinator(t, Config{MaxFrame: 256})
	r := dialRaw(t, addr)
	r.send(make([]byte, 4096))
	// The coordinator refuses to even read the body; the connection
	// drops with a too-large error frame.
	if err := r.recvErr(); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrTooLarge", err)
	}
}

func TestWireBadLeaseCompletion(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	r.recvOp()
	r.send(encodeDone(12345, true))
	if err := r.recvErr(); !errors.Is(err, wire.ErrBadLease) {
		t.Fatalf("bogus completion: %v, want ErrBadLease", err)
	}
	// Survivable: the same connection still gets lease responses.
	r.send(encodeLease())
	if op := r.recvOp(); op != opFabWait {
		t.Fatalf("post-error lease response op 0x%02x, want opFabWait", op)
	}
}

func TestWireLeaseGrantAndCompletion(t *testing.T) {
	c, addr := startCoordinator(t, Config{WaitHint: time.Millisecond})
	done := c.Board().Submit("cell-key", []byte("cell-spec"))
	r := dialRaw(t, addr)
	r.send(encodeHello("w"))
	r.recvOp()
	r.send(encodeLease())
	f := r.recv()
	if f.Op != opFabCell {
		t.Fatalf("lease response op 0x%02x, want opFabCell", f.Op)
	}
	id, spec, err := decodeCell(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(spec) != "cell-spec" {
		t.Fatalf("leased spec = %q", spec)
	}
	r.send(encodeDone(id, true))
	if op := r.recvOp(); op != opFabAck {
		t.Fatalf("completion response op 0x%02x, want opFabAck", op)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("completion did not close the submit channel")
	}
}

// TestWireDisconnectRequeues: dropping a connection mid-lease returns
// the cell to the queue for the next worker.
func TestWireDisconnectRequeues(t *testing.T) {
	c, addr := startCoordinator(t, Config{WaitHint: time.Millisecond})
	c.Board().Submit("cell", []byte("spec"))
	r := dialRaw(t, addr)
	r.send(encodeHello("doomed"))
	r.recvOp()
	r.send(encodeLease())
	if op := r.recvOp(); op != opFabCell {
		t.Fatalf("lease response op 0x%02x", op)
	}
	r.conn.Close()

	// The requeue happens when the coordinator's read loop notices the
	// close; poll the counters rather than racing it.
	deadline := time.Now().Add(5 * time.Second) //ppflint:allow determinism test retry deadline
	for c.Board().Counters().Disconnects == 0 {
		if time.Now().After(deadline) { //ppflint:allow determinism test retry deadline
			t.Fatal("disconnect never released the lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	r2 := dialRaw(t, addr)
	r2.send(encodeHello("rescuer"))
	r2.recvOp()
	r2.send(encodeLease())
	if op := r2.recvOp(); op != opFabCell {
		t.Fatalf("requeued cell not re-leased (op 0x%02x)", op)
	}
}

// TestFrameSizeBounds sanity-checks the bound table against the actual
// encoders: every encoded frame must fit its own op's bound.
func TestFrameSizeBounds(t *testing.T) {
	frames := map[string][]byte{
		"hello":    encodeHello("some-worker"),
		"lease":    encodeLease(),
		"done":     encodeDone(1, true),
		"welcome":  encodeWelcome(300_000),
		"cell":     encodeCell(7, make([]byte, 512)),
		"wait":     encodeWait(50),
		"shutdown": encodeShutdown(),
		"ack":      encodeAck(),
	}
	for name, body := range frames {
		if len(body) == 0 {
			t.Fatalf("%s: empty frame", name)
		}
		bound := fabBoundFor(body[0], defaultMaxFrame)
		if len(body) > bound {
			t.Errorf("%s: %d-byte frame exceeds its own bound %d", name, len(body), bound)
		}
	}
}
