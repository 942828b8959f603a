package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snap"
	"repro/internal/wire"
)

// startServer runs a server on an ephemeral loopback port and returns
// its address, tearing everything down with the test.
func startServer(tb testing.TB) (*Server, string) {
	tb.Helper()
	srv := NewServer(Config{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	go srv.Serve(lis)
	tb.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// TestServedStreamMatchesLocalSession is the cross-the-wire golden: a
// batched served stream must produce bit-identical decisions and
// bit-identical final filter state (via the session snapshot) to a
// local engine.Session fed the same events one at a time.
func TestServedStreamMatchesLocalSession(t *testing.T) {
	_, addr := startServer(t)
	events := syntheticEvents(42, 30_000)

	local := engine.New(core.DefaultConfig())
	var localDecisions []core.Decision
	for i := range events {
		if d, ok := local.Apply(&events[i]); ok {
			localDecisions = append(localDecisions, d)
		}
	}

	c, err := Dial(addr, "golden")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	var served []core.Decision
	for lo := 0; lo < len(events); lo += 777 {
		hi := min(lo+777, len(events))
		ds, err := c.Decide(events[lo:hi])
		if err != nil {
			t.Fatalf("decide batch at %d: %v", lo, err)
		}
		served = append(served, ds...)
	}
	if len(served) != len(localDecisions) {
		t.Fatalf("served %d decisions, local %d", len(served), len(localDecisions))
	}
	for i := range served {
		if served[i] != localDecisions[i] {
			t.Fatalf("decision %d: served %v, local %v", i, served[i], localDecisions[i])
		}
	}

	blob, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	localBlob, err := local.Snapshot()
	if err != nil {
		t.Fatalf("local snapshot: %v", err)
	}
	if !bytes.Equal(blob, localBlob) {
		t.Fatal("served filter state diverged from the local sequential run")
	}
}

// TestSessionReattach: a trained session survives disconnect and is
// resumed by a reconnect with the same key.
func TestSessionReattach(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr, "sticky")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Decide(syntheticEvents(7, 5000)); err != nil {
		t.Fatalf("decide: %v", err)
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if before.Inferences == 0 {
		t.Fatal("no inferences recorded; stream is vacuous")
	}
	// Close returns only after the server has released the lease, so
	// one re-dial must find it free.
	c.Close()
	c2, err := Dial(addr, "sticky")
	if err != nil {
		t.Fatalf("re-dial: %v", err)
	}
	defer c2.Close()
	after, err := c2.Stats()
	if err != nil {
		t.Fatalf("stats after reattach: %v", err)
	}
	if after != before {
		t.Fatalf("reattached stats %+v, want %+v", after, before)
	}
	if n := srv.Sessions(); n != 1 {
		t.Fatalf("server holds %d sessions, want 1", n)
	}

	// Reset returns the session to fresh state.
	if err := c2.Reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	fresh, err := c2.Stats()
	if err != nil {
		t.Fatalf("stats after reset: %v", err)
	}
	if fresh != (core.Stats{}) {
		t.Fatalf("post-reset stats %+v, want zero", fresh)
	}
}

// TestSessionBusy: a key leased to a live connection rejects a second
// connection with the typed busy error.
func TestSessionBusy(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, "contended")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := Dial(addr, "contended"); !errors.Is(err, wire.ErrSessionBusy) {
		t.Fatalf("second dial err = %v, want ErrSessionBusy", err)
	}
}

// TestConnectionChurn is the session map's race test: many clients
// churning connect/stream/disconnect against overlapping session keys.
// Run under -race this exercises the lease handoff under Server.mu and
// connection teardown; the test asserts every stream either completes or
// fails with the one legal error (busy on an overlapping key), and that
// each key registered exactly one session.
func TestConnectionChurn(t *testing.T) {
	srv, addr := startServer(t)
	const (
		workers    = 16
		iterations = 12
		keys       = 8 // fewer keys than workers forces lease contention
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*iterations)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				key := fmt.Sprintf("churn-%d", (w+it)%keys)
				c, err := Dial(addr, key)
				if err != nil {
					if errors.Is(err, wire.ErrSessionBusy) {
						continue // legal: another worker holds the lease
					}
					errCh <- fmt.Errorf("worker %d iter %d dial: %w", w, it, err)
					return
				}
				events := syntheticEvents(uint64(w*100+it), 512)
				if _, err := c.Decide(events); err != nil {
					errCh <- fmt.Errorf("worker %d iter %d decide: %w", w, it, err)
					c.Close()
					return
				}
				if _, err := c.Stats(); err != nil {
					errCh <- fmt.Errorf("worker %d iter %d stats: %w", w, it, err)
					c.Close()
					return
				}
				c.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := srv.Sessions(); n != keys {
		t.Fatalf("server holds %d sessions, want %d", n, keys)
	}
}

// shortDeadlineConn cuts every write deadline to at most 20 ms away, so
// a server writing to a client that never reads gives up in test time.
type shortDeadlineConn struct{ net.Conn }

func (c shortDeadlineConn) SetWriteDeadline(t time.Time) error {
	if limit := time.Now().Add(20 * time.Millisecond); t.After(limit) { //ppflint:allow determinism test socket deadline
		t = limit
	}
	return c.Conn.SetWriteDeadline(t)
}

// TestSlowClientShed: a client that streams requests without ever
// reading responses must be shed with the typed overload error, not
// served without bound, and the shed must free its lease. net.Pipe has
// no kernel buffer, unlike a loopback TCP socket, so the server's write
// of the first unread response blocks until its deadline.
func TestSlowClientShed(t *testing.T) {
	srv := NewServer(Config{})
	cli, srvConn := net.Pipe()
	defer cli.Close()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.handle(shortDeadlineConn{srvConn})
	}()

	// Read only the hello ack, then send batches and never read again.
	wc := wire.NewConn(cli, MaxFrame, boundFor)
	if _, err := wc.Exchange(encodeHello("slow"), opOK); err != nil {
		t.Fatalf("hello: %v", err)
	}
	// The server severs the pipe once it sheds us.
	batch := encodeBatch(nil, syntheticEvents(1, 256))
	for wire.WriteFrame(cli, batch) == nil {
	}
	<-handled
	if n := srv.Sheds(); n != 1 {
		t.Fatalf("Sheds = %d, want 1", n)
	}

	next, nextSrv := net.Pipe()
	defer next.Close()
	go srv.handle(nextSrv)
	wc = wire.NewConn(next, MaxFrame, boundFor)
	if _, err := wc.Exchange(encodeHello("slow"), opOK); err != nil {
		t.Fatalf("hello after the shed: %v", err)
	}
}

// TestPipelinedClientOrdering: a client may write many requests before
// reading any response. The server answers each in order, and each
// answer is what a local session gives for the same events.
func TestPipelinedClientOrdering(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn, MaxFrame, boundFor)
	if _, err := wc.Exchange(encodeHello("pipelined"), opOK); err != nil {
		t.Fatalf("hello: %v", err)
	}

	const batches, size = 16, 300
	events := syntheticEvents(11, batches*size)
	for b := 0; b < batches; b++ {
		if err := wire.WriteFrame(conn, encodeBatch(nil, events[b*size:(b+1)*size])); err != nil {
			t.Fatalf("write batch %d: %v", b, err)
		}
	}
	local := engine.New(core.DefaultConfig())
	for b := 0; b < batches; b++ {
		f, err := wc.Recv(opDecisions)
		if err != nil {
			t.Fatalf("response %d: %v", b, err)
		}
		served, err := decodeDecisions(f, nil)
		if err != nil {
			t.Fatalf("decode response %d: %v", b, err)
		}
		want := local.ApplyBatch(events[b*size:(b+1)*size], nil)
		if !slices.Equal(served, want) {
			t.Fatalf("response %d: served %v, local %v", b, served, want)
		}
	}
}

// rawRequest drives the protocol by hand for malformed-input cases. It
// half-closes after the frames and reads under a deadline, so a server
// that wrongly accepts every frame fails the test with EOF or a timeout
// instead of leaving it blocked.
func rawRequest(t *testing.T, addr string, frames ...[]byte) error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	for i, f := range frames {
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatalf("write frame %d: %v", i, err)
		}
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("half-close: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatalf("read deadline: %v", err)
	}
	return rawReadError(conn)
}

// protocolErrorCase is a frame sequence the server must answer with a
// typed error frame. Every hello in it uses the session key "proto".
type protocolErrorCase struct {
	name   string
	frames [][]byte
	want   error
}

// protocolErrorCases builds the malformed streams.
func protocolErrorCases(t *testing.T) []protocolErrorCase {
	t.Helper()
	hello := encodeHello("proto")
	bigBatch := encodeBatch(nil, syntheticEvents(3, MaxBatch+1))
	badKind := append([]byte(nil), hello...) // reuse framing, op 0x5A
	badKind[0] = 0x5A
	return []protocolErrorCase{
		{"batch before hello", [][]byte{wire.Body(opBatch, nil)}, wire.ErrBadOrder},
		{"duplicate hello", [][]byte{hello, hello}, wire.ErrBadOrder},
		{"unknown op", [][]byte{hello, badKind}, wire.ErrBadFrame},
		{"oversized batch", [][]byte{hello, bigBatch}, wire.ErrTooLarge},
		{"empty key", [][]byte{encodeHello("")}, wire.ErrBadFrame},
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startServer(t)
	for _, tc := range protocolErrorCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			err := rawRequest(t, addr, tc.frames...)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestLeaseFreeAfterErrorFrame pins the close order of a
// server-initiated close: the lease is released before the error frame
// is written, so a hello with the same key sent the moment the error
// frame arrives is accepted, never refused as busy. Connections are
// net.Pipe halves handed straight to the handler, so no listener or
// kernel buffer sits between the error frame and the next hello.
func TestLeaseFreeAfterErrorFrame(t *testing.T) {
	srv := NewServer(Config{})
	// connect returns the client half and a channel closed when the
	// server's handler for it has returned.
	connect := func() (net.Conn, chan struct{}) {
		cli, srvConn := net.Pipe()
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			srv.handle(srvConn)
		}()
		return cli, handled
	}
	hello := encodeHello("proto")
	for _, tc := range protocolErrorCases(t) {
		cli, cliHandled := connect()
		// net.Pipe writes block until read, and the server stops reading
		// at the bad frame, so the frames go out from their own goroutine.
		sent := make(chan struct{})
		go func(frames [][]byte) {
			defer close(sent)
			for _, f := range frames {
				if wire.WriteFrame(cli, f) != nil {
					return
				}
			}
		}(tc.frames)
		if err := rawReadError(cli); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}

		next, nextHandled := connect()
		wc := wire.NewConn(next, MaxFrame, boundFor)
		if _, err := wc.Exchange(hello, opOK); err != nil {
			t.Fatalf("%s: hello right after the error frame: %v", tc.name, err)
		}
		// A client-side close frees the lease only once the server has
		// noticed it, so wait for both handlers before the next case.
		next.Close()
		cli.Close()
		<-sent
		<-nextHandled
		<-cliHandled
	}
}

// TestOversizedFrameRejected: a hostile length prefix beyond MaxFrame
// must sever the connection without the server allocating for it.
func TestOversizedFrameRejected(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	err = rawReadError(conn)
	if !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// rawReadError reads response frames until an error frame or a
// transport error, and returns that error.
func rawReadError(rw io.ReadWriter) error {
	wc := wire.NewConn(rw, MaxFrame, boundFor)
	for {
		if _, err := wc.Recv(opOK, opDecisions, opStatsRep, opSnapRep); err != nil {
			return err
		}
	}
}

// TestDecisionValidationOnClientDecode: a response carrying a garbage
// decision byte fails typed on the client instead of yielding an
// undefined Decision (the ParseDecision satellite, exercised at the
// client's decode boundary).
func TestDecisionValidationOnClientDecode(t *testing.T) {
	body := encodeDecisions(nil, []core.Decision{core.FillL2, core.FillLLC})
	body[len(body)-1] = 0x66 // corrupt the last decision byte
	var buf bytes.Buffer
	wire.WriteFrame(&buf, body)
	wc := wire.NewConn(&buf, MaxFrame, boundFor)
	f, err := wc.Recv(opDecisions)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if _, err := decodeDecisions(f, nil); !errors.Is(err, core.ErrBadDecision) {
		t.Fatalf("err = %v, want core.ErrBadDecision", err)
	}
}

// errorFrameBytes returns the bytes the server's error-frame path
// writes to the connection for err.
func errorFrameBytes(err error) []byte {
	cli, srvConn := net.Pipe()
	defer cli.Close()
	go func() {
		defer srvConn.Close()
		writeErrorFrame(srvConn, err)
	}()
	b, _ := io.ReadAll(cli)
	return b
}

// errorOverPipe writes err through the server's error-frame path and
// reads it back as the client does.
func errorOverPipe(err error) error { return rawReadError(bytes.NewBuffer(errorFrameBytes(err))) }

// TestWireErrorRoundTrip pins the error frame as ppfd writes and reads
// it: every class the server sends reaches the client with its code and
// message, and a failure with no wire class arrives as ErrInternal
// carrying its text.
func TestWireErrorRoundTrip(t *testing.T) {
	codes := []wire.Code{wire.CodeBadFrame, wire.CodeBadOrder, wire.CodeSessionBusy,
		wire.CodeOverloaded, wire.CodeTooLarge, wire.CodeInternal}
	for _, code := range codes {
		err := errorOverPipe(&wire.Error{Code: code, Msg: "details"})
		var out *wire.Error
		if !errors.As(err, &out) || out.Code != code || out.Msg != "details" {
			t.Fatalf("code %v came back as %v", code, err)
		}
	}
	err := errorOverPipe(errors.New("disk on fire"))
	var out *wire.Error
	if !errors.Is(err, wire.ErrInternal) || !errors.As(err, &out) || out.Msg != "disk on fire" {
		t.Fatalf("untyped failure came back as %v, want ErrInternal with its text", err)
	}
}

// TestSentinelCodesSurviveWire pins each sentinel ppfd sends to its wire
// code: the server writes the sentinel into an error frame, the client
// decodes it, and the result must still satisfy errors.Is against the
// same sentinel — the failure class survives the connection regardless
// of which side produced it.
func TestSentinelCodesSurviveWire(t *testing.T) {
	if err := errorOverPipe(wire.ErrBadFrame); !errors.Is(err, wire.ErrBadFrame) {
		t.Errorf("ErrBadFrame lost its class over the wire: %v", err)
	}
	if err := errorOverPipe(wire.ErrBadOrder); !errors.Is(err, wire.ErrBadOrder) {
		t.Errorf("ErrBadOrder lost its class over the wire: %v", err)
	}
	if err := errorOverPipe(wire.ErrSessionBusy); !errors.Is(err, wire.ErrSessionBusy) {
		t.Errorf("ErrSessionBusy lost its class over the wire: %v", err)
	}
	if err := errorOverPipe(wire.ErrOverloaded); !errors.Is(err, wire.ErrOverloaded) {
		t.Errorf("ErrOverloaded lost its class over the wire: %v", err)
	}
	if err := errorOverPipe(wire.ErrTooLarge); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("ErrTooLarge lost its class over the wire: %v", err)
	}
	if err := errorOverPipe(wire.ErrInternal); !errors.Is(err, wire.ErrInternal) {
		t.Errorf("ErrInternal lost its class over the wire: %v", err)
	}
}

// TestWireSizeConstants pins the per-item wire sizes boundFor assumes
// against the actual encoders, so a codec or struct change that alters
// an encoding cannot silently invalidate the frame-size bound table.
func TestWireSizeConstants(t *testing.T) {
	measure := func(name string, walk func(w *snap.Walker)) int {
		t.Helper()
		enc := snap.NewEncoder()
		walk(enc)
		b, err := enc.Bytes()
		if err != nil {
			t.Fatalf("encoding %s: %v", name, err)
		}
		return len(b)
	}
	if got := measure("Len", func(w *snap.Walker) { n := 0; w.Len(&n) }); got != wire.LenSize {
		t.Errorf("Len field encodes to %d bytes, wire.LenSize = %d", got, wire.LenSize)
	}
	// A batch or decisions body is the op byte, a Len count, then the items.
	const head = 1 + wire.LenSize
	if got := len(encodeBatch(nil, nil)); got != head {
		t.Errorf("empty batch encodes to %d bytes, want op + Len = %d", got, head)
	}
	if got := len(encodeBatch(nil, syntheticEvents(1, 3))) - head; got != 3*eventWireSize {
		t.Errorf("3 events encode to %d bytes, eventWireSize = %d", got, eventWireSize)
	}
	if got := len(encodeDecisions(nil, []core.Decision{core.FillL2, core.Drop})) - head; got != 2*decisionWireSize {
		t.Errorf("2 decisions encode to %d bytes, decisionWireSize = %d", got, decisionWireSize)
	}
	var st core.Stats
	if got := measure("Stats", st.SnapshotWalk); got != statsWireSize {
		t.Errorf("Stats encodes to %d bytes, statsWireSize = %d", got, statsWireSize)
	}
	// Every op must fit its bound into the frame cap, or the server
	// would shed frames its own bounds call legal.
	for _, op := range []uint8{opHello, opBatch, opStats, opSnapshot, opReset, opOK, opDecisions, opStatsRep, opSnapRep} {
		if b := boundFor(op); b > MaxFrame {
			t.Errorf("op 0x%02x bound %d exceeds MaxFrame %d", op, b, MaxFrame)
		}
	}
}

// TestLoadHarnessSmoke runs the miniature version of cmd/ppfd -loadtest
// end to end, then plants a shed and a lost verdict in a level and
// requires its producer check to fail on each.
func TestLoadHarnessSmoke(t *testing.T) {
	rows, err := runLoad("", loadShape{streams: []int{1, 4}, events: 4000, batch: 256})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if len(rows) != 2 || rows[1].Params != "streams=4 batch=256 events=4000" {
		t.Fatalf("rows = %+v, want streams 1 and 4", rows)
	}
	for _, row := range rows {
		if row.Value <= 0 {
			t.Fatalf("row %+v has no throughput", row)
		}
	}
	for _, lv := range []level{
		{candidates: 10, verdicts: 10, sheds: 1},
		{candidates: 10, verdicts: 9},
	} {
		if lv.check() == nil {
			t.Errorf("level %+v passed its check", lv)
		}
	}
}
