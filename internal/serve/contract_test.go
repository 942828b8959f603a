package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// TestHandshakePrecedence pins the order of the server's frame checks.
// The opening frame's op is checked before its per-op bound, so a first
// frame that is not a hello is ErrBadOrder whatever its size within the
// frame cap; only a hello is held to the hello bound. After the hello, a
// fixed-size request with one trailing byte fails its bound.
func TestHandshakePrecedence(t *testing.T) {
	const maxBatch = 64
	_, addr := startServer(t, Config{MaxBatch: maxBatch})
	frame := func(op uint8, size int) []byte {
		b := make([]byte, size)
		b[0] = op
		return b
	}
	hello := encodeHello("precedence")
	cases := []struct {
		name   string
		frames [][]byte
		want   error
	}{
		{"empty first frame", [][]byte{{}}, wire.ErrBadOrder},
		{"stats first, over its bound", [][]byte{frame(opStats, 2)}, wire.ErrBadOrder},
		{"batch first, over its bound", [][]byte{frame(opBatch, boundFor(opBatch, DefaultMaxFrame, maxBatch)+1)}, wire.ErrBadOrder},
		{"hello over its bound", [][]byte{frame(opHello, boundFor(opHello, DefaultMaxFrame, maxBatch)+1)}, wire.ErrTooLarge},
		{"stats with a trailing byte", [][]byte{hello, frame(opStats, 2)}, wire.ErrTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := rawRequest(t, addr, tc.frames...); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestClientRejectsUnknownErrorCode: an error frame whose code byte is
// outside the code table is itself a malformed frame to the client. 0xFE
// stands in for any byte past the table, which may grow.
func TestClientRejectsUnknownErrorCode(t *testing.T) {
	for _, code := range []uint8{0, 0xFE} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go answerWithError(lis, code)
		_, err = Dial(lis.Addr().String(), "k")
		lis.Close()
		if !errors.Is(err, wire.ErrBadFrame) {
			t.Fatalf("code byte 0x%02x: err = %v, want ErrBadFrame", code, err)
		}
	}
}

// answerWithError accepts one connection, reads its first frame and
// answers with an error frame carrying the raw code byte.
func answerWithError(lis net.Listener, code uint8) {
	conn, err := lis.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	// Drain the whole frame first: closing with unread input would reset
	// the connection under the client's read.
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return
	}
	if _, err := io.CopyN(io.Discard, conn, int64(binary.LittleEndian.Uint32(hdr[:]))); err != nil {
		return
	}
	wire.WriteFrame(conn, rawErrorBody(code))
}

// rawErrorBody is an error frame body carrying an arbitrary code byte.
func rawErrorBody(code uint8) []byte {
	return append(binary.LittleEndian.AppendUint64([]byte{0xFF, code}, 3), "bad"...)
}

// TestWireGolden pins the exact bytes ppfd sends for one frame of every
// op, length prefix included, and for the error frame the server writes
// for every code. Large frames are pinned by length and SHA-256.
func TestWireGolden(t *testing.T) {
	srv := NewServer(Config{})
	st := &stream{sess: engine.New(srv.cfg.Filter)}
	events := syntheticEvents(5, 200)
	st.sess.ApplyBatch(events, nil)

	framed := func(body []byte) []byte {
		var buf bytes.Buffer
		wire.WriteFrame(&buf, body)
		return buf.Bytes()
	}
	decisions := []core.Decision{core.FillL2, core.FillLLC, core.Drop}
	frames := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"hello", framed(encodeHello("golden")), "0f000000010600000000000000676f6c64656e"},
		{"batch", framed(encodeBatch(nil, events[:2])), "910000000202000000000000000000be0d000000000000104000000000000001400000000000000240000000000000034000000000000600000000000000c50d320000000000000004000000000000000000007a0a0000000000001040000000000000014000000000000002400000000000000340000000000008000000000000003c074900000000000000040000000000000000"},
		{"stats", framed(wire.Body(opStats, nil)), "0100000003"},
		{"snapshot", framed(wire.Body(opSnapshot, nil)), "0100000004"},
		{"reset", framed(wire.Body(opReset, nil)), "0100000005"},
		{"ok", framed(wire.Body(opOK, nil)), "0100000080"},
		{"decisions", framed(encodeDecisions(nil, decisions)), "0c000000810300000000000000020100"},
		{"stats reply", framed(srv.execute(st, opStats)), "590000008277000000000000007700000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"},
		{"snapshot reply", framed(srv.execute(st, opSnapshot)), "len 180780 sha256 ddb613fa05f9eb2d7fab6fd79c0674d20d44f8d513e51243d879bec7af02725c"},
		{"bad-frame", errorFrameBytes(wire.ErrBadFrame), "19000000ff010f000000000000006d616c666f726d6564206672616d65"},
		{"bad-order", errorFrameBytes(wire.ErrBadOrder), "1e000000ff02140000000000000072657175657374206265666f72652068656c6c6f"},
		{"session-busy", errorFrameBytes(wire.ErrSessionBusy), "1c000000ff03120000000000000073657373696f6e206b657920696e20757365"},
		{"overloaded", errorFrameBytes(wire.ErrOverloaded), "28000000ff041e00000000000000636c69656e74207368656420756e646572206261636b7072657373757265"},
		{"too-large", errorFrameBytes(wire.ErrTooLarge), "1d000000ff0513000000000000006672616d65206578636565647320626f756e64"},
		{"internal", errorFrameBytes(wire.ErrInternal), "2a000000ff062000000000000000736572766572206661696c656420746f20657865637574652072657175657374"},
	}
	for _, f := range frames {
		got := hex.EncodeToString(f.frame)
		if len(f.frame) > 256 {
			got = fmt.Sprintf("len %d sha256 %x", len(f.frame), sha256.Sum256(f.frame))
		}
		if got != f.want {
			t.Errorf("%s frame:\n got %s\nwant %s", f.name, got, f.want)
		}
	}
}
