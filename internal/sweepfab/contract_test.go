package sweepfab

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestHandshakePrecedence pins the order of the coordinator's frame
// checks. The opening frame's op is checked before its per-op bound, so
// a first frame that is not a hello is ErrBadOrder whatever its size
// within the frame cap; only a hello is held to the hello bound. After
// the hello, a fixed-size request with one trailing byte fails its
// bound.
func TestHandshakePrecedence(t *testing.T) {
	_, addr := startCoordinator(t, Config{})
	frame := func(op uint8, size int) []byte {
		b := make([]byte, size)
		b[0] = op
		return b
	}
	cases := []struct {
		name   string
		frames [][]byte
		want   error
	}{
		{"empty first frame", [][]byte{{}}, wire.ErrBadOrder},
		{"lease first, over its bound", [][]byte{frame(opFabLease, 2)}, wire.ErrBadOrder},
		{"done first, over its bound", [][]byte{frame(opFabDone, fabBoundFor(opFabDone, defaultMaxFrame)+1)}, wire.ErrBadOrder},
		{"hello over its bound", [][]byte{frame(opFabHello, fabBoundFor(opFabHello, defaultMaxFrame)+1)}, wire.ErrTooLarge},
		{"lease with a trailing byte", [][]byte{encodeHello("w"), frame(opFabLease, 2)}, wire.ErrTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := dialRaw(t, addr)
			for i, f := range tc.frames {
				r.send(f)
				if i < len(tc.frames)-1 {
					r.recvOp()
				}
			}
			if err := r.recvErr(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestWorkerRejectsUnknownErrorCode: an error frame whose code byte is
// outside the code table is itself a malformed frame to the worker. 0xFE
// stands in for any byte past the table, which may grow.
func TestWorkerRejectsUnknownErrorCode(t *testing.T) {
	for _, code := range []uint8{0, 0xFE} {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go answerWithError(lis, code)
		_, err = RunWorker(lis.Addr().String(), WorkerConfig{Name: "w", DialRetry: time.Second})
		lis.Close()
		if !errors.Is(err, wire.ErrBadFrame) {
			t.Fatalf("code byte 0x%02x: err = %v, want wire.ErrBadFrame", code, err)
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
