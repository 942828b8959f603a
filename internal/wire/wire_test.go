package wire

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/snap"
)

// TestCodeTable pins the code bytes. They are wire format: ppfd's six
// classes keep the bytes they had before the table was shared, and the
// sweep fabric's bad-lease class follows them.
func TestCodeTable(t *testing.T) {
	cases := []struct {
		sentinel *Error
		byte     uint8
		name     string
	}{
		{ErrBadFrame, 1, "bad-frame"},
		{ErrBadOrder, 2, "bad-order"},
		{ErrSessionBusy, 3, "session-busy"},
		{ErrOverloaded, 4, "overloaded"},
		{ErrTooLarge, 5, "too-large"},
		{ErrInternal, 6, "internal"},
		{ErrBadLease, 7, "bad-lease"},
	}
	if len(cases) != int(codeCount)-1 {
		t.Fatalf("%d codes pinned, table has %d", len(cases), codeCount-1)
	}
	for _, c := range cases {
		if uint8(c.sentinel.Code) != c.byte || c.sentinel.Code.String() != c.name {
			t.Errorf("%v: byte %d name %q, want %d %q", c.sentinel, c.sentinel.Code, c.sentinel.Code, c.byte, c.name)
		}
	}
	if got := codeCount.String(); got != "code(8)" {
		t.Errorf("unknown code renders as %q", got)
	}
}

// TestRecvPrecedence pins the order of the client's response checks: an
// error frame decodes whatever op was expected; then the op must be one
// of the wanted ops, checked before its bound; then the frame must fit
// the bound.
func TestRecvPrecedence(t *testing.T) {
	const (
		opSmall uint8 = 0x81 // bound 1
		opOther uint8 = 0x82 // bound 1
	)
	bound := func(op uint8) int {
		if op == opSmall || op == opOther {
			return 1
		}
		return 64
	}
	errFrame := func(code uint8, msg string) []byte {
		return Body(opErr, func(w *snap.Walker) {
			w.Uint8(&code)
			PutBytes(w, []byte(msg))
		})
	}
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty response", []byte{}, ErrBadFrame},
		{"error frame for another op", errFrame(uint8(CodeSessionBusy), "busy"), ErrSessionBusy},
		{"last code in the table", errFrame(uint8(codeCount)-1, "x"), &Error{Code: codeCount - 1}},
		{"code byte past the table", errFrame(uint8(codeCount), "x"), ErrBadFrame},
		{"truncated error message", errFrame(uint8(CodeInternal), "x")[:10], ErrBadFrame},
		{"error message with trailing bytes", append(errFrame(uint8(CodeInternal), "x"), 0), ErrBadFrame},
		{"unwanted op over its bound", []byte{opOther, 0, 0}, ErrBadFrame},
		{"wanted op over its bound", []byte{opSmall, 0}, ErrTooLarge},
		{"frame over the cap", make([]byte, 129), ErrTooLarge},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, tc.body); err != nil {
			t.Fatal(err)
		}
		c := NewConn(&buf, 128, bound)
		if _, err := c.Recv(opSmall); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestFrameLifetime: a connection reads every frame into one reused
// buffer, so a frame's payload lives only until the next read. A large
// frame followed by a small one overwrites the front of that buffer; a
// field copied out of the first frame with ReadBytes stays intact. Both
// read paths share the buffer: the server's ReadRequest and the
// client's Recv.
func TestFrameLifetime(t *testing.T) {
	const opBig, opSmall uint8 = 0x81, 0x82
	big := bytes.Repeat([]byte("first frame "), 100)
	frames := func() *bytes.Buffer {
		var buf bytes.Buffer
		for _, body := range [][]byte{
			Body(opBig, func(w *snap.Walker) { PutBytes(w, big) }),
			Body(opSmall, func(w *snap.Walker) { PutBytes(w, []byte("second")) }),
		} {
			if err := WriteFrame(&buf, body); err != nil {
				t.Fatal(err)
			}
		}
		return &buf
	}
	bound := func(uint8) int { return 4096 }
	server := NewReader(frames(), 4096)
	client := NewConn(frames(), 4096, bound)
	paths := []struct {
		name string
		rd   *Reader
		read func() (Frame, error)
	}{
		{"ReadRequest", server, func() (Frame, error) { return ReadRequest(server, bound) }},
		{"Recv", &client.rd, func() (Frame, error) { return client.Recv(opBig, opSmall) }},
	}
	for _, p := range paths {
		f, err := p.read()
		if err != nil {
			t.Fatalf("%s: first frame: %v", p.name, err)
		}
		copied, err := ReadBytes(f.W, f.Len)
		if err != nil {
			t.Fatalf("%s: first field: %v", p.name, err)
		}
		alias := p.rd.body[:f.Len] // what an uncopied view of the first payload would see
		g, err := p.read()
		if err != nil {
			t.Fatalf("%s: second frame: %v", p.name, err)
		}
		small, err := ReadBytes(g.W, g.Len)
		if err != nil || g.Op != opSmall || string(small) != "second" {
			t.Fatalf("%s: second frame op 0x%02x field %q, %v", p.name, g.Op, small, err)
		}
		if alias[0] != opSmall {
			t.Fatalf("%s: the second frame did not reuse the first frame's buffer", p.name)
		}
		if !bytes.Equal(copied, big) {
			t.Fatalf("%s: the copied field changed after the next read", p.name)
		}
	}
}
