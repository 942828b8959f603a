// Package wire is the framing layer shared by the decision server
// (internal/serve) and the sweep fabric (internal/sweepfab). Each
// direction of a connection is a sequence of frames,
//
//	uint32 LE body length | body
//
// where body = op byte | payload encoded with the internal/snap walker
// conventions (fixed-width little-endian primitives, Len-prefixed byte
// strings). The first request frame is the protocol's hello; every
// request after it gets exactly one response frame, in order.
//
// A protocol package owns its vocabulary: op constants, the
// //ppflint:framebound table giving each op's largest legal body,
// payload encoders and decoders, and dispatch. This package owns what
// every protocol shares: frame I/O under a frame cap, the op-tagged
// body encoder, Len-prefixed byte fields, the one Code table with its
// typed Error and sentinels, the error frame (op 0xFF: a code byte and
// a Len-prefixed message), the server's per-frame step and the client's
// synchronous exchange. Each connection reads its frames into one
// reused buffer (Reader), so a received Frame lives only until the next
// read on its connection.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/snap"
)

// opErr is the error frame's op, reserved in every protocol. Its
// payload is a Code byte and a Len-prefixed message.
const opErr uint8 = 0xFF

// hdrLen is the length prefix: one uint32.
const hdrLen = 4

// LenSize is the wire size of a Len prefix: snap writes a uint64.
const LenSize = 8

// Code classifies a protocol failure on the wire. The table is shared
// by every protocol, so a code byte means the same class whichever
// protocol carries it.
type Code uint8

// Wire error codes. The values are wire bytes: append new codes before
// codeCount, never renumber.
const (
	// CodeBadFrame: the frame failed to parse (unknown op, short or
	// malformed payload, invalid field value).
	CodeBadFrame Code = 1 + iota
	// CodeBadOrder: a request arrived before the opening hello, or a
	// second hello arrived.
	CodeBadOrder
	// CodeSessionBusy: the ppfd session key is leased to another live
	// connection.
	CodeSessionBusy
	// CodeOverloaded: ppfd shed this client, because it left a
	// response unread past the server's write deadline.
	CodeOverloaded
	// CodeTooLarge: a frame exceeded the frame cap or its op's bound, or
	// a count inside it exceeded a configured cap.
	CodeTooLarge
	// CodeInternal: the server failed to execute a well-formed request.
	CodeInternal
	// CodeBadLease: a sweep completion named a lease the board does not
	// hold for that worker (expired and re-leased, or never issued).
	CodeBadLease

	codeCount
)

// String renders the code for diagnostics.
func (c Code) String() string {
	switch c {
	case CodeBadFrame:
		return "bad-frame"
	case CodeBadOrder:
		return "bad-order"
	case CodeSessionBusy:
		return "session-busy"
	case CodeOverloaded:
		return "overloaded"
	case CodeTooLarge:
		return "too-large"
	case CodeInternal:
		return "internal"
	case CodeBadLease:
		return "bad-lease"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// Error is the typed protocol error. A server encodes one into an error
// frame and the client decodes it back, so errors.Is(err, ErrOverloaded)
// holds across the connection.
type Error struct {
	Code Code
	Msg  string
}

// Error renders the code and message.
func (e *Error) Error() string { return fmt.Sprintf("wire: %s: %s", e.Code, e.Msg) }

// Is matches any *Error with the same code, making the sentinels below
// usable as errors.Is targets.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// Sentinel instances for errors.Is. Matching is by code, so an error
// decoded off the wire (with its own message) still matches.
var (
	ErrBadFrame    = &Error{Code: CodeBadFrame, Msg: "malformed frame"}
	ErrBadOrder    = &Error{Code: CodeBadOrder, Msg: "request before hello"}
	ErrSessionBusy = &Error{Code: CodeSessionBusy, Msg: "session key in use"}
	ErrOverloaded  = &Error{Code: CodeOverloaded, Msg: "client shed under backpressure"}
	ErrTooLarge    = &Error{Code: CodeTooLarge, Msg: "frame exceeds bound"}
	ErrInternal    = &Error{Code: CodeInternal, Msg: "server failed to execute request"}
	ErrBadLease    = &Error{Code: CodeBadLease, Msg: "lease not held"}
)

// WriteFrame emits one length-prefixed frame.
func WriteFrame(w io.Writer, body []byte) error {
	var hdr [hdrLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// Send writes one frame and flushes it. The length prefix goes into
// w's own buffer, so a send allocates nothing.
func Send(w *bufio.Writer, body []byte) error {
	if w.Available() < hdrLen {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// Body builds an op-tagged frame body; walk, when not nil, writes the
// payload. Encoding walkers latch no errors (snap latches only while
// decoding), so a codec error here is a bug and panics rather than hand
// every caller an error branch that cannot run. Ops passed here count
// as encoded for the wireproto analyzer.
//
//ppflint:wireencode
func Body(op uint8, walk func(w *snap.Walker)) []byte {
	enc := snap.NewEncoder()
	enc.Uint8(&op)
	if walk != nil {
		walk(enc)
	}
	body, err := enc.Bytes()
	if err != nil {
		panic(err)
	}
	return body
}

// PutBytes walks b into an encoder as a Len-prefixed byte string.
func PutBytes(w *snap.Walker, b []byte) {
	n := len(b)
	w.Len(&n)
	w.Uint8s(b)
}

// ReadBytes decodes a Len-prefixed byte string, refusing an announced
// length above max (what the frame can hold) before allocating for it.
// A short or over-long field is ErrBadFrame.
func ReadBytes(w *snap.Walker, max int) ([]byte, error) {
	var n int
	w.LenCapped(&n, max) // a rejected length latches and reads as 0
	b := make([]byte, n)
	w.Uint8s(b)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return b, nil
}

// Finish ends a payload decode: a latched walker error, or bytes left
// over after the walk, is ErrBadFrame.
func Finish(w *snap.Walker) error {
	if err := w.Finish(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	return nil
}

// ErrorBody frames err as an error frame. The first *Error in err's
// chain travels with its code and message; an error without one travels
// with the fallback code and err's text.
func ErrorBody(err error, fallback Code) []byte {
	var we *Error
	if !errors.As(err, &we) {
		we = &Error{Code: fallback, Msg: err.Error()}
	}
	return Body(opErr, func(w *snap.Walker) {
		c := uint8(we.Code)
		w.Uint8(&c)
		PutBytes(w, []byte(we.Msg))
	})
}

// decodeError parses an error frame's payload into the *Error it
// carries. A code byte outside the table is ErrBadFrame.
func decodeError(f Frame) error {
	var c uint8
	f.W.Uint8(&c)
	if err := f.W.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	if c == 0 || c >= uint8(codeCount) {
		return fmt.Errorf("%w: error code byte 0x%02x", ErrBadFrame, c)
	}
	msg, err := ReadBytes(f.W, f.Len)
	if err != nil {
		return err
	}
	if err := Finish(f.W); err != nil {
		return err
	}
	return &Error{Code: Code(c), Msg: string(msg)}
}

// frameBound is the largest legal body of op: the protocol's table for
// its own ops, the frame cap for the error frame every protocol shares.
//
//ppflint:framebound
func frameBound(op uint8, maxFrame int, bound func(op uint8) int) int {
	if op == opErr {
		return maxFrame
	}
	return bound(op)
}

// Frame is one received frame: its op, a decoder positioned after the
// op, and the body length, which caps Len-prefixed fields. The payload
// W decodes is the Reader's reused buffer, so a frame, and any slice
// that aliases its payload (snap.Walker.Take), is valid only until the
// next read on the same connection. Copy what must outlive it;
// ReadBytes copies.
type Frame struct {
	Op  uint8
	W   *snap.Walker
	Len int
}

// Reader reads one connection's frames. It reads every body into one
// buffer and decodes it with one walker, both reused by the next read,
// so a steady stream of frames allocates nothing; the buffer grows to
// the largest frame the connection has carried, at most the frame cap.
// A Reader is not safe for concurrent use.
type Reader struct {
	br       *bufio.Reader
	maxFrame int
	hdr      [hdrLen]byte
	body     []byte
	dec      snap.Walker
}

// NewReader buffers r for frame reads capped at maxFrame bytes.
func NewReader(r io.Reader, maxFrame int) *Reader {
	return &Reader{br: bufio.NewReader(r), maxFrame: maxFrame}
}

// readFrame reads one frame body into the reused buffer, refusing an
// announced length above the frame cap with ErrTooLarge before growing
// for it, so a corrupt or hostile peer cannot make us allocate
// unbounded memory.
func (r *Reader) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(r.hdr[:]))
	if n > r.maxFrame {
		return nil, fmt.Errorf("%w: frame length %d > max %d", ErrTooLarge, n, r.maxFrame)
	}
	if cap(r.body) < n {
		r.body = make([]byte, n)
	}
	body := r.body[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// frame takes the op of a non-empty body and points the reused walker
// past it.
func (r *Reader) frame(body []byte) Frame {
	r.dec.ResetDecoder(body[1:])
	return Frame{Op: body[0], W: &r.dec, Len: len(body)}
}

// ReadHello reads a connection's opening frame, which must carry the
// hello op. The op is checked before the bound: an empty frame or any
// other op is ErrBadOrder whatever its size within the frame cap, and
// only a hello is held to its bound (ErrTooLarge). bound is the
// protocol's frame-size table. The frame is valid until the next read
// from r.
//
//ppflint:wiredecode
func ReadHello(r *Reader, hello uint8, bound func(op uint8) int) (Frame, error) {
	body, err := r.readFrame()
	if err != nil {
		return Frame{}, err
	}
	if len(body) == 0 || body[0] != hello {
		return Frame{}, fmt.Errorf("%w: first frame is not a hello", ErrBadOrder)
	}
	return checkBound(r.frame(body), r.maxFrame, bound)
}

// ReadRequest is the server's step for each request after the hello:
// read a frame, take its op and hold the frame to the op's bound before
// any payload is decoded. An empty frame is ErrBadFrame and an
// oversized one ErrTooLarge; transport errors, io.EOF included, return
// as they are. The frame is valid until the next read from r.
func ReadRequest(r *Reader, bound func(op uint8) int) (Frame, error) {
	body, err := r.readFrame()
	if err != nil {
		return Frame{}, err
	}
	if len(body) == 0 {
		return Frame{}, fmt.Errorf("%w: empty frame", ErrBadFrame)
	}
	return checkBound(r.frame(body), r.maxFrame, bound)
}

// checkBound rejects a frame larger than its op's bound.
func checkBound(f Frame, maxFrame int, bound func(op uint8) int) (Frame, error) {
	if b := frameBound(f.Op, maxFrame, bound); f.Len > b {
		return Frame{}, fmt.Errorf("%w: op 0x%02x frame of %d bytes exceeds bound %d", ErrTooLarge, f.Op, f.Len, b)
	}
	return f, nil
}

// Conn is the requesting side of a connection: Exchange writes one
// request frame and blocks for its one response, so responses need no
// tags. A Conn is not safe for concurrent use.
type Conn struct {
	rd    Reader
	w     *bufio.Writer
	bound func(op uint8) int
}

// NewConn buffers rw for exchanges. Responses are held to maxFrame and
// to bound, the protocol's frame-size table, instead of trusting the
// peer.
func NewConn(rw io.ReadWriter, maxFrame int, bound func(op uint8) int) Conn {
	return Conn{rd: *NewReader(rw, maxFrame), w: bufio.NewWriter(rw), bound: bound}
}

// Exchange writes body as one frame, flushes it and reads the response
// with Recv. The ops passed as want count as decoded for the wireproto
// analyzer.
//
//ppflint:wiredecode
func (c *Conn) Exchange(body []byte, want ...uint8) (Frame, error) {
	if err := Send(c.w, body); err != nil {
		return Frame{}, err
	}
	return c.Recv(want...)
}

// Recv reads one response frame. An error frame decodes into the *Error
// it carries. Any other response must carry one of the want ops, else
// ErrBadFrame, and fit that op's bound, else ErrTooLarge, so trailing
// garbage fails typed even where the caller skips Finish. The frame is
// valid until the next Recv or Exchange on c.
//
//ppflint:wiredecode
func (c *Conn) Recv(want ...uint8) (Frame, error) {
	body, err := c.rd.readFrame()
	if err != nil {
		return Frame{}, err
	}
	if len(body) == 0 {
		return Frame{}, fmt.Errorf("%w: empty response", ErrBadFrame)
	}
	f := c.rd.frame(body)
	if f.Op == opErr {
		return Frame{}, decodeError(f)
	}
	if !slices.Contains(want, f.Op) {
		return Frame{}, fmt.Errorf("%w: unexpected response op 0x%02x", ErrBadFrame, f.Op)
	}
	return checkBound(f, c.rd.maxFrame, c.bound)
}
