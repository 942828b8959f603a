// Package snap implements the simulator's snapshot serialization: a
// single-pass field walker that both encodes and decodes machine state
// through the same per-struct walk function. Each snapshottable struct
// defines one SnapshotWalk (or snapshotWalk) method that enumerates its
// fields against a *Walker; running that method with an encoding walker
// produces the byte stream and running it with a decoding walker
// consumes it, so the two directions cannot drift apart — a field is
// either round-tripped or explicitly parked in Static, and the ppflint
// snapshot analyzer verifies that every field is one or the other.
//
// The format is positional: fixed-width little-endian primitives with
// no tags or lengths, because slice and array geometry is pinned by the
// machine configuration that is part of the snapshot's cache key. Only
// genuinely variable-length sequences use an explicit Len prefix.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is latched when a decoding walker runs out of input
// before the walk completes: the snapshot is shorter than the machine
// it is being restored into expects.
var ErrTruncated = errors.New("snap: truncated input")

// maxLen bounds Len values so a corrupted stream cannot request an
// enormous allocation before the caller notices the walk failed.
const maxLen = 1 << 24

// A Walker serializes or deserializes fields in walk order. The zero
// value is not useful; use NewEncoder or NewDecoder. All methods are
// no-ops once an error is latched, so walk functions never need to
// check errors mid-walk — callers inspect Err (or Finish) at the end.
type Walker struct {
	encoding bool
	buf      []byte // encode: output; decode: input
	off      int    // decode: read cursor
	err      error
}

// NewEncoder returns a walker that appends walked fields to an
// internal buffer, retrieved with Bytes.
func NewEncoder() *Walker { return &Walker{encoding: true} }

// NewDecoder returns a walker that assigns walked fields from data.
func NewDecoder(data []byte) *Walker { return &Walker{buf: data} }

// ResetDecoder makes w a fresh decoder over data, dropping any latched
// error, so a connection can decode every frame it reads with one
// walker instead of allocating one per frame.
func (w *Walker) ResetDecoder(data []byte) { *w = Walker{buf: data} }

// Err returns the first error the walk latched, if any.
func (w *Walker) Err() error { return w.err }

// Decoding reports whether the walker is assigning fields from input
// (as opposed to appending them to the output buffer). Walk functions
// that must validate decoded values — a decision byte, an event kind —
// branch on this to run the check only in the decode direction.
func (w *Walker) Decoding() bool { return !w.encoding }

// Check latches err as the walk error (first error wins, matching the
// rest of the walker) and reports whether the walk is still clean. It
// lets walk functions reject semantically invalid decoded values with a
// typed error instead of round-tripping garbage:
//
//	v, err := ParseThing(b)
//	if w.Check(err) {
//		*field = v
//	}
func (w *Walker) Check(err error) bool {
	if w.err == nil && err != nil {
		w.err = err
	}
	return w.err == nil
}

// Bytes returns the encoded stream.
func (w *Walker) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	if !w.encoding {
		return nil, errors.New("snap: Bytes called on a decoder")
	}
	return w.buf, nil
}

// Finish returns the walk error, additionally requiring a decoder to
// have consumed its entire input — leftover bytes mean the stream was
// produced by a different walk than the one that just ran.
func (w *Walker) Finish() error {
	if w.err != nil {
		return w.err
	}
	if !w.encoding && w.off != len(w.buf) {
		return fmt.Errorf("snap: %d trailing bytes after walk", len(w.buf)-w.off)
	}
	return nil
}

// Static documents fields the walk intentionally does not serialize:
// configuration, derived geometry, wiring (hooks, next-level pointers)
// that the restoring machine reconstructs, and pure per-event caches
// that are recomputed on demand. It exists so a walk can mention every
// field of its struct — the snapshot analyzer flags any field that is
// neither walked nor parked here.
func (w *Walker) Static(...any) {}

//
//ppflint:hotpath
func (w *Walker) fail() {
	if w.err == nil {
		w.err = ErrTruncated
	}
}

// need reports whether n more input bytes are available to a decoder.
//
//ppflint:hotpath
func (w *Walker) need(n int) bool {
	if w.err != nil {
		return false
	}
	if w.off+n > len(w.buf) {
		w.fail()
		return false
	}
	return true
}

// Uint64 walks one 64-bit unsigned field.
//
//ppflint:hotpath
func (w *Walker) Uint64(v *uint64) {
	if w.encoding {
		if w.err == nil {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, *v)
		}
		return
	}
	if w.need(8) {
		*v = binary.LittleEndian.Uint64(w.buf[w.off:])
		w.off += 8
	}
}

// Uint32 walks one 32-bit unsigned field.
func (w *Walker) Uint32(v *uint32) {
	if w.encoding {
		if w.err == nil {
			w.buf = binary.LittleEndian.AppendUint32(w.buf, *v)
		}
		return
	}
	if w.need(4) {
		*v = binary.LittleEndian.Uint32(w.buf[w.off:])
		w.off += 4
	}
}

// Uint16 walks one 16-bit unsigned field.
//
//ppflint:hotpath
func (w *Walker) Uint16(v *uint16) {
	if w.encoding {
		if w.err == nil {
			w.buf = binary.LittleEndian.AppendUint16(w.buf, *v)
		}
		return
	}
	if w.need(2) {
		*v = binary.LittleEndian.Uint16(w.buf[w.off:])
		w.off += 2
	}
}

// Uint8 walks one byte-sized field.
//
//ppflint:hotpath
func (w *Walker) Uint8(v *uint8) {
	if w.encoding {
		if w.err == nil {
			w.buf = append(w.buf, *v)
		}
		return
	}
	if w.need(1) {
		*v = w.buf[w.off]
		w.off++
	}
}

// Int64 walks one 64-bit signed field.
func (w *Walker) Int64(v *int64) {
	u := uint64(*v)
	w.Uint64(&u)
	*v = int64(u)
}

// Int walks one int field at a fixed 64-bit width, so snapshots do not
// depend on the platform's int size.
//
//ppflint:hotpath
func (w *Walker) Int(v *int) {
	u := uint64(int64(*v))
	w.Uint64(&u)
	*v = int(int64(u))
}

// Int16 walks one 16-bit signed field.
func (w *Walker) Int16(v *int16) {
	u := uint16(*v)
	w.Uint16(&u)
	*v = int16(u)
}

// Int8 walks one 8-bit signed field.
func (w *Walker) Int8(v *int8) {
	u := uint8(*v)
	w.Uint8(&u)
	*v = int8(u)
}

// Bool walks one boolean field as a single 0/1 byte; any other decoded
// value latches an error (it indicates stream misalignment).
//
//ppflint:hotpath
func (w *Walker) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	w.Uint8(&u)
	if !w.encoding && w.err == nil {
		switch u {
		case 0:
			*v = false
		case 1:
			*v = true
		default:
			w.err = errBadBoolByte(u)
		}
	}
}

// The walker's decode validations construct errors through outlined
// //go:noinline helpers: the primitives are on the served batch decode
// hot path (//ppflint:hotpath), and an inline fmt.Errorf would box its
// arguments on every call site even though the branch never runs on a
// healthy stream.

//go:noinline
func errBadBoolByte(u uint8) error {
	return fmt.Errorf("snap: invalid bool byte 0x%02x", u)
}

//go:noinline
func errBadLen(n int) error {
	return fmt.Errorf("snap: implausible length %d", n)
}

//go:noinline
func errBadLenCap(n, max int) error {
	return fmt.Errorf("snap: implausible length %d (cap %d)", n, max)
}

// Float64 walks one float64 field via its IEEE-754 bit pattern, so
// round-trips are exact.
func (w *Walker) Float64(v *float64) {
	u := math.Float64bits(*v)
	w.Uint64(&u)
	*v = math.Float64frombits(u)
}

// Len walks a variable-length count (for sequences whose length is not
// pinned by configuration). Decoded values outside [0, maxLen] latch
// an error so corrupt streams cannot drive huge allocations.
//
//ppflint:hotpath
func (w *Walker) Len(v *int) {
	w.Int(v)
	if !w.encoding && w.err == nil && (*v < 0 || *v > maxLen) {
		w.err = errBadLen(*v)
		// Walk methods are no-ops after an error, but the caller is about
		// to size an allocation from *v — don't hand it the corrupt count.
		*v = 0
	}
}

// LenCapped is Len with a caller-supplied bound, for sequences whose
// length is structurally limited (a per-core slice, say): a decoded
// count beyond max latches an error before the caller allocates for it.
//
//ppflint:hotpath
func (w *Walker) LenCapped(v *int, max int) {
	w.Int(v)
	if !w.encoding && w.err == nil && (*v < 0 || *v > max) {
		w.err = errBadLenCap(*v, max)
		*v = 0
	}
}

// Take consumes the next n input bytes of a decoder and returns them
// without copying, for fixed-layout records a caller parses itself.
// The slice aliases the decoder's input. Short input, or a negative n,
// latches ErrTruncated and returns nil; an encoder returns nil.
//
//ppflint:hotpath
func (w *Walker) Take(n int) []byte {
	if n < 0 {
		w.fail()
	}
	if w.encoding || !w.need(n) {
		return nil
	}
	b := w.buf[w.off : w.off+n : w.off+n]
	w.off += n
	return b
}

// Uint64s walks a fixed-length []uint64 in place.
//
//ppflint:hotpath
func (w *Walker) Uint64s(v []uint64) {
	if w.encoding {
		if w.err == nil {
			for _, x := range v {
				w.buf = binary.LittleEndian.AppendUint64(w.buf, x)
			}
		}
		return
	}
	if w.need(8 * len(v)) {
		for i := range v {
			v[i] = binary.LittleEndian.Uint64(w.buf[w.off:])
			w.off += 8
		}
	}
}

// Uint16s walks a fixed-length []uint16 in place.
func (w *Walker) Uint16s(v []uint16) {
	if w.encoding {
		if w.err == nil {
			for _, x := range v {
				w.buf = binary.LittleEndian.AppendUint16(w.buf, x)
			}
		}
		return
	}
	if w.need(2 * len(v)) {
		for i := range v {
			v[i] = binary.LittleEndian.Uint16(w.buf[w.off:])
			w.off += 2
		}
	}
}

// Uint8s walks a fixed-length []uint8 in place.
func (w *Walker) Uint8s(v []uint8) {
	if w.encoding {
		if w.err == nil {
			w.buf = append(w.buf, v...)
		}
		return
	}
	if w.need(len(v)) {
		copy(v, w.buf[w.off:])
		w.off += len(v)
	}
}

// Int8s walks a fixed-length []int8 in place.
func (w *Walker) Int8s(v []int8) {
	if w.encoding {
		if w.err == nil {
			for _, x := range v {
				w.buf = append(w.buf, uint8(x))
			}
		}
		return
	}
	if w.need(len(v)) {
		for i := range v {
			v[i] = int8(w.buf[w.off])
			w.off++
		}
	}
}

// Int16s walks a fixed-length []int16 in place.
func (w *Walker) Int16s(v []int16) {
	for i := range v {
		w.Int16(&v[i])
	}
}

// Ints walks a fixed-length []int in place at 64-bit width.
func (w *Walker) Ints(v []int) {
	for i := range v {
		w.Int(&v[i])
	}
}

// Bools walks a fixed-length []bool in place.
func (w *Walker) Bools(v []bool) {
	for i := range v {
		w.Bool(&v[i])
	}
}
