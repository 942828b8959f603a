// Package framing mirrors internal/wire: the framing package a protocol
// package builds on. It marks its body encoder and its variadic
// exchange helper, so ops a protocol package passes to them take the
// encode and decode roles across the package boundary. Its own ops need
// all three roles here: opErr has them, and opBeat deliberately ships
// without a bound entry.
package framing

const (
	opErr  uint8 = 0xFF // the error frame every protocol shares
	opBeat uint8 = 0xFE // want "wire op opBeat is missing a //ppflint:framebound size entry"
)

// Body is the op-tagged body encoder.
//
//ppflint:wireencode
func Body(op uint8, payload ...byte) []byte { return append([]byte{op}, payload...) }

// Exchange is the client's send/receive; the variadic expected-op list
// is the decode half of every response op passed through it.
//
//ppflint:wiredecode
func Exchange(req []byte, reply func([]byte) []byte, want ...uint8) (uint8, bool) {
	resp := reply(req)
	if resp[0] == opErr || resp[0] == opBeat {
		return 0, false
	}
	for _, w := range want {
		if resp[0] == w {
			return w, true
		}
	}
	return 0, false
}

// frameBound adds the error frame to a protocol's bound table.
//
//ppflint:framebound
func frameBound(op uint8, maxFrame int, bound func(uint8) int) int {
	if op == opErr {
		return maxFrame
	}
	return bound(op)
}

// ErrorBody frames an error code.
func ErrorBody(code Code) []byte { return Body(opErr, byte(code)) }

// Beat frames a keep-alive.
func Beat() []byte { return Body(opBeat) }

// Code is the shared error enum.
type Code uint8

const (
	CodeBadFrame Code = 1 + iota
	CodeBadLease
)

func (c Code) String() string {
	switch c {
	case CodeBadFrame:
		return "bad-frame"
	case CodeBadLease:
		return "bad-lease"
	}
	return "?"
}

// Error mirrors wire.Error.
type Error struct{ Code Code }

func (e *Error) Error() string { return e.Code.String() }

// Sentinels wire both codes back to errors.Is.
var (
	ErrBadFrame = &Error{Code: CodeBadFrame}
	ErrBadLease = &Error{Code: CodeBadLease}
)

var _ = frameBound
