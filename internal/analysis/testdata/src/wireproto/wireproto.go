// Package wireproto seeds half-wired protocol constants for the
// wireproto analyzer: ops missing their encode, decode, or frame-bound
// role, and error codes missing a String case or sentinel.
package wireproto

// Request ops. opPing and opQuiet are fully wired; the others each
// drop one role.
const (
	opPing  uint8 = 1
	opData  uint8 = 2 // want "wire op opData is missing a decode dispatch"
	opMeta  uint8 = 3 // want "wire op opMeta is missing a //ppflint:framebound size entry"
	opLost  uint8 = 4 // want "wire op opLost is missing an encode site"
	opQuiet uint8 = 5
	opHush  uint8 = 6 //ppflint:allow wireproto reserved op, wired behind a build tag in the tracing side-channel
)

// boundFor is the frame-size table. Its op uses count only as the bound
// role: a case here is not decode dispatch.
//
//ppflint:framebound
func boundFor(op uint8, maxFrame int) int {
	switch op {
	case opPing, opQuiet:
		return 1
	case opData:
		return maxFrame
	case opLost:
		return 16
	}
	return maxFrame
}

// encode* functions satisfy the encode role by name.
func encodePing() []byte { return []byte{opPing} }
func encodeData() []byte { return []byte{opData} }
func encodeMeta() []byte { return []byte{opMeta} }

// mustBody is an encode sink by marker instead of by name; ops passed
// to it count as encoded.
//
//ppflint:wireencode
func mustBody(op uint8) []byte { return []byte{op} }

func sendQuiet() []byte { return mustBody(opQuiet) }

// dispatch covers the decode role via switch cases and comparisons.
func dispatch(op uint8) string {
	switch op {
	case opPing:
		return "ping"
	case opMeta:
		return "meta"
	}
	if op == opLost {
		return "lost"
	}
	return "?"
}

// roundTrip is the client-side decode sink: the expected-op argument is
// the op's decode half even though no switch mentions it.
//
//ppflint:wiredecode
func roundTrip(body []byte, wantOp uint8) bool { return len(body) > 0 && body[0] == wantOp }

func askQuiet() bool { return roundTrip(sendQuiet(), opQuiet) }

// errCode is the wire error enum; every Code* constant must appear in
// String and in an exported sentinel.
type errCode uint8

const (
	CodeOops errCode = 1 + iota
	CodeMute         // want "wire error code CodeMute has no case in errCode.String"
	CodeLone         // want "wire error code CodeLone has no exported Err\\* sentinel"
	codeMax
)

// String deliberately skips CodeMute.
func (c errCode) String() string {
	switch c {
	case CodeOops:
		return "oops"
	case CodeLone:
		return "lone"
	}
	return "?"
}

// wireErr mirrors wire.Error.
type wireErr struct {
	Code errCode
	Msg  string
}

func (e *wireErr) Error() string { return e.Msg }

// Sentinels: CodeLone deliberately has none.
var (
	ErrOops = &wireErr{Code: CodeOops, Msg: "oops"}
	ErrMute = &wireErr{Code: CodeMute, Msg: "mute"}
)

var _ = codeMax
