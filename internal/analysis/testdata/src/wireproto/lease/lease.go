// Package lease mirrors the sweep fabric's lease protocol on top of a
// separate framing package: ops are encoded only through framing.Body
// and response ops decoded only through framing.Exchange's variadic
// expected-op list, so every role below is resolved across the package
// boundary. The seeded violations cover the roles a lease-protocol
// extension is most likely to half-wire: a worker request nobody
// encodes and a response class no client ever expects.
package lease

import "framing"

// Request ops (worker to coordinator). opDone deliberately ships
// without an encode site.
const (
	opHello uint8 = 0x01
	opLease uint8 = 0x02
	opDone  uint8 = 0x03 // want "wire op opDone is missing an encode site"
)

// Response ops (coordinator to worker). opWait deliberately ships with
// no decode half — the server would send a frame no client recognizes.
const (
	opWelcome uint8 = 0x81
	opCell    uint8 = 0x82
	opWait    uint8 = 0x83 // want "wire op opWait is missing a decode dispatch"
	opTrace   uint8 = 0x7E //ppflint:allow wireproto debug side-channel op, wired only behind a build tag
)

// boundFor is the frame-size table; ops used here take only the bound
// role, never decode.
//
//ppflint:framebound
func boundFor(op uint8, maxFrame int) int {
	switch op {
	case opHello:
		return 1 + 8 + 4096
	case opLease, opDone:
		return 1 + 8 + 1
	case opWelcome, opWait:
		return 1 + 8
	case opCell:
		return maxFrame
	}
	return maxFrame
}

// dispatch is the coordinator's decode switch over request ops.
func dispatch(req []byte) []byte {
	switch req[0] {
	case opHello:
		return framing.Body(opWelcome, 0)
	case opLease:
		if req[1] == 0 {
			return framing.Body(opWait, 50)
		}
		return framing.Body(opCell, 1)
	case opDone:
		return framing.ErrorBody(framing.CodeBadLease)
	}
	return framing.ErrorBody(framing.CodeBadFrame)
}

// join and lease drive the worker side through the framing helpers.
func join(name string) bool {
	_, ok := framing.Exchange(framing.Body(opHello, []byte(name)...), dispatch, opWelcome)
	return ok
}

func lease() bool {
	_, ok := framing.Exchange(framing.Body(opLease), dispatch, opCell)
	return ok
}

var _ = join
var _ = lease
var _ = boundFor
