package engine

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Kind discriminates the events a session consumes. The set mirrors the
// filter's training surface in internal/sim: candidates to score,
// demand accesses and evictions to train from, and load-PC retirements
// feeding the history register file.
type Kind uint8

// Event kinds.
const (
	// KindCandidate scores Input and records the verdict (issue/reject).
	KindCandidate Kind = iota
	// KindDemand trains from a demand access to Input.Addr.
	KindDemand
	// KindLoadPC records Input.PC into the load-PC history.
	KindLoadPC
	// KindEvict trains from an eviction of Input.Addr (Used = the block
	// was demanded before eviction).
	KindEvict

	kindCount
)

// ErrBadKind is the typed error decode paths latch when an encoded
// event-kind byte names no defined kind.
var ErrBadKind = errors.New("engine: invalid event kind")

// ParseKind validates an event-kind byte arriving from the wire.
//
//ppflint:hotpath
func ParseKind(b uint8) (Kind, error) {
	if b >= uint8(kindCount) {
		return 0, errBadKindByte(b)
	}
	return Kind(b), nil
}

// errBadKindByte is outlined so ParseKind inlines into ppfd's batch
// decoder without fmt.Errorf's argument boxing escaping on the error
// branch.
//
//go:noinline
func errBadKindByte(b uint8) error {
	return fmt.Errorf("%w: byte 0x%02x", ErrBadKind, b)
}

// String renders the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindCandidate:
		return "candidate"
	case KindDemand:
		return "demand"
	case KindLoadPC:
		return "load-pc"
	case KindEvict:
		return "evict"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one element of a session's input stream. Training events
// reuse the Input struct for their address/PC payload rather than
// carrying a parallel field, so ppfd's wire encoding (internal/serve)
// is one fixed-width block for every kind.
type Event struct {
	Kind  Kind
	Input core.FeatureInput
	Used  bool // evict events: block was demanded before eviction
}

// Candidate builds a scoring event.
func Candidate(in core.FeatureInput) Event { return Event{Kind: KindCandidate, Input: in} }

// Demand builds a demand-training event.
func Demand(addr uint64) Event { return Event{Kind: KindDemand, Input: core.FeatureInput{Addr: addr}} }

// LoadPC builds a load-PC history event.
func LoadPC(pc uint64) Event { return Event{Kind: KindLoadPC, Input: core.FeatureInput{PC: pc}} }

// Evict builds an eviction-training event.
func Evict(addr uint64, used bool) Event {
	return Event{Kind: KindEvict, Input: core.FeatureInput{Addr: addr}, Used: used}
}
