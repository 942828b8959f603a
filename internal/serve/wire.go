// Package serve is the streaming prefetch-decision server behind
// cmd/ppfd: filter-as-a-service over a length-prefixed binary protocol.
// Every client leases one engine.Session keyed by a client-chosen
// session key, streams mixed candidate/training events in batches, and
// reads back the filter's verdicts. Batches inherit the engine's
// bit-identical-to-sequential guarantee, so a served stream reaches
// exactly the state the simulator would reach on the same events.
//
// Framing, the typed wire errors and the request/response exchange are
// internal/wire's; this package holds the protocol's vocabulary. The
// first client frame must be opHello; every subsequent request frame
// gets exactly one response frame, in order.
package serve

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/snap"
	"repro/internal/wire"
)

// Request ops (client to server). A response op echoes in the high bit
// so a stray request byte can never parse as a reply.
const (
	opHello    uint8 = 0x01 // payload: session key bytes (Len-prefixed)
	opBatch    uint8 = 0x02 // payload: event count (Len) + events
	opStats    uint8 = 0x03 // payload: empty
	opSnapshot uint8 = 0x04 // payload: empty
	opReset    uint8 = 0x05 // payload: empty
)

// Response ops (server to client). Op 0xFF is internal/wire's error
// frame.
const (
	opOK        uint8 = 0x80 // payload: empty
	opDecisions uint8 = 0x81 // payload: decision count (Len) + decision bytes
	opStatsRep  uint8 = 0x82 // payload: core.Stats walk
	opSnapRep   uint8 = 0x83 // payload: session snapshot blob (Len-prefixed)
)

// Per-item wire sizes, fixed by the snap walker conventions: an Event
// is kind byte + 66-byte FeatureInput walk + used byte, a Decision is
// one validated byte, a Stats walk is eleven uint64 counters. Pinned by
// TestWireSizeConstants against the codec.
const (
	eventWireSize    = 68
	decisionWireSize = 1
	statsWireSize    = 88
	// maxSessionKey bounds the hello key: keys are short routing labels,
	// and an unbounded key would make the hello frame's size bound
	// vacuous.
	maxSessionKey = 4096
)

// boundFor is the frame-size bound table: the maximum legal body size
// for each op given the configured frame and batch caps. Both halves
// consult it — the server rejects oversized requests with ErrTooLarge
// before decoding, and the client rejects oversized responses instead
// of trusting the peer. Variable-payload response ops (snapshot blobs)
// are bounded by the frame cap alone.
//
//ppflint:framebound
func boundFor(op uint8, maxFrame, maxBatch int) int {
	switch op {
	case opHello:
		return 1 + wire.LenSize + maxSessionKey
	case opBatch:
		return 1 + wire.LenSize + maxBatch*eventWireSize
	case opStats, opSnapshot, opReset, opOK:
		return 1
	case opDecisions:
		return 1 + wire.LenSize + maxBatch*decisionWireSize
	case opStatsRep:
		return 1 + statsWireSize
	case opSnapRep:
		return maxFrame
	}
	return maxFrame
}

// responseBound holds responses to the table the server enforces. The
// client has no batch cap of its own, so the frame cap stands in;
// fixed-size ops (opOK, opStatsRep) still get their tight bounds.
func responseBound(op uint8) int { return boundFor(op, DefaultMaxFrame, DefaultMaxFrame) }

// encodeHello builds the opening frame.
func encodeHello(key string) []byte {
	return wire.Body(opHello, func(w *snap.Walker) { wire.PutBytes(w, []byte(key)) })
}

// encodeBatch frames a burst of events.
func encodeBatch(events []engine.Event) []byte {
	return wire.Body(opBatch, func(w *snap.Walker) {
		n := len(events)
		w.Len(&n)
		for i := range events {
			events[i].SnapshotWalk(w)
		}
	})
}

// encodeDecisions frames a batch's verdicts.
func encodeDecisions(ds []core.Decision) []byte {
	return wire.Body(opDecisions, func(w *snap.Walker) {
		n := len(ds)
		w.Len(&n)
		for i := range ds {
			ds[i].SnapshotWalk(w)
		}
	})
}

// encodeSnapRep frames a session snapshot blob.
func encodeSnapRep(blob []byte) []byte {
	return wire.Body(opSnapRep, func(w *snap.Walker) { wire.PutBytes(w, blob) })
}

// decodeBatch parses an opBatch payload into buf's storage, growing it
// as needed, and returns the events. The announced count is bounded by
// the server's batch cap before buf grows.
func decodeBatch(w *snap.Walker, maxBatch int, buf []engine.Event) ([]engine.Event, error) {
	var n int
	w.Len(&n) // a rejected count latches and reads as 0
	if n > maxBatch {
		return nil, fmt.Errorf("%w: batch of %d exceeds cap %d", wire.ErrTooLarge, n, maxBatch)
	}
	events := slices.Grow(buf[:0], n)[:n]
	for i := range events {
		events[i].SnapshotWalk(w)
	}
	if err := wire.Finish(w); err != nil {
		return nil, err
	}
	return events, nil
}

// decodeDecisions parses an opDecisions payload. Every byte passes
// core.ParseDecision (via Decision.SnapshotWalk), so a corrupt verdict
// surfaces as a typed error instead of an undefined Decision.
func decodeDecisions(f wire.Frame) ([]core.Decision, error) {
	var n int
	f.W.LenCapped(&n, f.Len) // a rejected count latches and reads as 0
	ds := make([]core.Decision, n)
	for i := range ds {
		ds[i].SnapshotWalk(f.W)
	}
	if err := wire.Finish(f.W); err != nil {
		return nil, err
	}
	return ds, nil
}
