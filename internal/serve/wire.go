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
	"encoding/binary"
	"fmt"

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

// Per-item wire sizes. An event is a fixed 68-byte block (the layout
// below), a decision is one validated byte, and a Stats walk is eleven
// uint64 counters. Pinned by TestWireSizeConstants against the encoders.
const (
	decisionWireSize = 1
	statsWireSize    = 88
	// maxSessionKey bounds the hello key: keys are short routing labels,
	// and an unbounded key would make the hello frame's size bound
	// vacuous.
	maxSessionKey = 4096
)

// The event block: byte offsets of each engine.Event field, all
// integers little-endian, signed ones as 64-bit two's complement. The
// kind byte must pass engine.ParseKind and the used byte must be 0 or 1.
const (
	evKind       = 0  // uint8
	evAddr       = 1  // uint64
	evPC         = 9  // uint64
	evPCHist     = 17 // three uint64, PCHist[0] first
	evDepth      = 41 // int64
	evSignature  = 49 // uint16
	evConfidence = 51 // int64
	evDelta      = 59 // int64
	evUsed       = 67 // 0 or 1
	// eventWireSize is one event block.
	eventWireSize = 68
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

// grow returns buf resized to n elements, keeping its storage when it
// is large enough; the contents are left for the caller to overwrite.
// Each connection keeps its buffers, so they grow to the largest batch
// the connection has carried and then stop allocating. It is not
// inlined, so the compiler reports its allocation here, at the one
// growth site, rather than at every caller.
//
//ppflint:hotpath
//go:noinline
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n) //ppflint:allow hotpath amortized: grows to the connection's largest batch, then never again
	}
	return buf[:n]
}

// encodeBatch frames a burst of events into buf's storage and returns
// the body.
//
//ppflint:hotpath
func encodeBatch(buf []byte, events []engine.Event) []byte {
	body := grow(buf, 1+wire.LenSize+len(events)*eventWireSize)
	body[0] = opBatch
	binary.LittleEndian.PutUint64(body[1:], uint64(len(events)))
	blocks := body[1+wire.LenSize:]
	for i := range events {
		e := &events[i]
		b := (*[eventWireSize]byte)(blocks[i*eventWireSize:])
		b[evKind] = uint8(e.Kind)
		binary.LittleEndian.PutUint64(b[evAddr:], e.Input.Addr)
		binary.LittleEndian.PutUint64(b[evPC:], e.Input.PC)
		for h, pc := range e.Input.PCHist {
			binary.LittleEndian.PutUint64(b[evPCHist+8*h:], pc)
		}
		binary.LittleEndian.PutUint64(b[evDepth:], uint64(int64(e.Input.Depth)))
		binary.LittleEndian.PutUint16(b[evSignature:], e.Input.Signature)
		binary.LittleEndian.PutUint64(b[evConfidence:], uint64(int64(e.Input.Confidence)))
		binary.LittleEndian.PutUint64(b[evDelta:], uint64(int64(e.Input.Delta)))
		b[evUsed] = 0
		if e.Used {
			b[evUsed] = 1
		}
	}
	return body
}

// encodeDecisions frames a batch's verdicts into buf's storage and
// returns the body.
//
//ppflint:hotpath
func encodeDecisions(buf []byte, ds []core.Decision) []byte {
	body := grow(buf, 1+wire.LenSize+len(ds)*decisionWireSize)
	body[0] = opDecisions
	binary.LittleEndian.PutUint64(body[1:], uint64(len(ds)))
	for i, d := range ds {
		body[1+wire.LenSize+i] = uint8(d)
	}
	return body
}

// encodeSnapRep frames a session snapshot blob.
func encodeSnapRep(blob []byte) []byte {
	return wire.Body(opSnapRep, func(w *snap.Walker) { wire.PutBytes(w, blob) })
}

// decodeBatch parses an opBatch payload into buf's storage, growing it
// as needed, and returns the events. The announced count is bounded by
// the server's batch cap before buf grows, and the payload must hold
// exactly that many event blocks. The events copy out of the frame, so
// they outlive it.
//
//ppflint:hotpath
func decodeBatch(w *snap.Walker, maxBatch int, buf []engine.Event) ([]engine.Event, error) {
	var n int
	w.Len(&n) // a rejected count latches and reads as 0
	if n > maxBatch {
		return nil, errBatchTooLarge(n, maxBatch)
	}
	blocks := w.Take(n * eventWireSize)
	if err := wire.Finish(w); err != nil {
		return nil, err
	}
	events := grow(buf, n)
	for i := range events {
		e := &events[i]
		b := (*[eventWireSize]byte)(blocks[i*eventWireSize:])
		k, err := engine.ParseKind(b[evKind])
		if err != nil {
			return nil, errBadEvent(i, err)
		}
		e.Kind = k
		e.Input.Addr = binary.LittleEndian.Uint64(b[evAddr:])
		e.Input.PC = binary.LittleEndian.Uint64(b[evPC:])
		for h := range e.Input.PCHist {
			e.Input.PCHist[h] = binary.LittleEndian.Uint64(b[evPCHist+8*h:])
		}
		e.Input.Depth = int(int64(binary.LittleEndian.Uint64(b[evDepth:])))
		e.Input.Signature = binary.LittleEndian.Uint16(b[evSignature:])
		e.Input.Confidence = int(int64(binary.LittleEndian.Uint64(b[evConfidence:])))
		e.Input.Delta = int(int64(binary.LittleEndian.Uint64(b[evDelta:])))
		switch b[evUsed] {
		case 0:
			e.Used = false
		case 1:
			e.Used = true
		default:
			return nil, errBadEvent(i, errBadUsedByte(b[evUsed]))
		}
	}
	return events, nil
}

// decodeDecisions parses an opDecisions payload, appending the verdicts
// to dst. Every byte passes core.ParseDecision, so a corrupt verdict
// surfaces as a typed error instead of an undefined Decision.
//
//ppflint:hotpath
func decodeDecisions(f wire.Frame, dst []core.Decision) ([]core.Decision, error) {
	var n int
	f.W.LenCapped(&n, f.Len) // a rejected count latches and reads as 0
	raw := f.W.Take(n * decisionWireSize)
	if err := wire.Finish(f.W); err != nil {
		return nil, err
	}
	for i, b := range raw {
		d, err := core.ParseDecision(b)
		if err != nil {
			return nil, errBadVerdict(i, err)
		}
		dst = append(dst, d)
	}
	return dst, nil
}

// The codec's error constructors are outlined //go:noinline helpers, so
// the //ppflint:hotpath decoders box no arguments on their healthy path.

//go:noinline
func errBatchTooLarge(n, maxBatch int) error {
	return fmt.Errorf("%w: batch of %d exceeds cap %d", wire.ErrTooLarge, n, maxBatch)
}

//go:noinline
func errBadEvent(i int, err error) error {
	return fmt.Errorf("%w: event %d: %w", wire.ErrBadFrame, i, err)
}

//go:noinline
func errBadUsedByte(b uint8) error {
	return fmt.Errorf("used byte 0x%02x is not 0 or 1", b)
}

//go:noinline
func errBadVerdict(i int, err error) error {
	return fmt.Errorf("%w: decision %d: %w", wire.ErrBadFrame, i, err)
}
