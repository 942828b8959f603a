// Package sweepfab is the distributed sweep fabric: a coordinator that
// enumerates experiment cells in their existing deterministic order and
// leases them to workers over a length-prefixed binary protocol, plus
// the worker loop that simulates leased cells through the unchanged
// experiment.Exec path and publishes results to a shared simstore
// backend.
//
// The fabric generalizes runner.Memo's single-flight guarantee across
// processes: within one coordinator a cell key maps to one lease-board
// entry no matter how many experiment goroutines request it, a leased
// cell is handed to exactly one live worker at a time, and a worker
// only simulates after re-checking the shared store — so a cell
// simulates at most once fleet-wide on the happy path, with lease
// expiry (worker crash) as the only source of re-runs.
//
// Framing, the typed wire errors and the request/response exchange are
// internal/wire's, shared with internal/serve; this package holds the
// lease protocol's vocabulary. The first worker frame must be
// opFabHello; every subsequent request gets exactly one response, in
// order.
package sweepfab

import (
	"fmt"

	"repro/internal/snap"
	"repro/internal/wire"
)

// Request ops (worker to coordinator). Response ops echo in the high
// bit so a stray request byte can never parse as a reply.
const (
	opFabHello uint8 = 0x01 // payload: worker name (Len-prefixed bytes)
	opFabLease uint8 = 0x02 // payload: empty
	opFabDone  uint8 = 0x03 // payload: lease id (uint64) + ok (bool)
)

// Response ops (coordinator to worker). Op 0xFF is internal/wire's
// error frame.
const (
	opFabWelcome  uint8 = 0x81 // payload: lease timeout in millis (uint64)
	opFabCell     uint8 = 0x82 // payload: lease id (uint64) + cell spec (Len-prefixed bytes)
	opFabWait     uint8 = 0x83 // payload: suggested poll delay in millis (uint64)
	opFabShutdown uint8 = 0x84 // payload: empty
	opFabAck      uint8 = 0x85 // payload: empty
)

// Wire size limits.
const (
	// maxWorkerName bounds the hello payload: names are short routing
	// labels, and an unbounded name would make the hello bound vacuous.
	maxWorkerName = 4096
	// defaultMaxFrame bounds any fabric frame. Cell specs are small JSON
	// documents (a sim.Config plus identity strings), so 1 MiB is far
	// above any legal frame and far below hostile-length territory.
	defaultMaxFrame = 1 << 20
)

// fabBoundFor is the frame-size bound table: the maximum legal body
// size for each op. Both halves consult it — the coordinator rejects
// oversized requests before decoding, and the worker rejects oversized
// responses instead of trusting the peer. Cell specs are bounded by the
// frame cap alone.
//
//ppflint:framebound
func fabBoundFor(op uint8, maxFrame int) int {
	switch op {
	case opFabHello:
		return 1 + wire.LenSize + maxWorkerName
	case opFabLease, opFabShutdown, opFabAck:
		return 1
	case opFabDone:
		return 1 + 8 + 1
	case opFabWelcome, opFabWait:
		return 1 + 8
	case opFabCell:
		return maxFrame
	}
	return maxFrame
}

// encodeHello builds the opening frame.
func encodeHello(name string) []byte {
	return wire.Body(opFabHello, func(w *snap.Walker) { wire.PutBytes(w, []byte(name)) })
}

// encodeLease builds a work request.
func encodeLease() []byte { return wire.Body(opFabLease, nil) }

// encodeDone builds a completion report.
func encodeDone(leaseID uint64, ok bool) []byte {
	return wire.Body(opFabDone, func(w *snap.Walker) {
		w.Uint64(&leaseID)
		w.Bool(&ok)
	})
}

// encodeWelcome builds the hello response carrying the lease timeout.
func encodeWelcome(leaseMillis uint64) []byte {
	return wire.Body(opFabWelcome, func(w *snap.Walker) { w.Uint64(&leaseMillis) })
}

// encodeCell builds a lease grant.
func encodeCell(leaseID uint64, spec []byte) []byte {
	return wire.Body(opFabCell, func(w *snap.Walker) {
		w.Uint64(&leaseID)
		wire.PutBytes(w, spec)
	})
}

// encodeWait builds the nothing-to-lease response.
func encodeWait(millis uint64) []byte {
	return wire.Body(opFabWait, func(w *snap.Walker) { w.Uint64(&millis) })
}

// encodeShutdown builds the all-work-done response.
func encodeShutdown() []byte { return wire.Body(opFabShutdown, nil) }

// encodeAck builds the completion acknowledgement.
func encodeAck() []byte { return wire.Body(opFabAck, nil) }

// decodeUint64Body parses a single-uint64 payload (welcome, wait).
func decodeUint64Body(w *snap.Walker) (uint64, error) {
	var v uint64
	w.Uint64(&v)
	return v, wire.Finish(w)
}

// decodeCell parses an opFabCell payload.
func decodeCell(f wire.Frame) (leaseID uint64, spec []byte, err error) {
	f.W.Uint64(&leaseID)
	if spec, err = wire.ReadBytes(f.W, f.Len); err != nil {
		return 0, nil, err
	}
	return leaseID, spec, wire.Finish(f.W)
}

// decodeDone parses an opFabDone payload.
func decodeDone(w *snap.Walker) (leaseID uint64, ok bool, err error) {
	w.Uint64(&leaseID)
	w.Bool(&ok)
	return leaseID, ok, wire.Finish(w)
}

// decodeHello parses an opFabHello payload into the worker name.
func decodeHello(f wire.Frame) (string, error) {
	name, err := wire.ReadBytes(f.W, f.Len)
	if err != nil {
		return "", err
	}
	if len(name) > maxWorkerName {
		return "", fmt.Errorf("%w: worker name of %d bytes", wire.ErrTooLarge, len(name))
	}
	if err := wire.Finish(f.W); err != nil {
		return "", err
	}
	return string(name), nil
}
