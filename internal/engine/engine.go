// Package engine is the public facade over the PPF kernel
// (internal/core): a Session owns one filter instance and exposes the
// explicit lifecycle a long-lived consumer needs — create, decide,
// train, snapshot/restore, reset — behind one type. Both the simulator
// (internal/sim) and the decision server (internal/serve, cmd/ppfd)
// drive the kernel through a Session, so the hot-path calling
// convention (*FeatureInput everywhere) cannot fork between offline
// sweeps and the served path.
//
// A Session, like the filter it wraps, is single-goroutine: the
// simulator owns its sessions outright, and the server gives every
// client connection a dedicated worker, so no locking is needed on the
// per-event path. Cross-client isolation in the server comes from
// sharding — one Session per client — not from locks around a shared
// filter.
package engine

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/snap"
)

// Session is one leased filter instance with explicit lifecycle. It is
// single-goroutine by construction (one owner per lease; the server
// gives each connection a dedicated worker), so its state is guarded by
// ownership, not locks: only Session methods may touch the fields.
//
//ppflint:guardedby receiver
type Session struct {
	f *core.Filter
}

// New creates a session around a freshly-constructed filter.
func New(cfg core.Config) *Session { return &Session{f: core.New(cfg)} }

// Wrap adopts an existing filter (the simulator builds filters in its
// experiment setup code and hands them to cores). Wrap(nil) returns
// nil, so "no filter attached" stays a plain nil check for consumers.
func Wrap(f *core.Filter) *Session {
	if f == nil {
		return nil
	}
	return &Session{f: f}
}

// Filter exposes the wrapped kernel for consumers that need the raw
// surface (training observers, weight dumps). Nil-safe.
func (s *Session) Filter() *core.Filter {
	if s == nil {
		return nil
	}
	return s.f
}

// Config returns the wrapped filter's configuration.
func (s *Session) Config() core.Config { return s.f.Config() }

// Decide scores one candidate; see core.Filter.Decide for the
// decide/record split contract.
func (s *Session) Decide(in *core.FeatureInput) core.Decision { return s.f.Decide(in) }

// RecordIssue logs an issued prefetch under the decision carried out.
func (s *Session) RecordIssue(in *core.FeatureInput, d core.Decision) { s.f.RecordIssue(in, d) }

// RecordReject logs a filtered-out candidate in the Reject Table.
func (s *Session) RecordReject(in *core.FeatureInput) { s.f.RecordReject(in) }

// RecordSquashed accounts an accepted candidate squashed before issue.
func (s *Session) RecordSquashed() { s.f.RecordSquashed() }

// OnDemand trains the filter from a demand access.
func (s *Session) OnDemand(addr uint64) { s.f.OnDemand(addr) }

// OnEvict trains the filter from an eviction.
func (s *Session) OnEvict(addr uint64, used bool) { s.f.OnEvict(addr, used) }

// OnLoadPC records a retired load PC into the history register file.
func (s *Session) OnLoadPC(pc uint64) { s.f.OnLoadPC(pc) }

// PCHist exposes the current load-PC history.
func (s *Session) PCHist() core.PCHistory { return s.f.PCHist() }

// Stats returns a copy of the filter's counters.
func (s *Session) Stats() core.Stats { return s.f.Stats() }

// ResetStats clears the counters, keeping learned weights.
func (s *Session) ResetStats() { s.f.ResetStats() }

// Reset returns the session to its freshly-created state — weights,
// record tables, history and stats — for re-lease to a new client.
func (s *Session) Reset() { s.f.Reset() }

// SnapshotWalk serializes the session's filter state (internal/sim
// embeds sessions in machine snapshots through this).
func (s *Session) SnapshotWalk(w *snap.Walker) { s.f.SnapshotWalk(w) }

// Apply executes one event against the session. For candidate events it
// returns the verdict and true; training events return (0, false). A
// candidate is decided and recorded in one step (the one-shot
// core.Filter path): the served protocol has no squash feedback, so an
// accepted candidate is accounted as issued under its verdict.
//
//ppflint:hotpath
func (s *Session) Apply(ev *Event) (core.Decision, bool) {
	switch ev.Kind {
	case KindCandidate:
		return s.f.Filter(&ev.Input), true
	case KindDemand:
		s.f.OnDemand(ev.Input.Addr)
	case KindLoadPC:
		s.f.OnLoadPC(ev.Input.PC)
	case KindEvict:
		s.f.OnEvict(ev.Input.Addr, ev.Used)
	}
	return 0, false
}

// ApplyBatch feeds a burst of events through the session in order,
// appending each candidate's verdict to out and returning the extended
// slice (pass out[:0] of a reused buffer for an allocation-free batch).
//
// The batch exists to amortize framing and call overhead across a
// burst, never to reorder work: each event goes through Apply in order,
// so the returned decisions and the post-batch filter state are those
// of Apply called once per event on the same stream.
// TestBatchBitIdenticalToSequential pins this guarantee; the server's
// batch endpoint inherits it. Append growth is the caller's buffer
// policy (each server connection passes back the buffer its previous
// batch returned, so growth stops at the largest batch it has seen).
//
//ppflint:hotpath
func (s *Session) ApplyBatch(events []Event, out []core.Decision) []core.Decision {
	for i := range events {
		if d, ok := s.Apply(&events[i]); ok {
			out = append(out, d)
		}
	}
	return out
}

// A session snapshot is sealed (snap.SealWalk) under sessMagic and
// sessVersion with the session's config fingerprint as its tag: the
// walker stream is positional and would decode a mismatched geometry
// (thresholds, feature tables) into garbage weights, so a snapshot
// cannot be restored into a session built differently.
const (
	sessMagic   = 0x45465050 // "PPFE"
	sessVersion = 1
)

// ErrBadSessionSnapshot reports a session snapshot whose seal failed
// validation.
var ErrBadSessionSnapshot = errors.New("engine: malformed session snapshot")

// ErrConfigMismatch reports a session snapshot taken under a different
// filter configuration than the restoring session's.
var ErrConfigMismatch = errors.New("engine: session snapshot config mismatch")

// fingerprint encodes the config geometry the snapshot payload depends
// on: the thresholds, then each feature table's name and size.
func (s *Session) fingerprint() []byte {
	w := snap.NewEncoder()
	cfg := s.f.Config()
	w.Int(&cfg.TauHi)
	w.Int(&cfg.TauLo)
	w.Int(&cfg.ThetaP)
	w.Int(&cfg.ThetaN)
	names := s.f.FeatureNames()
	n := len(names)
	w.Len(&n)
	for i, name := range names {
		b := []byte(name)
		bn := len(b)
		w.Len(&bn)
		w.Uint8s(b)
		size := len(s.f.WeightsOf(i))
		w.Int(&size)
	}
	fp, _ := w.Bytes() // only Check latches an encoder's error, and this walk calls none
	return fp
}

// Snapshot serializes the session into a self-validating blob:
// corruption, truncation, version skew and configuration mismatch all
// surface as typed errors on Restore instead of a garbage filter.
func (s *Session) Snapshot() ([]byte, error) {
	return snap.SealWalk(sessMagic, sessVersion, s.fingerprint(), s.f.SnapshotWalk)
}

// Restore loads a Snapshot blob into the session. The session's own
// configuration must match the snapshotted one (ErrConfigMismatch
// otherwise). On a validation error the session state is unchanged; on
// a mid-walk decode error the session is undefined and must be Reset or
// discarded.
func (s *Session) Restore(data []byte) error {
	tag, payload, err := snap.Unseal(data, sessMagic, sessVersion)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSessionSnapshot, err)
	}
	if !bytes.Equal(tag, s.fingerprint()) {
		return ErrConfigMismatch
	}
	w := snap.NewDecoder(payload)
	s.f.SnapshotWalk(w)
	return w.Finish()
}
