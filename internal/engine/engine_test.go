package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/snap"
)

// eventStream builds a deterministic mixed stream: mostly candidates
// with strided and random addresses, interleaved with demand, load-PC
// and evict training events so the filter's weights actually move.
func eventStream(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, 0, n)
	pcs := []uint64{0x400100, 0x400200, 0x400300, 0x401000}
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			events = append(events, LoadPC(pcs[rng.Intn(len(pcs))]))
		case 1, 2:
			events = append(events, Demand(uint64(rng.Intn(1<<14))<<6))
		case 3:
			events = append(events, Evict(uint64(rng.Intn(1<<14))<<6, rng.Intn(2) == 0))
		default:
			events = append(events, Candidate(core.FeatureInput{
				Addr:       uint64(rng.Intn(1<<14)) << 6,
				PC:         pcs[rng.Intn(len(pcs))],
				PCHist:     core.PCHistory{pcs[0], pcs[1], pcs[2]},
				Depth:      1 + rng.Intn(8),
				Signature:  uint16(rng.Intn(1 << 12)),
				Confidence: rng.Intn(101),
				Delta:      rng.Intn(17) - 8,
			}))
		}
	}
	return events
}

func sessionBytes(t *testing.T, s *Session) []byte {
	t.Helper()
	w := snap.NewEncoder()
	s.SnapshotWalk(w)
	blob, err := w.Bytes()
	if err != nil {
		t.Fatalf("encoding session: %v", err)
	}
	return blob
}

// TestBatchBitIdenticalToSequential is the tentpole golden: ApplyBatch
// over a burst must produce bit-identical decisions AND bit-identical
// post-run filter state (weights, record tables, history, stats — the
// full SnapshotWalk encoding) to one-at-a-time Apply on the same
// stream, at every batch size.
func TestBatchBitIdenticalToSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		events := eventStream(seed, 20000)

		seq := New(core.DefaultConfig())
		var seqDecisions []core.Decision
		for i := range events {
			if d, ok := seq.Apply(&events[i]); ok {
				seqDecisions = append(seqDecisions, d)
			}
		}

		for _, batchSize := range []int{1, 7, 64, 1024, len(events)} {
			bat := New(core.DefaultConfig())
			var batDecisions []core.Decision
			buf := make([]core.Decision, 0, batchSize)
			for lo := 0; lo < len(events); lo += batchSize {
				hi := min(lo+batchSize, len(events))
				out := bat.ApplyBatch(events[lo:hi], buf[:0])
				batDecisions = append(batDecisions, out...)
			}
			if len(batDecisions) != len(seqDecisions) {
				t.Fatalf("seed %d batch %d: %d decisions vs %d sequential",
					seed, batchSize, len(batDecisions), len(seqDecisions))
			}
			for i := range batDecisions {
				if batDecisions[i] != seqDecisions[i] {
					t.Fatalf("seed %d batch %d: decision %d = %v, sequential %v",
						seed, batchSize, i, batDecisions[i], seqDecisions[i])
				}
			}
			if !bytes.Equal(sessionBytes(t, bat), sessionBytes(t, seq)) {
				t.Fatalf("seed %d batch %d: post-run filter state diverged from sequential", seed, batchSize)
			}
		}
	}
}

func TestSessionSnapshotRoundTrip(t *testing.T) {
	s := New(core.DefaultConfig())
	s.ApplyBatch(eventStream(7, 8192), nil)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	r := New(core.DefaultConfig())
	if err := r.Restore(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(sessionBytes(t, s), sessionBytes(t, r)) {
		t.Fatal("restored session state differs from the snapshotted one")
	}

	// The restored session must continue bit-identically.
	tail := eventStream(8, 2048)
	d1 := s.ApplyBatch(tail, nil)
	d2 := r.ApplyBatch(tail, nil)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("post-restore decision %d diverged: %v vs %v", i, d1[i], d2[i])
		}
	}
}

func TestSessionRestoreRejectsMismatchedConfig(t *testing.T) {
	s := New(core.DefaultConfig())
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	other := New(core.Config{TauHi: 1, TauLo: -1, ThetaP: 5, ThetaN: -5})
	if err := other.Restore(blob); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("restore into mismatched config: err = %v, want ErrConfigMismatch", err)
	}
	wideFeatures := New(core.Config{Features: append(core.DefaultFeatures(), core.LastSignatureFeature())})
	if err := wideFeatures.Restore(blob); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("restore into mismatched feature set: err = %v, want ErrConfigMismatch", err)
	}
}

func TestSessionRestoreRejectsCorruption(t *testing.T) {
	s := New(core.DefaultConfig())
	s.ApplyBatch(eventStream(9, 1024), nil)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{0xFF}, blob[1:]...),
		"truncated":   blob[:len(blob)/2],
		"flipped":     append(append([]byte(nil), blob[:len(blob)-100]...), blob[len(blob)-100]^0x40),
		"bad version": func() []byte { b := append([]byte(nil), blob...); b[4] ^= 0xFF; return b }(),
	}
	for name, data := range cases {
		r := New(core.DefaultConfig())
		if err := r.Restore(data); !errors.Is(err, ErrBadSessionSnapshot) {
			t.Errorf("%s: restore of a corrupt blob: err = %v, want ErrBadSessionSnapshot", name, err)
		}
	}
}

func TestSessionReset(t *testing.T) {
	s := New(core.DefaultConfig())
	s.ApplyBatch(eventStream(11, 4096), nil)
	s.Reset()
	if !bytes.Equal(sessionBytes(t, s), sessionBytes(t, New(core.DefaultConfig()))) {
		t.Fatal("Reset session differs from a fresh one")
	}
}

func TestWrapNil(t *testing.T) {
	if Wrap(nil) != nil {
		t.Fatal("Wrap(nil) != nil")
	}
	var s *Session
	if s.Filter() != nil {
		t.Fatal("nil session Filter() != nil")
	}
}

func TestParseKind(t *testing.T) {
	for b := uint8(0); b < uint8(kindCount); b++ {
		k, err := ParseKind(b)
		if err != nil || k != Kind(b) {
			t.Errorf("ParseKind(%d) = %v, %v", b, k, err)
		}
	}
	if _, err := ParseKind(uint8(kindCount)); !errors.Is(err, ErrBadKind) {
		t.Errorf("ParseKind(%d) err = %v, want ErrBadKind", kindCount, err)
	}
}
