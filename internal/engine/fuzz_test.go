package engine

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/snap"
)

// FuzzSessionRestore seals each input as a session payload under the
// default configuration's fingerprint, so every input passes the seal
// and reaches the filter's decoder, then restores it and applies a
// short fixed batch. Any payload must either fail Restore or leave a
// session that runs. The seed is the payload of a trained session.
func FuzzSessionRestore(f *testing.F) {
	s := New(core.DefaultConfig())
	s.ApplyBatch(eventStream(7, 4096), nil)
	blob, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	_, valid, err := snap.Unseal(blob, sessMagic, sessVersion)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	batch := eventStream(8, 512)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := New(core.DefaultConfig())
		if err := r.Restore(snap.Seal(sessMagic, sessVersion, r.fingerprint(), data)); err != nil {
			if bytes.Equal(data, valid) {
				t.Fatalf("valid payload failed to restore: %v", err)
			}
			return
		}
		r.ApplyBatch(batch, nil)
	})
}
