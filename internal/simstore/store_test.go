package simstore

import (
	"bytes"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/snap"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := openTemp(t)
	payload := []byte("result bytes")
	if _, ok := s.LoadResult("key1"); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.SaveResult("key1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadResult("key1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("LoadResult = %q, %v; want %q, true", got, ok, payload)
	}
	// Kinds are separate namespaces: the same key misses as a snapshot.
	if _, ok := s.LoadSnapshot("key1"); ok {
		t.Fatal("result entry served as a snapshot")
	}
	st := s.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.SnapshotMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveSnapshot("k", nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadSnapshot("k")
	if !ok || len(got) != 0 {
		t.Fatalf("LoadSnapshot = %v, %v; want empty, true", got, ok)
	}
}

// TestCorruptionFallsBackAndRewrites is the corruption-hardening
// golden: a bit-flipped snapshot entry must report a miss (not bad
// data), count as corrupt, and be replaced by the caller's rewrite.
func TestCorruptionFallsBackAndRewrites(t *testing.T) {
	log.SetOutput(os.Stderr)
	s := openTemp(t)
	payload := bytes.Repeat([]byte("machine state "), 64)
	if err := s.SaveSnapshot("warm-key", payload); err != nil {
		t.Fatal(err)
	}
	path := s.locate(kindSnapshot, "warm-key")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := s.LoadSnapshot("warm-key"); ok {
		t.Fatalf("bit-flipped entry served a hit: %q", got)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.SnapshotMisses != 1 {
		t.Fatalf("stats after corruption = %+v", st)
	}

	// The fall-back path recomputes and rewrites; the entry is whole again.
	if err := s.SaveSnapshot("warm-key", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadSnapshot("warm-key")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("rewritten entry did not load")
	}
}

func TestTruncatedEntry(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveResult("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := s.locate(kindResult, "k")
	raw, _ := os.ReadFile(path)
	for _, n := range []int{0, 3, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.LoadResult("k"); ok {
			t.Fatalf("truncated entry (%d bytes) served a hit", n)
		}
	}
}

// TestVersionMismatch writes one entry sealed at the store's version
// and one sealed at the next: only the version differs, so the second
// is rejected for its version alone.
func TestVersionMismatch(t *testing.T) {
	for _, v := range []uint32{version, version + 1} {
		s := openTemp(t)
		raw := sealAt(t, v, kindResult, "k", []byte("payload"))
		if err := os.WriteFile(s.locate(kindResult, "k"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok := s.LoadResult("k")
		if want := v == version; ok != want {
			t.Fatalf("entry at version %d: hit = %v, want %v", v, ok, want)
		}
		if st := s.Stats(); !ok && st.Corrupt != 1 {
			t.Fatalf("stats = %+v; want 1 corrupt", st)
		}
	}
}

// sealAt builds an entry by hand through snap.Seal, at format version
// v.
func sealAt(t *testing.T, v uint32, kind uint8, key string, payload []byte) []byte {
	t.Helper()
	return snap.Seal(magic, v, tag(kind, key), payload)
}

// TestKeyEchoGuardsAliasing simulates two keys landing on one file (a
// hash collision): the echoed key must reject the mismatched read.
func TestKeyEchoGuardsAliasing(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveResult("key-a", []byte("a's data")); err != nil {
		t.Fatal(err)
	}
	// Copy a's entry file onto b's address.
	raw, err := os.ReadFile(s.locate(kindResult, "key-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.locate(kindResult, "key-b"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.LoadResult("key-b"); ok {
		t.Fatalf("aliased entry served a hit: %q", got)
	}
}

// TestConcurrentSameKey hammers one key from many goroutines mixing
// loads and saves; run under -race this pins that the store's locking
// and atomic-rename writes keep concurrent access safe, and that any
// successful load observes a complete payload.
func TestConcurrentSameKey(t *testing.T) {
	s := openTemp(t)
	payload := bytes.Repeat([]byte("x"), 4096)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.SaveSnapshot("shared", payload); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if got, ok := s.LoadSnapshot("shared"); ok && !bytes.Equal(got, payload) {
					t.Errorf("load observed a torn payload (%d bytes)", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent access produced corrupt reads: %+v", st)
	}
}

// TestReportLine pins the summary text of both transports: one Store
// renders them, and only the prefix differs.
func TestReportLine(t *testing.T) {
	srv := httptest.NewServer(Handler(openTemp(t)))
	defer srv.Close()
	for s, prefix := range map[*Store]string{
		openTemp(t):              "disk store",
		NewRemote(srv.URL + "/"): "remote store " + srv.URL,
	} {
		s.LoadResult("miss")
		line := s.ReportLine()
		want := prefix + ": 0 result hits / 1 misses, 0 snapshot hits / 0 misses"
		if line != want {
			t.Fatalf("ReportLine = %q, want %q", line, want)
		}
	}
}
