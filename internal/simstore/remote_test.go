package simstore

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

// remoteTemp spins a store server over a temp directory and returns a
// remote store on it plus the backing disk store (for poking at entry
// files).
func remoteTemp(t *testing.T) (*Store, *Store) {
	t.Helper()
	st := openTemp(t)
	srv := httptest.NewServer(Handler(st))
	t.Cleanup(srv.Close)
	return NewRemote(srv.URL), st
}

func TestRemoteRoundTrip(t *testing.T) {
	r, _ := remoteTemp(t)
	payload := []byte("result bytes over the wire")
	if _, ok := r.LoadResult("key1"); ok {
		t.Fatal("empty remote store reported a hit")
	}
	if err := r.SaveResult("key1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := r.LoadResult("key1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("LoadResult = %q, %v; want %q, true", got, ok, payload)
	}
	// Kinds are separate namespaces remotely too.
	if _, ok := r.LoadSnapshot("key1"); ok {
		t.Fatal("result entry served as a snapshot")
	}
	if err := r.SaveSnapshot("key1", []byte("warm state")); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.LoadSnapshot("key1"); !ok || string(got) != "warm state" {
		t.Fatalf("LoadSnapshot = %q, %v", got, ok)
	}
	st := r.Stats()
	if st.ResultHits != 1 || st.ResultMisses != 1 || st.SnapshotHits != 1 || st.SnapshotMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRemoteSharedWithLocal pins the interchangeability the run cache
// relies on: an entry saved through the disk store is served to a
// remote client over the same directory, and vice versa.
func TestRemoteSharedWithLocal(t *testing.T) {
	r, st := remoteTemp(t)
	if err := st.SaveResult("k", []byte("local write")); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.LoadResult("k"); !ok || string(got) != "local write" {
		t.Fatalf("remote read of local write = %q, %v", got, ok)
	}
	if err := r.SaveResult("k2", []byte("remote write")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.LoadResult("k2"); !ok || string(got) != "remote write" {
		t.Fatalf("local read of remote write = %q, %v", got, ok)
	}
}

// TestRemoteCorruptionFallsBack reruns the disk store's corruption
// golden against the HTTP backend: a bit-flipped entry on the server
// must come back as a miss (counted corrupt) so the worker re-runs the
// cell cold, and the rewrite heals it.
func TestRemoteCorruptionFallsBack(t *testing.T) {
	log.SetOutput(os.Stderr)
	r, st := remoteTemp(t)
	payload := bytes.Repeat([]byte("machine state "), 64)
	if err := r.SaveSnapshot("warm-key", payload); err != nil {
		t.Fatal(err)
	}
	path := st.locate(kindSnapshot, "warm-key")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := r.LoadSnapshot("warm-key"); ok {
		t.Fatalf("bit-flipped remote entry served a hit: %q", got)
	}
	if rs := r.Stats(); rs.Corrupt != 1 || rs.SnapshotMisses != 1 {
		t.Fatalf("remote stats after corruption = %+v", rs)
	}
	if err := r.SaveSnapshot("warm-key", payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.LoadSnapshot("warm-key"); !ok || !bytes.Equal(got, payload) {
		t.Fatal("rewritten remote entry did not load")
	}
}

// TestRemoteVersionMismatch: an entry sealed at the next format version
// on the server degrades to a miss at the client, while the same entry
// at the store's version is a hit.
func TestRemoteVersionMismatch(t *testing.T) {
	for _, v := range []uint32{version, version + 1} {
		r, st := remoteTemp(t)
		raw := sealAt(t, v, kindResult, "k", []byte("payload"))
		if err := os.WriteFile(st.locate(kindResult, "k"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok := r.LoadResult("k")
		if want := v == version; ok != want {
			t.Fatalf("remote entry at version %d: hit = %v, want %v", v, ok, want)
		}
		if rs := r.Stats(); !ok && rs.Corrupt != 1 {
			t.Fatalf("stats = %+v; want 1 corrupt", rs)
		}
	}
}

// TestRemoteKeyEchoGuardsAliasing: the echoed key is validated
// client-side, so a hash-aliased entry fetched over HTTP is rejected.
func TestRemoteKeyEchoGuardsAliasing(t *testing.T) {
	r, st := remoteTemp(t)
	if err := r.SaveResult("key-a", []byte("a's data")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st.locate(kindResult, "key-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.locate(kindResult, "key-b"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.LoadResult("key-b"); ok {
		t.Fatalf("aliased remote entry served a hit: %q", got)
	}
}

// TestHandlerRejectsGarbagePut: the server unseals every PUT body at
// ingress so a stray non-PPFS body cannot poison the shared store.
func TestHandlerRejectsGarbagePut(t *testing.T) {
	_, st := remoteTemp(t)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()
	url := srv.URL + remotePrefix + "r/" + entryName("k")
	for _, body := range []string{"", "PPF", "not a ppfs entry at all......"} {
		req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if _, ok := st.LoadResult("k"); ok {
		t.Fatal("rejected PUT still landed an entry")
	}
}

// TestHandlerRejectsStrayPaths: only {r|w}/<64-hex> paths resolve, so a
// confused or hostile client cannot read or write outside the store.
func TestHandlerRejectsStrayPaths(t *testing.T) {
	_, st := remoteTemp(t)
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()
	for _, p := range []string{
		"/ppfs/r/short",
		"/ppfs/x/" + entryName("k"),
		"/ppfs/r/../../etc/passwd",
		"/other/r/" + entryName("k"),
		"/ppfs/r/" + strings.ToUpper(entryName("k")),
	} {
		resp, err := srv.Client().Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", p, resp.StatusCode)
		}
	}
}

// TestHandlerHead pins the read path's status codes: a HEAD of a stored
// entry is 200 with the entry's length and no body, a HEAD of a missing
// one is 404.
func TestHandlerHead(t *testing.T) {
	_, st := remoteTemp(t)
	if err := st.SaveResult("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st.locate(kindResult, "k"))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()
	for key, want := range map[string]int{"k": http.StatusOK, "missing": http.StatusNotFound} {
		resp, err := srv.Client().Head(srv.URL + remotePrefix + "r/" + entryName(key))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want || len(body) != 0 {
			t.Fatalf("HEAD %s: status %d with %d body bytes, want %d and none", key, resp.StatusCode, len(body), want)
		}
		if want == http.StatusOK && resp.ContentLength != int64(len(raw)) {
			t.Fatalf("HEAD %s: Content-Length %d, want %d", key, resp.ContentLength, len(raw))
		}
	}
}

// TestWarnDedupe pins satellite semantics for both backends: a corrupt
// entry loaded repeatedly logs exactly one warning line per distinct
// key, while the corrupt counter keeps advancing.
func TestWarnDedupe(t *testing.T) {
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)

	r, st := remoteTemp(t)
	for _, key := range []string{"ka", "kb"} {
		if err := st.SaveResult(key, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		path := st.locate(kindResult, key)
		raw, _ := os.ReadFile(path)
		raw[len(raw)/2] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		st.LoadResult("ka")
		st.LoadResult("kb")
		r.LoadResult("ka")
		r.LoadResult("kb")
	}
	if got := st.Stats().Corrupt; got != 10 {
		t.Fatalf("local corrupt count = %d, want 10", got)
	}
	if got := r.Stats().Corrupt; got != 10 {
		t.Fatalf("remote corrupt count = %d, want 10", got)
	}
	lines := strings.Count(buf.String(), "corrupt")
	// One line per distinct key per backend: 2 local + 2 remote.
	if lines != 4 {
		t.Fatalf("corruption warnings = %d lines, want 4\n%s", lines, buf.String())
	}
}

// TestTieredBackfillAndWriteThrough: a tiered load misses local, hits
// remote, backfills local; the second load never leaves the machine.
func TestTieredBackfillAndWriteThrough(t *testing.T) {
	r, serverStore := remoteTemp(t)
	local := openTemp(t)
	tr := NewTiered(local, r)

	// Another fleet member published this cell.
	if err := serverStore.SaveResult("cell", []byte("published")); err != nil {
		t.Fatal(err)
	}
	if got, ok := tr.LoadResult("cell"); !ok || string(got) != "published" {
		t.Fatalf("tiered load = %q, %v", got, ok)
	}
	if _, ok := local.LoadResult("cell"); !ok {
		t.Fatal("remote hit did not backfill the local layer")
	}
	before := r.Stats().ResultHits
	if _, ok := tr.LoadResult("cell"); !ok {
		t.Fatal("backfilled cell missed")
	}
	if after := r.Stats().ResultHits; after != before {
		t.Fatalf("warm tiered load went to the remote (%d -> %d hits)", before, after)
	}

	// Write-through: a save lands in both layers.
	if err := tr.SaveSnapshot("warm", []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if _, ok := local.LoadSnapshot("warm"); !ok {
		t.Fatal("tiered save missed the local layer")
	}
	if _, ok := serverStore.LoadSnapshot("warm"); !ok {
		t.Fatal("tiered save missed the remote layer")
	}
}

// TestRemoteConcurrent hammers the client and server from many
// goroutines; under -race this checks both sides' locking.
func TestRemoteConcurrent(t *testing.T) {
	r, _ := remoteTemp(t)
	payload := bytes.Repeat([]byte("x"), 2048)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := r.SaveSnapshot("shared", payload); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if got, ok := r.LoadSnapshot("shared"); ok && !bytes.Equal(got, payload) {
					t.Errorf("load observed a torn payload (%d bytes)", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent remote access produced corrupt reads: %+v", st)
	}
}

// TestRemoteDownDegradesToMiss: with the server gone, every load is a
// miss (cold re-run), not a crash; saves surface an error.
func TestRemoteDownDegradesToMiss(t *testing.T) {
	st := openTemp(t)
	srv := httptest.NewServer(Handler(st))
	r := NewRemote(srv.URL)
	srv.Close()
	if _, ok := r.LoadResult("k"); ok {
		t.Fatal("dead server served a hit")
	}
	if err := r.SaveResult("k", []byte("p")); err == nil {
		t.Fatal("save against a dead server reported success")
	}
	if rs := r.Stats(); rs.ResultMisses != 1 {
		t.Fatalf("stats = %+v; want 1 result miss", rs)
	}
}
