// Package simstore implements the content-addressed simulation store
// behind the experiment run cache: versioned, checksummed,
// gzip-compressed entries keyed by canonical cell keys. Two kinds of
// entries live in separate namespaces — encoded sim.Results under r/
// (keyed by the full cell key) and post-warmup machine snapshots under
// w/ (keyed by the cell key's warmup prefix). Entry names are the hex
// SHA-256 of the key; the full key is sealed inside the entry, so hash
// aliasing can never serve the wrong cell.
//
// A Store is the entry codec, traffic counters and corruption warnings
// over a transport that moves whole entries: a directory (Open) or a
// ppfstored server (NewRemote). It is strictly best-effort: a
// truncated, version-mismatched, key-mismatched or checksum-failing
// entry logs one warning, reports a miss, and is rewritten by the
// caller's recomputation. Writes are atomic (temp file + rename), so
// concurrent processes sharing a store only ever observe complete
// entries.
package simstore

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/snap"
)

// An entry is snap.Seal(magic, version, kind byte + key,
// gzip(payload)); version must be bumped whenever the tag or payload
// encoding changes. Version 1 had its own header and a CRC-32 over the
// whole entry.
const (
	magic   = 0x53465050 // "PPFS"
	version = 2
)

// Backend is the store surface the experiment run cache layers over:
// best-effort keyed loads (a false result means "recompute and Save")
// and atomic saves. Two implementations share it — Store, over a
// directory or a ppfstored server, and the Tiered local-cache-over-
// remote composition — so a run cache works unchanged against either.
type Backend interface {
	// LoadResult returns the stored payload for a full cell key.
	LoadResult(key string) ([]byte, bool)
	// SaveResult stores a result payload under a full cell key.
	SaveResult(key string, payload []byte) error
	// LoadSnapshot returns the post-warmup machine snapshot stored under
	// a warmup-prefix key.
	LoadSnapshot(key string) ([]byte, bool)
	// SaveSnapshot stores a machine snapshot under a warmup-prefix key.
	SaveSnapshot(key string, payload []byte) error
	// Stats returns a copy of the backend's traffic counters.
	Stats() Stats
	// ReportLine renders the backend's post-run summary.
	ReportLine() string
}

const (
	kindResult   uint8 = 1
	kindSnapshot uint8 = 2
)

// Stats counts store traffic by entry kind. Corrupt counts entries
// rejected for any integrity reason (they also count as misses).
type Stats struct {
	ResultHits     uint64
	ResultMisses   uint64
	SnapshotHits   uint64
	SnapshotMisses uint64
	Corrupt        uint64
}

// A transport moves whole entries, each at a location: a file path or
// a URL.
type transport interface {
	// locate returns the location of entry name in subdirectory sub
	// ("r" or "w").
	locate(sub, name string) string
	// get returns the entry at loc, or errNotFound if there is none.
	get(loc string) ([]byte, error)
	// put lands blob at loc whole or not at all.
	put(loc string, blob []byte) error
}

// errNotFound is a clean miss: an expected cold read, never logged.
var errNotFound = errors.New("simstore: entry not found")

// Store is a content-addressed entry store over one transport. It is
// safe for concurrent use by multiple goroutines and, thanks to atomic
// writes, by multiple processes sharing the store.
type Store struct {
	t     transport
	label string // the report line's prefix

	mu    sync.Mutex
	stats Stats
	// warned holds the locations already logged: a fleet of workers
	// hammering a shared corrupt entry would otherwise log one line per
	// worker per load. The counters still advance on every load.
	warned map[string]bool
}

func newStore(t transport, label string) *Store {
	return &Store{t: t, label: label, warned: map[string]bool{}}
}

// Open creates (if needed) and returns the store rooted at dir; making
// the entry directories makes dir too.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"r", "w"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("simstore: %w", err)
		}
	}
	return newStore(dirTransport(dir), "disk store"), nil
}

// Stats returns a copy of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ReportLine renders the store's post-run summary.
func (s *Store) ReportLine() string {
	st := s.Stats()
	line := fmt.Sprintf("%s: %d result hits / %d misses, %d snapshot hits / %d misses",
		s.label, st.ResultHits, st.ResultMisses, st.SnapshotHits, st.SnapshotMisses)
	if st.Corrupt > 0 {
		line += fmt.Sprintf(", %d corrupt entries dropped", st.Corrupt)
	}
	return line
}

// kindDir maps an entry kind to its subdirectory (and URL segment):
// results under r/, snapshots under w/.
func kindDir(kind uint8) string {
	if kind == kindSnapshot {
		return "w"
	}
	return "r"
}

// entryName returns a key's content-addressed file (and URL) name: the
// hex SHA-256 of the key.
func entryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// locate returns where a key's entry of the given kind lives.
func (s *Store) locate(kind uint8, key string) string {
	return s.t.locate(kindDir(kind), entryName(key))
}

// LoadResult returns the stored payload for a full cell key, if a
// valid entry exists.
func (s *Store) LoadResult(key string) ([]byte, bool) {
	return s.load(kindResult, key, &s.stats.ResultHits, &s.stats.ResultMisses)
}

// SaveResult stores a result payload under a full cell key.
func (s *Store) SaveResult(key string, payload []byte) error {
	return s.save(kindResult, key, payload)
}

// LoadSnapshot returns the stored machine snapshot for a warmup-prefix
// key, if a valid entry exists.
func (s *Store) LoadSnapshot(key string) ([]byte, bool) {
	return s.load(kindSnapshot, key, &s.stats.SnapshotHits, &s.stats.SnapshotMisses)
}

// SaveSnapshot stores a machine snapshot under a warmup-prefix key.
func (s *Store) SaveSnapshot(key string, payload []byte) error {
	return s.save(kindSnapshot, key, payload)
}

// load fetches, verifies and decompresses one entry. Any failure
// reports a miss so the caller recomputes (and rewrites) the entry.
func (s *Store) load(kind uint8, key string, hits, misses *uint64) ([]byte, bool) {
	loc := s.locate(kind, key)
	raw, err := s.t.get(loc)
	if err != nil {
		s.miss(misses, loc, false, err)
		return nil, false
	}
	payload, err := decodeEntry(raw, kind, key)
	if err != nil {
		s.miss(misses, loc, true, err)
		return nil, false
	}
	s.mu.Lock()
	*hits++
	s.mu.Unlock()
	return payload, true
}

// miss counts a failed load; a corrupt entry also counts as Corrupt.
// Every failure but a clean not-found logs once per location.
func (s *Store) miss(misses *uint64, loc string, corrupt bool, err error) {
	s.mu.Lock()
	*misses++
	if corrupt {
		s.stats.Corrupt++
	}
	warn := !errors.Is(err, errNotFound) && !s.warned[loc]
	if warn {
		s.warned[loc] = true
	}
	s.mu.Unlock()
	switch {
	case warn && corrupt:
		log.Printf("simstore: dropping corrupt entry %s: %v", loc, err)
	case warn:
		log.Printf("simstore: fetching %s: %v", loc, err)
	}
}

// save encodes one entry and hands it to the transport, which lands it
// atomically. Like loads, saves are best-effort from the run cache's
// point of view, but the error is returned so fleet workers publishing
// results can tell a dead store from a slow one.
func (s *Store) save(kind uint8, key string, payload []byte) error {
	loc := s.locate(kind, key)
	blob, err := encodeEntry(kind, key, payload)
	if err == nil {
		err = s.t.put(loc, blob)
	}
	if err != nil {
		return fmt.Errorf("simstore: saving %s: %w", loc, err)
	}
	return nil
}

// dirTransport keeps entries as files under a directory.
type dirTransport string

func (d dirTransport) locate(sub, name string) string { return filepath.Join(string(d), sub, name) }

func (dirTransport) get(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, errNotFound
	}
	return raw, err
}

// put lands blob at path via temp file + rename, so concurrent readers
// (and processes sharing the directory) only ever observe complete
// entries.
func (dirTransport) put(path string, blob []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort: the error that matters is err
	}
	return err
}

// tag is what an entry is sealed under: its kind byte, then its key.
func tag(kind uint8, key string) []byte { return append([]byte{kind}, key...) }

// maxEntry bounds what a hostile length can make the store buffer: a
// fetched or uploaded entry, and the payload presize decodeEntry reads
// from a gzip trailer. At 64 MiB it sits far above any real entry (an
// 8-core snapshot is about 8 MB).
const maxEntry = 64 << 20

// encodeEntry seals payload, gzipped, under its kind and key. Entries
// are written at gzip.BestSpeed: on snapshots it compresses four to
// five times faster than the default level for a file about 10%
// larger. Any level decodes, so entries written at another level still
// load.
func encodeEntry(kind uint8, key string, payload []byte) ([]byte, error) {
	var gz bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&gz, gzip.BestSpeed) // a valid level cannot fail
	if _, err := zw.Write(payload); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return snap.Seal(magic, version, tag(kind, key), gz.Bytes()), nil
}

func decodeEntry(raw []byte, kind uint8, key string) ([]byte, error) {
	got, gz, err := snap.Unseal(raw, magic, version)
	if err != nil {
		return nil, err
	}
	if want := tag(kind, key); !bytes.Equal(got, want) {
		return nil, fmt.Errorf("entry tag %q (want %q)", got, want)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	// Presize from the gzip trailer's ISIZE (the payload length mod
	// 2^32; NewReader has read a 10-byte header, so gz holds 4 bytes),
	// so the buffer is allocated once instead of doubling its way up,
	// plus room for the read that reports EOF. A lying trailer costs at
	// most maxEntry before gzip's own length check rejects the entry.
	hint := min(binary.LittleEndian.Uint32(gz[len(gz)-4:]), maxEntry)
	out := bytes.NewBuffer(make([]byte, 0, int(hint)+bytes.MinRead))
	if _, err := out.ReadFrom(zr); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	return out.Bytes(), nil
}
