// Package simstore implements the on-disk, content-addressed
// simulation store behind the experiment run cache: versioned,
// checksummed, gzip-compressed entries keyed by canonical cell keys.
// Two kinds of entries live in separate subdirectories — encoded
// sim.Results under r/ (keyed by the full cell key) and post-warmup
// machine snapshots under w/ (keyed by the cell key's warmup prefix).
// File names are the hex SHA-256 of the key; the full key is echoed
// inside the entry so hash aliasing can never serve the wrong cell.
//
// The store is strictly best-effort: a truncated, version-mismatched,
// key-mismatched or checksum-failing entry logs one warning, reports a
// miss, and is rewritten by the caller's recomputation. Writes are
// atomic (temp file + rename), so concurrent processes sharing a cache
// directory can only ever observe complete entries.
package simstore

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sync"
)

// magic identifies simstore entries; version gates the entry layout
// and must be bumped whenever the header or payload encoding changes.
const (
	magic   = "PPFS"
	version = 1
)

// Backend is the store surface the experiment run cache layers over:
// best-effort keyed loads (a false result means "recompute and Save")
// and atomic saves. Three implementations share it — the on-disk Store,
// the HTTP Remote client, and the Tiered local-cache-over-remote
// composition — so a run cache works unchanged against any of them.
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

// Store is a content-addressed entry store rooted at one directory.
// It is safe for concurrent use by multiple goroutines and, thanks to
// atomic writes, by multiple processes sharing the directory.
type Store struct {
	dir string

	mu    sync.Mutex
	stats Stats
	warn  warnOnce
}

// warnOnce rate-limits corruption warnings to one line per distinct
// key: a fleet of workers hammering a shared corrupt entry would
// otherwise emit one warning per worker per load. The corrupt counter
// still advances on every rejected load — only the log line is deduped.
// Callers must hold the owning backend's mutex.
type warnOnce struct {
	seen map[string]struct{}
}

// shouldWarn reports whether this is the first warning for key.
func (w *warnOnce) shouldWarn(key string) bool {
	if _, ok := w.seen[key]; ok {
		return false
	}
	if w.seen == nil {
		w.seen = make(map[string]struct{})
	}
	w.seen[key] = struct{}{}
	return true
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "r"), filepath.Join(dir, "w")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("simstore: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a copy of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ReportLine renders the store's post-run summary.
func (s *Store) ReportLine() string {
	st := s.Stats()
	line := fmt.Sprintf("disk store: %d result hits / %d misses, %d snapshot hits / %d misses",
		st.ResultHits, st.ResultMisses, st.SnapshotHits, st.SnapshotMisses)
	if st.Corrupt > 0 {
		line += fmt.Sprintf(", %d corrupt entries dropped", st.Corrupt)
	}
	return line
}

// kindDir maps an entry kind to its subdirectory (and remote URL
// segment): results under r/, snapshots under w/.
func kindDir(kind uint8) string {
	if kind == kindSnapshot {
		return "w"
	}
	return "r"
}

// entryName returns a key's content-addressed file (and URL) name: the
// hex SHA-256 of the key. The full key is echoed inside the entry, so
// hash aliasing can never serve the wrong cell.
func entryName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// path maps a key to its entry file.
func (s *Store) path(kind uint8, key string) string {
	return filepath.Join(s.dir, kindDir(kind), entryName(key))
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

// load reads, verifies and decompresses one entry. Any integrity
// failure counts as corrupt, logs one warning, and reports a miss so
// the caller recomputes (and rewrites) the entry.
func (s *Store) load(kind uint8, key string, hits, misses *uint64) ([]byte, bool) {
	path := s.path(kind, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.miss(misses)
		return nil, false
	}
	payload, err := decodeEntry(raw, kind, key)
	if err != nil {
		s.mu.Lock()
		s.stats.Corrupt++
		*misses++
		warn := s.warn.shouldWarn(path)
		s.mu.Unlock()
		if warn {
			log.Printf("simstore: dropping corrupt entry %s: %v", path, err)
		}
		return nil, false
	}
	s.mu.Lock()
	*hits++
	s.mu.Unlock()
	return payload, true
}

func (s *Store) miss(misses *uint64) {
	s.mu.Lock()
	*misses++
	s.mu.Unlock()
}

// save writes one entry atomically: the bytes are assembled and
// checksummed in memory, written to a temp file in the destination
// directory, and renamed into place.
func (s *Store) save(kind uint8, key string, payload []byte) error {
	path := s.path(kind, key)
	blob, err := encodeEntry(kind, key, payload)
	if err != nil {
		return fmt.Errorf("simstore: encoding %s: %w", path, err)
	}
	return writeAtomic(path, blob)
}

// writeAtomic lands blob at path via temp file + rename, so concurrent
// readers (and processes sharing the directory) only ever observe
// complete entries.
func writeAtomic(path string, blob []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("simstore: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("simstore: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simstore: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("simstore: %w", err)
	}
	return nil
}

// Entry layout (all integers little-endian):
//
//	magic[4] version[u32] kind[u8] keyLen[u32] key[keyLen]
//	gzip(payload)... crc[u32]
//
// crc is CRC-32 (IEEE) over everything preceding it. Entries are written
// at gzip.BestSpeed: on snapshots it compresses four to five times faster
// than the default level for a file about 10% larger. Any level decodes,
// so entries written at another level still load.

// maxEntry bounds what a hostile length can make the store buffer: a
// fetched or uploaded entry, and the payload presize decodeEntry reads
// from a gzip trailer. At 64 MiB it sits far above any real entry (an
// 8-core snapshot is about 8 MB).
const maxEntry = 64 << 20

func encodeEntry(kind uint8, key string, payload []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], version)
	hdr[4] = kind
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(key)))
	buf.Write(hdr[:])
	buf.WriteString(key)
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed) // a valid level cannot fail
	if _, err := zw.Write(payload); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

func decodeEntry(raw []byte, kind uint8, key string) ([]byte, error) {
	const headerLen = 4 + 9
	if err := checkEnvelope(raw); err != nil {
		return nil, err
	}
	body := raw[:len(raw)-4]
	if v := binary.LittleEndian.Uint32(body[4:8]); v != version {
		return nil, fmt.Errorf("format version %d (want %d)", v, version)
	}
	if k := body[8]; k != kind {
		return nil, fmt.Errorf("entry kind %d (want %d)", k, kind)
	}
	keyLen := int(binary.LittleEndian.Uint32(body[9:13]))
	if keyLen < 0 || headerLen+keyLen > len(body) {
		return nil, fmt.Errorf("implausible key length %d", keyLen)
	}
	if got := string(body[headerLen : headerLen+keyLen]); got != key {
		return nil, fmt.Errorf("key mismatch: entry holds %q", got)
	}
	gz := body[headerLen+keyLen:]
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

// checkEnvelope verifies the entry framing a server can check without
// the key: the magic prefix and the trailing CRC-32 over the body.
func checkEnvelope(blob []byte) error {
	if len(blob) < 4+9+4 {
		return fmt.Errorf("entry too short (%d bytes)", len(blob))
	}
	if string(blob[:4]) != magic {
		return fmt.Errorf("bad magic %q", blob[:4])
	}
	body, crc := blob[:len(blob)-4], binary.LittleEndian.Uint32(blob[len(blob)-4:])
	if got := crc32.ChecksumIEEE(body); got != crc {
		return fmt.Errorf("checksum mismatch (got %08x, want %08x)", got, crc)
	}
	return nil
}
