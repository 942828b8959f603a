// Remote store backend: the same "PPFS" entry encoding served over
// plain HTTP GET/PUT, so a fleet of sweep workers shares one result
// store. The trust model is unchanged from the on-disk store — the
// server is a dumb blob host (it verifies only the envelope magic and
// CRC at ingress), and every client fully decodes and key-checks the
// entries it fetches, so a corrupt, truncated, version-mismatched or
// aliased remote entry degrades to a miss and a cold re-run exactly
// like a corrupt local file.
package simstore

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"
)

// remotePrefix is the URL path prefix both halves speak:
// {prefix}/{r|w}/{hex sha-256 of the key}.
const remotePrefix = "/ppfs/"

// Remote is the client backend: Load/Save against a store server.
// It is safe for concurrent use; every validation failure counts as a
// miss (plus Corrupt) so callers recompute, matching *Store.
type Remote struct {
	base   string
	client *http.Client

	mu    sync.Mutex
	stats Stats
	warn  warnOnce
}

// NewRemote returns a client for the store server at base
// (e.g. "http://127.0.0.1:9401"). A nil httpClient uses a dedicated
// client with a generous timeout sized for snapshot-scale entries.
func NewRemote(base string, httpClient *http.Client) *Remote {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 2 * time.Minute}
	}
	return &Remote{base: strings.TrimSuffix(base, "/"), client: httpClient}
}

// URL returns the server base URL this client targets.
func (r *Remote) URL() string { return r.base }

// Stats returns a copy of the traffic counters.
func (r *Remote) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// ReportLine renders the client's post-run summary.
func (r *Remote) ReportLine() string {
	st := r.Stats()
	line := fmt.Sprintf("remote store %s: %d result hits / %d misses, %d snapshot hits / %d misses",
		r.base, st.ResultHits, st.ResultMisses, st.SnapshotHits, st.SnapshotMisses)
	if st.Corrupt > 0 {
		line += fmt.Sprintf(", %d corrupt entries dropped", st.Corrupt)
	}
	return line
}

// url maps a key to its entry URL.
func (r *Remote) url(kind uint8, key string) string {
	return r.base + remotePrefix + kindDir(kind) + "/" + entryName(key)
}

// LoadResult returns the stored payload for a full cell key.
func (r *Remote) LoadResult(key string) ([]byte, bool) {
	return r.load(kindResult, key, &r.stats.ResultHits, &r.stats.ResultMisses)
}

// SaveResult stores a result payload under a full cell key.
func (r *Remote) SaveResult(key string, payload []byte) error {
	return r.save(kindResult, key, payload)
}

// LoadSnapshot returns the stored machine snapshot for a warmup-prefix
// key.
func (r *Remote) LoadSnapshot(key string) ([]byte, bool) {
	return r.load(kindSnapshot, key, &r.stats.SnapshotHits, &r.stats.SnapshotMisses)
}

// SaveSnapshot stores a machine snapshot under a warmup-prefix key.
func (r *Remote) SaveSnapshot(key string, payload []byte) error {
	return r.save(kindSnapshot, key, payload)
}

// load fetches and fully validates one entry; any transport or
// integrity failure reports a miss so the caller recomputes. Integrity
// failures additionally count as corrupt and log once per distinct
// entry — a fleet retrying a shared bad entry must not spam one line
// per worker per load.
func (r *Remote) load(kind uint8, key string, hits, misses *uint64) ([]byte, bool) {
	url := r.url(kind, key)
	raw, err := r.get(url)
	if err != nil {
		r.mu.Lock()
		*misses++
		warn := err != errRemoteNotFound && r.warn.shouldWarn(url)
		r.mu.Unlock()
		if warn {
			log.Printf("simstore: remote fetch %s failed: %v", url, err)
		}
		return nil, false
	}
	payload, err := decodeEntry(raw, kind, key)
	if err != nil {
		r.mu.Lock()
		r.stats.Corrupt++
		*misses++
		warn := r.warn.shouldWarn(url)
		r.mu.Unlock()
		if warn {
			log.Printf("simstore: dropping corrupt remote entry %s: %v", url, err)
		}
		return nil, false
	}
	r.mu.Lock()
	*hits++
	r.mu.Unlock()
	return payload, true
}

// errRemoteNotFound distinguishes a clean 404 (an expected cold miss,
// never logged) from transport and server failures (logged once).
var errRemoteNotFound = fmt.Errorf("simstore: remote entry not found")

// get fetches one entry body.
func (r *Remote) get(url string) ([]byte, error) {
	resp, err := r.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errRemoteNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("simstore: remote status %s", resp.Status)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxEntry+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxEntry {
		return nil, fmt.Errorf("simstore: remote entry exceeds %d bytes", maxEntry)
	}
	return raw, nil
}

// save encodes and uploads one entry. Like local saves this is
// best-effort from the run cache's point of view, but the error is
// surfaced so operational callers (workers publishing fleet results)
// can distinguish a dead store from a slow one.
func (r *Remote) save(kind uint8, key string, payload []byte) error {
	blob, err := encodeEntry(kind, key, payload)
	if err != nil {
		return fmt.Errorf("simstore: encoding remote entry: %w", err)
	}
	req, err := http.NewRequest(http.MethodPut, r.url(kind, key), bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("simstore: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("simstore: remote save: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("simstore: remote save status %s", resp.Status)
	}
	return nil
}

// entryPath matches {r|w}/{64 hex chars} — the only paths the server
// serves. Anything else is 404, so a confused client cannot escape the
// store root or create stray files.
var entryPath = regexp.MustCompile(`^(r|w)/([0-9a-f]{64})$`)

// Handler serves a store directory over the remote protocol: GET
// returns the raw entry blob (404 on miss), PUT lands it atomically.
// PUT bodies are checked against the entry envelope (magic + trailing
// CRC) before they land, so a truncated upload or a stray non-PPFS blob
// is rejected at ingress instead of poisoning the shared store — full
// key validation stays client-side, where the key is known.
func Handler(st *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rel, ok := strings.CutPrefix(req.URL.Path, remotePrefix)
		if !ok {
			http.NotFound(w, req)
			return
		}
		m := entryPath.FindStringSubmatch(rel)
		if m == nil {
			http.NotFound(w, req)
			return
		}
		path := filepath.Join(st.Dir(), m[1], m[2])
		switch req.Method {
		case http.MethodGet, http.MethodHead:
			http.ServeFile(w, req, path)
		case http.MethodPut:
			blob, err := io.ReadAll(io.LimitReader(req.Body, maxEntry+1))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if len(blob) > maxEntry {
				http.Error(w, "entry too large", http.StatusRequestEntityTooLarge)
				return
			}
			if err := checkEnvelope(blob); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := writeAtomic(path, blob); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// Tiered layers a local cache store over a remote backend: loads hit
// the local store first and backfill it from remote hits; saves
// write through to both. Workers run with a Tiered backend so warm
// replays of cells they already fetched cost a local read, not a
// round trip.
type Tiered struct {
	local  *Store
	remote Backend
}

// NewTiered composes a local cache over a remote backend.
func NewTiered(local *Store, remote Backend) *Tiered {
	return &Tiered{local: local, remote: remote}
}

// LoadResult consults local then remote, backfilling local on a remote
// hit.
func (t *Tiered) LoadResult(key string) ([]byte, bool) {
	if p, ok := t.local.LoadResult(key); ok {
		return p, true
	}
	p, ok := t.remote.LoadResult(key)
	if ok {
		// Best effort: a failed backfill only costs a future round trip.
		_ = t.local.SaveResult(key, p)
	}
	return p, ok
}

// SaveResult writes through to both layers; the remote write is the
// one fleet correctness cares about, so its error is the one returned.
func (t *Tiered) SaveResult(key string, payload []byte) error {
	_ = t.local.SaveResult(key, payload)
	return t.remote.SaveResult(key, payload)
}

// LoadSnapshot consults local then remote, backfilling local on a
// remote hit.
func (t *Tiered) LoadSnapshot(key string) ([]byte, bool) {
	if p, ok := t.local.LoadSnapshot(key); ok {
		return p, true
	}
	p, ok := t.remote.LoadSnapshot(key)
	if ok {
		_ = t.local.SaveSnapshot(key, p)
	}
	return p, ok
}

// SaveSnapshot writes through to both layers.
func (t *Tiered) SaveSnapshot(key string, payload []byte) error {
	_ = t.local.SaveSnapshot(key, payload)
	return t.remote.SaveSnapshot(key, payload)
}

// Stats aggregates the two layers: hits from either layer count (a
// local hit never consults remote), misses are the remote's (the final
// word), corruption sums.
func (t *Tiered) Stats() Stats {
	l, r := t.local.Stats(), t.remote.Stats()
	return Stats{
		ResultHits:     l.ResultHits + r.ResultHits,
		ResultMisses:   r.ResultMisses,
		SnapshotHits:   l.SnapshotHits + r.SnapshotHits,
		SnapshotMisses: r.SnapshotMisses,
		Corrupt:        l.Corrupt + r.Corrupt,
	}
}

// ReportLine renders both layers' summaries.
func (t *Tiered) ReportLine() string {
	return t.local.ReportLine() + "; " + t.remote.ReportLine()
}

// Interface conformance.
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Remote)(nil)
	_ Backend = (*Tiered)(nil)
)
