// Remote transport: the same sealed "PPFS" entries over plain HTTP GET
// and PUT, so a fleet of sweep workers shares one store. The trust
// model is the on-disk store's: the server (Handler, run by
// cmd/ppfstored) is a dumb blob host that checks only the seal at
// ingress, and every client fully decodes and key-checks the entries it
// fetches, so a corrupt, truncated, version-mismatched or aliased
// remote entry degrades to a miss and a cold re-run exactly like a
// corrupt local file.
package simstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"time"

	"repro/internal/snap"
)

// remotePrefix is the URL path prefix both halves speak:
// {prefix}/{r|w}/{hex sha-256 of the key}.
const remotePrefix = "/ppfs/"

// remoteClient carries every remote store's requests, with a timeout
// generous enough for snapshot-scale entries.
var remoteClient = &http.Client{Timeout: 2 * time.Minute}

// NewRemote returns a store kept on the ppfstored server at base
// (e.g. "http://127.0.0.1:9401").
func NewRemote(base string) *Store {
	base = strings.TrimSuffix(base, "/")
	return newStore(remote(base), "remote store "+base)
}

// remote keeps entries on a store server at a base URL; an entry's
// location is its URL.
type remote string

func (r remote) locate(sub, name string) string { return string(r) + remotePrefix + sub + "/" + name }

func (remote) get(url string) ([]byte, error) {
	resp, err := remoteClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errNotFound
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return readEntry(resp.Body)
}

// put uploads one entry; the server lands it atomically.
func (remote) put(url string, blob []byte) error {
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := remoteClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("status %s", resp.Status)
	}
	return nil
}

// readEntry reads a whole entry body, refusing one past maxEntry.
func readEntry(r io.Reader) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(r, maxEntry+1))
	if err == nil && len(raw) > maxEntry {
		err = fmt.Errorf("entry exceeds %d bytes", maxEntry)
	}
	return raw, err
}

// entryPath matches {r|w}/{64 hex chars} — the only paths the server
// serves. Anything else is 404, so a confused client cannot escape the
// store root or create stray files.
var entryPath = regexp.MustCompile(`^(r|w)/([0-9a-f]{64})$`)

// Handler serves st's entries over the remote protocol through st's own
// transport: GET and HEAD return the raw entry (404 on a miss), PUT
// lands one atomically. A PUT body must unseal (magic, version, lengths,
// checksum) before it lands, so a truncated upload or a stray blob is
// rejected at ingress instead of poisoning the shared store; checking
// the key stays client-side, where the key is known.
func Handler(st *Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rel, ok := strings.CutPrefix(req.URL.Path, remotePrefix)
		m := entryPath.FindStringSubmatch(rel)
		if !ok || m == nil {
			http.NotFound(w, req)
			return
		}
		loc := st.t.locate(m[1], m[2])
		switch req.Method {
		case http.MethodGet, http.MethodHead:
			blob, err := st.t.get(loc)
			if errors.Is(err, errNotFound) {
				http.NotFound(w, req)
				return
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			http.ServeContent(w, req, "", time.Time{}, bytes.NewReader(blob))
		case http.MethodPut:
			blob, err := readEntry(req.Body)
			if err == nil {
				_, _, err = snap.Unseal(blob, magic, version)
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := st.t.put(loc, blob); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// Tiered layers a local cache store over a remote one: loads hit the
// local store first and backfill it from remote hits; saves write
// through to both. Workers run with a Tiered backend so warm replays of
// cells they already fetched cost a local read, not a round trip.
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
	_ Backend = (*Tiered)(nil)
)
