package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/simstore"
	"repro/internal/workload"
)

// tempStore opens a disk store in a fresh directory and returns it
// with that directory, which openStore reopens.
func tempStore(t *testing.T) (*simstore.Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "simcache")
	return openStore(t, dir), dir
}

func openStore(t *testing.T, dir string) *simstore.Store {
	t.Helper()
	st, err := simstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func resultsEqual(a, b sim.Result) bool { return reflect.DeepEqual(a, b) }

// corruptAll flips one byte in every entry file under the store root.
func corruptAll(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)/2] ^= 0x40
		n++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil || n == 0 {
		t.Fatalf("corrupting store (%d files): %v", n, err)
	}
}

// TestDiskCacheGolden is the persistent-store golden: an experiment
// rendered against a cold disk store, then re-rendered by a fresh
// process-equivalent (new RunCache, same store directory), must be
// byte-identical to the storeless run — first via snapshot-resumed
// simulations, then via decoded stored results.
func TestDiskCacheGolden(t *testing.T) {
	ws := cacheSubset()
	b := Budget{Warmup: 10_000, Detail: 40_000}
	schemes := []Scheme{SchemeSPP, SchemePPF}
	cells := uint64(len(ws) * (1 + len(schemes)))

	want := speedupStudy(Exec{}, sim.DefaultConfig(1), ws, schemes, b).Render()

	st, dir := tempStore(t)
	cold := NewRunCache()
	cold.AttachStore(st)
	got := speedupStudy(Exec{Cache: cold}, sim.DefaultConfig(1), ws, schemes, b).Render()
	if got != want {
		t.Fatalf("cold-store render diverged from storeless\nwant:\n%s\ngot:\n%s", want, got)
	}
	cs := st.Stats()
	if cs.ResultHits != 0 || cs.ResultMisses != cells {
		t.Fatalf("cold run store stats = %+v, want %d result misses and no hits", cs, cells)
	}
	if cs.SnapshotHits != 0 || cs.SnapshotMisses != cells {
		t.Fatalf("cold run snapshot stats = %+v, want %d misses and no hits", cs, cells)
	}

	// "Second invocation": a fresh in-memory cache over the same store
	// directory. Every cell must be served from stored results.
	st2 := openStore(t, dir)
	warm := NewRunCache()
	warm.AttachStore(st2)
	got2 := speedupStudy(Exec{Cache: warm}, sim.DefaultConfig(1), ws, schemes, b).Render()
	if got2 != want {
		t.Fatalf("warm-store render diverged from storeless\nwant:\n%s\ngot:\n%s", want, got2)
	}
	ws2 := st2.Stats()
	if ws2.ResultHits != cells || ws2.ResultMisses != 0 {
		t.Fatalf("warm run store stats = %+v, want %d result hits and no misses", ws2, cells)
	}
}

// TestDiskCacheSnapshotResume pins layer 2 on its own: a cell that
// misses the result store but shares a warmup prefix with an earlier
// cell must resume from the stored snapshot and produce a result
// byte-identical to a cold simulation of the full budget.
func TestDiskCacheSnapshotResume(t *testing.T) {
	w := workload.MustByName("605.mcf_s")
	cfg := sim.DefaultConfig(1)
	short := Budget{Warmup: 10_000, Detail: 5_000}
	long := Budget{Warmup: 10_000, Detail: 20_000}

	st, _ := tempStore(t)
	rc := NewRunCache()
	rc.AttachStore(st)
	x := Exec{Cache: rc}
	x.RunSingle(cfg, SchemePPF, w, 1, short) // seeds the warmup snapshot

	resumed := x.RunSingle(cfg, SchemePPF, w, 1, long)
	if got := st.Stats(); got.SnapshotHits != 1 {
		t.Fatalf("long cell did not resume from the stored snapshot: %+v", got)
	}

	cold := Exec{Cache: NewRunCache()}.RunSingle(cfg, SchemePPF, w, 1, long)
	if !resultsEqual(resumed, cold) {
		t.Fatalf("snapshot-resumed result diverged from cold\ncold:    %+v\nresumed: %+v", cold, resumed)
	}
}

// TestDiskCacheCorruptEntryRecovers pins the end-to-end corruption
// story: with every stored entry bit-flipped, the cached path must
// still return correct results (by re-simulating) and must leave valid
// rewritten entries behind.
func TestDiskCacheCorruptEntryRecovers(t *testing.T) {
	w := workload.MustByName("641.leela_s")
	cfg := sim.DefaultConfig(1)
	b := Budget{Warmup: 5_000, Detail: 10_000}

	st, dir := tempStore(t)
	rc := NewRunCache()
	rc.AttachStore(st)
	want := Exec{Cache: rc}.RunSingle(cfg, SchemePPF, w, 1, b)

	corruptAll(t, dir)

	st2 := openStore(t, dir)
	rc2 := NewRunCache()
	rc2.AttachStore(st2)
	got := Exec{Cache: rc2}.RunSingle(cfg, SchemePPF, w, 1, b)
	if !resultsEqual(want, got) {
		t.Fatal("corrupt store changed a result instead of falling back to simulation")
	}
	if s := st2.Stats(); s.Corrupt == 0 {
		t.Fatalf("corrupted entries were not detected: %+v", s)
	}

	// The fallback rewrote the entries: a third cache over the same
	// directory must now hit cleanly.
	st3 := openStore(t, dir)
	rc3 := NewRunCache()
	rc3.AttachStore(st3)
	got3 := Exec{Cache: rc3}.RunSingle(cfg, SchemePPF, w, 1, b)
	if !resultsEqual(want, got3) {
		t.Fatal("rewritten entry served a wrong result")
	}
	if s := st3.Stats(); s.ResultHits != 1 || s.Corrupt != 0 {
		t.Fatalf("rewritten entries did not serve hits: %+v", s)
	}
}

// TestDiskCacheNoWarmupSkipsSnapshots pins that zero-warmup cells do
// not touch the snapshot layer (there is no warmup state to share).
func TestDiskCacheNoWarmupSkipsSnapshots(t *testing.T) {
	w := workload.MustByName("641.leela_s")
	st, _ := tempStore(t)
	rc := NewRunCache()
	rc.AttachStore(st)
	Exec{Cache: rc}.RunSingle(sim.DefaultConfig(1), SchemeNone, w, 1, Budget{Warmup: 0, Detail: 5_000})
	if s := st.Stats(); s.SnapshotHits+s.SnapshotMisses != 0 {
		t.Fatalf("zero-warmup cell consulted the snapshot layer: %+v", s)
	}
}
