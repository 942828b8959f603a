package experiment

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// cacheSubset is a small workload slice that keeps the memoization
// goldens fast while still sharing baselines across experiments.
func cacheSubset() []workload.Workload {
	var ws []workload.Workload
	for _, n := range []string{"603.bwaves_s", "605.mcf_s", "641.leela_s"} {
		ws = append(ws, workload.MustByName(n))
	}
	return ws
}

// TestRunCacheGolden is the memoization golden: an experiment rendered
// with a shared run cache must be byte-identical to the uncached run,
// and re-running an experiment that shares cells must hit the cache.
func TestRunCacheGolden(t *testing.T) {
	ws := cacheSubset()
	b := Budget{Warmup: 10_000, Detail: 40_000}
	schemes := []Scheme{SchemeSPP, SchemePPF}

	uncached := speedupStudy(Exec{}, sim.DefaultConfig(1), ws, schemes, b).Render()

	cache := NewRunCache()
	x := Exec{Cache: cache}
	cached := speedupStudy(x, sim.DefaultConfig(1), ws, schemes, b).Render()
	if cached != uncached {
		t.Fatalf("cached render diverged from uncached\nuncached:\n%s\ncached:\n%s", uncached, cached)
	}
	hits, misses := cache.Stats()
	if hits != 0 {
		t.Fatalf("first cached run should be all misses, got %d hits", hits)
	}
	if want := uint64(len(ws) * (1 + len(schemes))); misses != want {
		t.Fatalf("misses = %d, want %d (one per cell)", misses, want)
	}

	// Second sweep over the same cells: everything must come from cache
	// and the render must not change.
	again := speedupStudy(x, sim.DefaultConfig(1), ws, schemes, b).Render()
	if again != uncached {
		t.Fatal("second cached render diverged")
	}
	hits2, misses2 := cache.Stats()
	if misses2 != misses {
		t.Fatalf("second run re-simulated: misses went %d -> %d", misses, misses2)
	}
	if hits2 == 0 {
		t.Fatal("second run recorded no cache hits")
	}
}

// TestRunCacheSharedAcrossStudies: the ablation and generality cells
// that are named schemes run through the run cache, so after Figure 9's
// memory-intensive cells the full-PPF and DA-AMPM cells are hits, and
// only the cells Figure 9 never ran miss.
func TestRunCacheSharedAcrossStudies(t *testing.T) {
	b := microBudget()
	ws := sortedCopy(workload.SPEC2017MemIntensive())
	x := Exec{Cache: NewRunCache()}
	speedupStudy(x, sim.DefaultConfig(1), ws, AllSchemes(), b)
	n := len(ws)
	for _, study := range []struct {
		name         string
		run          func()
		hits, misses int
	}{
		// Baseline, SPP and full PPF hit; the single-threshold filter misses.
		{"ablation", func() { Ablation(x, b) }, 3 * n, n},
		// Baseline and DA-AMPM hit; VLDP, SMS and Sandbox miss.
		{"generality", func() { Generality(x, b) }, 2 * n, 3 * n},
	} {
		h0, m0 := x.Cache.Stats()
		study.run()
		h, m := x.Cache.Stats()
		if int(h-h0) != study.hits || int(m-m0) != study.misses {
			t.Errorf("%s: %d hits / %d misses, want %d / %d",
				study.name, h-h0, m-m0, study.hits, study.misses)
		}
	}
}

// TestRunCacheKeySensitivity pins that every cell input participates in
// the key: changing any one of (config, scheme, workload, seed, budget)
// must miss rather than alias another cell's result.
func TestRunCacheKeySensitivity(t *testing.T) {
	w := workload.MustByName("641.leela_s")
	cfg := sim.DefaultConfig(1)
	b := Budget{Warmup: 1_000, Detail: 2_000}
	base := cellKey(cfg, SchemeSPP, w, 1, b)

	small := cfg
	small.LLC.SizeBytes = 512 << 10
	b2 := b
	b2.Detail = 4_000
	variants := map[string]string{
		"config":   cellKey(small, SchemeSPP, w, 1, b),
		"scheme":   cellKey(cfg, SchemePPF, w, 1, b),
		"workload": cellKey(cfg, SchemeSPP, workload.MustByName("605.mcf_s"), 1, b),
		"seed":     cellKey(cfg, SchemeSPP, w, 2, b),
		"budget":   cellKey(cfg, SchemeSPP, w, 1, b2),
	}
	for what, k := range variants {
		if k == base {
			t.Errorf("changing %s did not change the cell key", what)
		}
	}
	if k := cellKey(cfg, SchemeSPP, w, 1, b); k != base {
		t.Error("identical inputs produced different keys")
	}
}

// TestRunCacheClones verifies callers get defensive copies: mutating a
// returned result must not corrupt what later callers observe.
func TestRunCacheClones(t *testing.T) {
	w := workload.MustByName("641.leela_s")
	b := Budget{Warmup: 2_000, Detail: 5_000}
	x := Exec{Cache: NewRunCache()}

	first := x.RunSingle(sim.DefaultConfig(1), SchemePPF, w, 1, b)
	wantIPC := first.PerCore[0].IPC
	wantInf := first.PerCore[0].Filter.Inferences
	first.PerCore[0].IPC = -1
	first.PerCore[0].Filter.Inferences = 0

	second := x.RunSingle(sim.DefaultConfig(1), SchemePPF, w, 1, b)
	if second.PerCore[0].IPC != wantIPC {
		t.Fatalf("cached IPC corrupted by caller mutation: %v != %v", second.PerCore[0].IPC, wantIPC)
	}
	if second.PerCore[0].Filter.Inferences != wantInf {
		t.Fatal("cached Filter stats aliased across callers")
	}
	if hits, _ := x.Cache.Stats(); hits != 1 {
		t.Fatalf("second RunSingle was not a cache hit (hits=%d)", hits)
	}
}
