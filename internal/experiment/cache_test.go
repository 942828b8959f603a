package experiment

import (
	"reflect"
	"slices"
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

// TestRunCacheSharedAcrossStudies: every ablation and generality cell
// runs through the run cache, so after Figure 9's memory-intensive cells
// the baseline, SPP, full-PPF and DA-AMPM cells are hits, and only the
// cells Figure 9 never ran miss.
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
		// Baseline, SPP and full PPF hit; the 9 leave-one-out filters and
		// the single-threshold filter miss.
		{"ablation", func() { Ablation(x, b) }, 3 * n, 10 * n},
		// Baseline and DA-AMPM hit; VLDP, SMS, Sandbox, next-line(4),
		// stride(4), bop(2) and all 7 filtered engines miss.
		{"generality", func() { Generality(x, b) }, 2 * n, 13 * n},
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
// the key: changing any one of (config, scheme, a core's workload or
// seed, the core count, budget) must miss rather than alias another
// cell's result.
func TestRunCacheKeySensitivity(t *testing.T) {
	w, w2 := workload.MustByName("641.leela_s"), workload.MustByName("605.mcf_s")
	base := CellSpec{
		Config: sim.DefaultConfig(2),
		Scheme: SchemeSPP,
		Cores:  []CoreSpec{coreSpec(w, 1), coreSpec(w2, 2)},
		Budget: Budget{Warmup: 1_000, Detail: 2_000},
	}
	variant := func(edit func(*CellSpec)) string {
		c := base
		c.Cores = slices.Clone(base.Cores)
		edit(&c)
		return c.Key()
	}
	variants := map[string]string{
		"config":                 variant(func(c *CellSpec) { c.Config.LLC.SizeBytes = 512 << 10 }),
		"scheme":                 variant(func(c *CellSpec) { c.Scheme = SchemePPF }),
		"workload":               variant(func(c *CellSpec) { c.Cores[0] = coreSpec(w2, 1) }),
		"seed":                   variant(func(c *CellSpec) { c.Cores[0].Seed = 2 }),
		"budget":                 variant(func(c *CellSpec) { c.Budget.Detail = 4_000 }),
		"core count":             variant(func(c *CellSpec) { c.Config.Cores, c.Cores = 1, c.Cores[:1] }),
		"second core's workload": variant(func(c *CellSpec) { c.Cores[1] = coreSpec(w, 2) }),
		"second core's seed":     variant(func(c *CellSpec) { c.Cores[1].Seed = 3 }),
	}
	for what, k := range variants {
		if k == base.Key() {
			t.Errorf("changing %s did not change the cell key", what)
		}
	}
	if variant(func(*CellSpec) {}) != base.Key() {
		t.Error("identical inputs produced different keys")
	}
}

// TestCellKeyBytes pins the key bytes. A 1-core key is byte for byte the
// key stores written before cells had N cores hold, so those entries
// stay hits; an N-core key appends each further core's |suite/name|seed
// before |warmup=, and Mix pins each core's workload and seed.
func TestCellKeyBytes(t *testing.T) {
	b := Budget{Warmup: 1_000, Detail: 2_000}
	one := NewCellSpec(sim.DefaultConfig(1), SchemePPF, workload.MustByName("605.mcf_s"), 1, b)
	const want1 = `sim.Config{Cores:1, FetchWidth:4, RetireWidth:4, ROBSize:256, MispredictPenalty:0xf, ` +
		`L1I:cache.Config{Name:"L1I", SizeBytes:32768, Ways:8, HitLatency:0x1, MSHRs:8}, ` +
		`L1D:cache.Config{Name:"L1D", SizeBytes:32768, Ways:8, HitLatency:0x4, MSHRs:24}, ` +
		`L2:cache.Config{Name:"L2", SizeBytes:524288, Ways:8, HitLatency:0xa, MSHRs:48}, ` +
		`LLC:cache.Config{Name:"LLC", SizeBytes:2097152, Ways:16, HitLatency:0x18, MSHRs:64}, ` +
		`DRAM:dram.Config{Channels:1, BanksPerChannel:8, RowBytes:0x2000, TransferCycles:0x14, RowHitLatency:0x37, ` +
		`RowMissLatency:0xa5, ControllerLatency:0xf, BankBusyHit:0x8, BankBusyMiss:0x6e}}` +
		`|ppf|spec2017/605.mcf_s|seed=1|warmup=1000|detail=2000`
	if got := one.Key(); got != want1 {
		t.Errorf("1-core key\n got %s\nwant %s", got, want1)
	}
	four := CellSpec{Config: sim.DefaultConfig(4), Scheme: SchemeNone, Cores: Mix(workload.SPEC2017MemIntensive(), 4, 1), Budget: b}
	const want4 = `sim.Config{Cores:4, FetchWidth:4, RetireWidth:4, ROBSize:256, MispredictPenalty:0xf, ` +
		`L1I:cache.Config{Name:"L1I", SizeBytes:32768, Ways:8, HitLatency:0x1, MSHRs:8}, ` +
		`L1D:cache.Config{Name:"L1D", SizeBytes:32768, Ways:8, HitLatency:0x4, MSHRs:24}, ` +
		`L2:cache.Config{Name:"L2", SizeBytes:524288, Ways:8, HitLatency:0xa, MSHRs:48}, ` +
		`LLC:cache.Config{Name:"LLC", SizeBytes:8388608, Ways:16, HitLatency:0x18, MSHRs:256}, ` +
		`DRAM:dram.Config{Channels:1, BanksPerChannel:8, RowBytes:0x2000, TransferCycles:0x14, RowHitLatency:0x37, ` +
		`RowMissLatency:0xa5, ControllerLatency:0xf, BankBusyHit:0x8, BankBusyMiss:0x6e}}` +
		`|none|spec2017/654.roms_s|seed=1000020|spec2017/619.lbm_s|seed=1007939` +
		`|spec2017/654.roms_s|seed=1015858|spec2017/603.bwaves_s|seed=1023777|warmup=1000|detail=2000`
	if got := four.Key(); got != want4 {
		t.Errorf("4-core key\n got %s\nwant %s", got, want4)
	}
}

// TestRunCacheClones verifies callers get defensive copies: mutating a
// returned result must not corrupt what later callers observe.
func TestRunCacheClones(t *testing.T) {
	w := workload.MustByName("641.leela_s")
	b := Budget{Warmup: 2_000, Detail: 5_000}
	x := Exec{Cache: NewRunCache()}

	spec := NewCellSpec(sim.DefaultConfig(1), SchemePPF, w, 1, b)
	first := x.Run(spec)
	wantIPC := first.PerCore[0].IPC
	wantInf := first.PerCore[0].Filter.Inferences
	first.PerCore[0].IPC = -1
	first.PerCore[0].Filter.Inferences = 0

	second := x.Run(spec)
	if second.PerCore[0].IPC != wantIPC {
		t.Fatalf("cached IPC corrupted by caller mutation: %v != %v", second.PerCore[0].IPC, wantIPC)
	}
	if second.PerCore[0].Filter.Inferences != wantInf {
		t.Fatal("cached Filter stats aliased across callers")
	}
	if hits, _ := x.Cache.Stats(); hits != 1 {
		t.Fatalf("second Run was not a cache hit (hits=%d)", hits)
	}
}

// TestDecodeCellSpec: a spec survives the wire with its key, and
// DecodeCellSpec refuses, as an error, every spec this build cannot run
// as described.
func TestDecodeCellSpec(t *testing.T) {
	b := Budget{Warmup: 1_000, Detail: 2_000}
	one := NewCellSpec(sim.DefaultConfig(1), "bop[degree=2,filter=ppf]", workload.MustByName("605.mcf_s"), 1, b)
	four := CellSpec{Config: sim.DefaultConfig(4), Scheme: SchemePPF, Cores: Mix(workload.SPEC2017(), 4, 3), Budget: b}
	for _, spec := range []CellSpec{one, four} {
		enc, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeCellSpec(enc)
		if err != nil || !reflect.DeepEqual(got, spec) || got.Key() != spec.Key() {
			t.Fatalf("round trip of %s: %+v, %v", spec.Key(), got, err)
		}
	}

	encode := func(edit func(*CellSpec)) []byte {
		c := one
		c.Cores = slices.Clone(one.Cores)
		edit(&c)
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	valid := encode(func(*CellSpec) {})
	for name, data := range map[string][]byte{
		"unknown field":    append([]byte(`{"extra":1,`), valid[1:]...),
		"trailing data":    append(slices.Clone(valid), `{}`...),
		"bad config":       encode(func(c *CellSpec) { c.Config.FetchWidth = 0 }),
		"core count":       encode(func(c *CellSpec) { c.Config.Cores = 2 }),
		"no cores":         encode(func(c *CellSpec) { c.Config.Cores, c.Cores = 0, nil }),
		"unknown workload": encode(func(c *CellSpec) { c.Cores[0].Workload = "no-such-workload" }),
		"wrong suite":      encode(func(c *CellSpec) { c.Cores[0].Suite = workload.CloudSuiteSuite }),
		"unknown scheme":   encode(func(c *CellSpec) { c.Scheme = "bop[degree=+2]" }),
	} {
		if _, err := DecodeCellSpec(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
