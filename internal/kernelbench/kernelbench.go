// Package kernelbench defines the micro-benchmarks of the simulator's
// per-access hot kernels: the PPF filter decide+train cycle, cache read
// hit/miss servicing, prefetch servicing in a saturated hierarchy, and
// the SPP trigger path. The bodies live here so
// the same code runs both under `go test -bench` (via the Benchmark*
// wrappers in the repository root) and under cmd/bench, which executes
// them with testing.Benchmark and emits BENCH_kernel.json — the perf
// trajectory of the simulation kernel across PRs.
package kernelbench

import (
	"os"
	"testing"
	"time"

	"repro/internal/cache"
	ppf "repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/simstore"
	"repro/internal/workload"
)

// FilterDecideTrain measures one full PPF event: score a candidate,
// record the issue, then train from the demand hit — the sequence the
// simulator runs for every accepted prefetch that proves useful.
func FilterDecideTrain(b *testing.B) {
	f := ppf.New(ppf.DefaultConfig())
	in := ppf.FeatureInput{
		Addr: 0x1000000, PC: 0x400123,
		PCHist: [3]uint64{0x400100, 0x400200, 0x400300},
		Depth:  2, Signature: 0xABC, Confidence: 60, Delta: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Addr += 64
		d := f.Decide(&in)
		if d == ppf.Drop {
			f.RecordReject(&in)
			continue
		}
		f.RecordIssue(&in, d)
		f.OnDemand(in.Addr)
	}
}

// fixedLevel is a constant-latency memory backing the cache benchmarks.
type fixedLevel struct{ latency uint64 }

func (m fixedLevel) Read(_ uint64, at uint64) uint64 { return at + m.latency }
func (m fixedLevel) Write(uint64, uint64)            {}

func benchCache() *cache.Cache {
	return cache.MustNew(cache.Config{
		Name: "bench", SizeBytes: 512 << 10, Ways: 8, HitLatency: 10, MSHRs: 48,
	}, fixedLevel{latency: 200})
}

// CacheReadHit measures the demand-read hit path: tag lookup, LRU touch,
// and the in-flight-fill merge scan.
func CacheReadHit(b *testing.B) {
	c := benchCache()
	const blocks = 512 // fits easily in the 8K-block cache
	for i := 0; i < blocks; i++ {
		c.Read(uint64(i)<<cache.BlockBits, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%blocks)<<cache.BlockBits, uint64(i))
	}
}

// CacheReadMiss measures the demand-read miss path: victim selection,
// eviction bookkeeping, MSHR reserve/commit, and insertion.
func CacheReadMiss(b *testing.B) {
	c := benchCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh block every access: always a miss once the cache warms.
		c.Read(uint64(i)<<cache.BlockBits, uint64(i)<<8)
	}
}

// CacheReadMiss256 measures a demand miss into a 256-slot MSHR file,
// the 4-core LLC's size, with about a quarter of it in flight: each
// miss completes 256 cycles after it issues and one issues every 4
// cycles, so the fills of the last 64 misses are outstanding and one
// expires per access. Unlike cache_read_miss, whose file is always
// quiescent, every reserve here must find the expired slot.
func CacheReadMiss256(b *testing.B) {
	c := cache.MustNew(cache.Config{
		Name: "bench256", SizeBytes: 512 << 10, Ways: 8, HitLatency: 10, MSHRs: 256,
	}, fixedLevel{latency: 246})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i)<<cache.BlockBits, uint64(i)*4)
	}
}

// CachePrefetchSaturated measures one prefetch of a fresh block into a
// saturated hierarchy: an L2 (48 MSHRs) over an LLC (64), both over
// three-quarters full of fills that do not complete within the run. The
// L2 has no prefetch headroom and demotes the prefetch; the LLC has none
// either and squashes it. Most candidates of the unthrottled SPP under
// PPF take this path.
func CachePrefetchSaturated(b *testing.B) {
	llc := cache.MustNew(cache.Config{
		Name: "llc", SizeBytes: 2 << 20, Ways: 16, HitLatency: 24, MSHRs: 64,
	}, fixedLevel{latency: 1 << 40})
	l2 := cache.MustNew(cache.Config{
		Name: "l2", SizeBytes: 512 << 10, Ways: 8, HitLatency: 10, MSHRs: 48,
	}, llc)
	// Prefetches fill the L2 file to its prefetch limit (36 of 48 slots)
	// and, through the L2's fills and demotions, the LLC file to its own
	// (48 of 64); four demand misses then take both over it.
	var addr uint64
	for i := 0; i < 64; i++ {
		l2.Prefetch(addr, 0, true, 0)
		addr += cache.BlockSize
	}
	for i := 0; i < 4; i++ {
		l2.Read(addr, 0)
		addr += cache.BlockSize
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2.Prefetch(addr, uint64(i), true, 0)
		addr += cache.BlockSize
	}
}

// SPPTrigger measures the prefetcher trigger path: one L2 demand access
// through SPP's signature/pattern tables with burst candidate hand-off
// — the OnDemandBatch path the simulator drives. The accept-all sink
// stands in for a downstream that takes every candidate.
func SPPTrigger(b *testing.B) {
	s := prefetch.NewSPP(prefetch.DefaultSPPConfig())
	sink := acceptAllSink()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%4096) << 6
		s.OnDemandBatch(prefetch.Access{PC: 0x400, Addr: addr}, sink)
	}
}

// acceptAllSink returns a BatchSink that accepts every candidate.
func acceptAllSink() prefetch.BatchSink {
	return func(_ []prefetch.Candidate, accepted []bool) {
		for i := range accepted {
			accepted[i] = true
		}
	}
}

// SPPLookaheadOnly measures the speculative pattern-table walk in
// isolation: the tables are trained once on the same stride-1 stream
// SPPTrigger uses, then each operation probes the current state through
// SPP.Lookahead — no training, no signature advance. The spp_trigger
// minus spp_lookahead_only gap is the table-maintenance cost.
func SPPLookaheadOnly(b *testing.B) {
	s := prefetch.NewSPP(prefetch.DefaultSPPConfig())
	sink := acceptAllSink()
	for i := 0; i < 4096; i++ {
		addr := uint64(i%4096) << 6
		s.OnDemandBatch(prefetch.Access{PC: 0x400, Addr: addr}, sink)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%4096) << 6
		s.Lookahead(prefetch.Access{PC: 0x400, Addr: addr}, sink)
	}
}

// SimCell describes one end-to-end sim-rate measurement: a fixed
// workload per core under a named scheme, optionally forced onto the
// legacy +1 cycle loop, optionally requested repeatedly through a run
// cache, optionally routed through a persistent sim store. These are
// the rows of BENCH_sim.json.
type SimCell struct {
	// Name labels the row in BENCH_sim.json.
	Name string
	// Scheme is an experiment scheme name ("none", "spp", "ppf").
	Scheme string
	// Workloads names the simulated benchmark of each core; the machine
	// has one core per name. MemoRuns and StoreMode cells are
	// single-core.
	Workloads []string
	// Seeds holds each core's trace seed; nil means seed 1 on every core.
	Seeds []uint64
	// LegacyLoop forces the pre-event-horizon one-cycle-at-a-time loop,
	// so paired rows isolate the cycle-skipping speedup.
	LegacyLoop bool
	// MemoRuns > 1 requests the cell that many times through a fresh run
	// cache: one real simulation plus MemoRuns-1 cached replays. The
	// returned instruction count includes the replayed work, so the rate
	// is the effective throughput a duplicated suite cell sees.
	MemoRuns int
	// StoreMode routes the cell through a persistent sim store in a
	// temporary directory: "cold" measures a first invocation (simulate
	// plus entry writes), "warm" measures a repeat invocation against the
	// already-populated store (stored-result replay). Paired rows bound
	// the store's write overhead and read speedup.
	StoreMode string
}

// SimCellMetrics is one RunDetailed measurement: the simulated (or
// replayed) instruction count, the elapsed wall time, and — for
// store-backed cells — the persistent store's traffic counters.
type SimCellMetrics struct {
	Instructions uint64
	Elapsed      time.Duration
	// Store traffic for StoreMode cells (zero otherwise).
	StoreResultHits     uint64
	StoreResultMisses   uint64
	StoreSnapshotHits   uint64
	StoreSnapshotMisses uint64
}

// DefaultSimCells returns the standard BENCH_sim.json row set: the
// Figure 9 PPF cell plus SPP and no-prefetch variants, each with the
// event-horizon and legacy loops, the memoized effective rate for the
// duplicated-cell case (Figure 10 re-requests every Figure 9 cell),
// the persistent-store cold/warm pair bounding the disk cache's write
// overhead and replay speedup, and the first Figure 11 mix without
// prefetching, where four cores contend for the shared LLC and DRAM.
func DefaultSimCells() []SimCell {
	wl := []string{"603.bwaves_s"}
	mix, mixSeeds := experiment.Mix(workload.SPEC2017MemIntensive(), 4, 0)
	return []SimCell{
		{Name: "fig9_ppf_skip", Scheme: "ppf", Workloads: wl},
		{Name: "fig9_ppf_legacy", Scheme: "ppf", Workloads: wl, LegacyLoop: true},
		{Name: "fig9_spp_skip", Scheme: "spp", Workloads: wl},
		{Name: "fig9_spp_legacy", Scheme: "spp", Workloads: wl, LegacyLoop: true},
		{Name: "fig9_none_skip", Scheme: "none", Workloads: wl},
		{Name: "fig9_none_legacy", Scheme: "none", Workloads: wl, LegacyLoop: true},
		{Name: "fig9_ppf_memoized_x2", Scheme: "ppf", Workloads: wl, MemoRuns: 2},
		{Name: "fig9_ppf_coldstore", Scheme: "ppf", Workloads: wl, StoreMode: "cold"},
		{Name: "fig9_ppf_warmstore", Scheme: "ppf", Workloads: wl, StoreMode: "warm"},
		{Name: "mix4_none_skip", Scheme: "none", Workloads: workload.Names(mix), Seeds: mixSeeds},
	}
}

// seed returns core i's trace seed.
func (c SimCell) seed(i int) uint64 {
	if c.Seeds == nil {
		return 1
	}
	return c.Seeds[i]
}

// Run executes the cell at the given budget and returns the simulated
// instruction count over all cores (including warmup — it is simulated
// work too, and including cached replays for MemoRuns > 1 or a warm
// store) and the elapsed wall time.
func (c SimCell) Run(warmup, detail uint64) (instructions uint64, elapsed time.Duration) {
	m := c.RunDetailed(warmup, detail)
	return m.Instructions, m.Elapsed
}

// RunDetailed executes the cell at the given budget and returns the
// full measurement, including persistent-store traffic for StoreMode
// cells.
func (c SimCell) RunDetailed(warmup, detail uint64) SimCellMetrics {
	scheme := experiment.Scheme(c.Scheme)
	b := experiment.Budget{Warmup: warmup, Detail: detail}
	if c.StoreMode != "" {
		return c.runStore(scheme, workload.MustByName(c.Workloads[0]), b)
	}
	if c.MemoRuns > 1 {
		w := workload.MustByName(c.Workloads[0])
		x := experiment.Exec{Workers: 1, Cache: experiment.NewRunCache()}
		var instructions uint64
		start := time.Now()
		for i := 0; i < c.MemoRuns; i++ {
			res := x.RunSingle(sim.DefaultConfig(1), scheme, w, c.seed(0), b)
			instructions += warmup + res.PerCore[0].Instructions
		}
		return SimCellMetrics{Instructions: instructions, Elapsed: time.Since(start)}
	}
	setups := make([]sim.CoreSetup, len(c.Workloads))
	for i, name := range c.Workloads {
		setups[i] = experiment.NewSetup(scheme, workload.MustByName(name), c.seed(i))
	}
	sys, err := sim.NewSystem(sim.DefaultConfig(len(setups)), setups)
	if err != nil {
		panic(err)
	}
	sys.SetLegacyLoop(c.LegacyLoop)
	start := time.Now()
	res := sys.Run(b.Warmup, b.Detail)
	elapsed := time.Since(start)
	var instructions uint64
	for _, pc := range res.PerCore {
		instructions += warmup + pc.Instructions
	}
	return SimCellMetrics{Instructions: instructions, Elapsed: elapsed}
}

// runStore measures one invocation against a persistent sim store in a
// fresh temporary directory. "cold" times the first request — the full
// simulation plus snapshot/result entry writes. "warm" first populates
// the store untimed, then times a second invocation through a fresh
// RunCache over the same directory, which replays the stored result.
func (c SimCell) runStore(scheme experiment.Scheme, w workload.Workload, b experiment.Budget) SimCellMetrics {
	dir, err := os.MkdirTemp("", "simstore-bench-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if c.StoreMode == "warm" {
		prime, err := simstore.Open(dir)
		if err != nil {
			panic(err)
		}
		rc := experiment.NewRunCache()
		rc.AttachStore(prime)
		x := experiment.Exec{Workers: 1, Cache: rc}
		x.RunSingle(sim.DefaultConfig(1), scheme, w, c.seed(0), b)
	}
	st, err := simstore.Open(dir)
	if err != nil {
		panic(err)
	}
	rc := experiment.NewRunCache()
	rc.AttachStore(st)
	x := experiment.Exec{Workers: 1, Cache: rc}
	start := time.Now()
	res := x.RunSingle(sim.DefaultConfig(1), scheme, w, c.seed(0), b)
	elapsed := time.Since(start)
	s := st.Stats()
	return SimCellMetrics{
		Instructions:        b.Warmup + res.PerCore[0].Instructions,
		Elapsed:             elapsed,
		StoreResultHits:     s.ResultHits,
		StoreResultMisses:   s.ResultMisses,
		StoreSnapshotHits:   s.SnapshotHits,
		StoreSnapshotMisses: s.SnapshotMisses,
	}
}
