// Package kernelbench produces the kernel and sim rows of
// BENCH_layers.json. The kernel rows are micro-benchmarks of the
// simulator's per-access hot paths: the PPF filter decide+train cycle,
// cache read hit/miss servicing, prefetch servicing in a saturated
// hierarchy, and the SPP trigger path. Their bodies live here so the
// same code runs under `go test -bench` (the BenchmarkKernel* wrappers
// in the repository root) and under cmd/bench. The sim rows time fixed
// single-core Figure 9 cells end to end.
package kernelbench

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/cache"
	ppf "repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/simstore"
	"repro/internal/stats"
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

// kernels lists the micro-benchmarks KernelRows measures, by row name.
var kernels = []struct {
	name string
	fn   func(*testing.B)
}{
	{"filter_decide_train", FilterDecideTrain},
	{"cache_read_hit", CacheReadHit},
	{"cache_read_miss", CacheReadMiss},
	{"cache_read_miss_256", CacheReadMiss256},
	{"cache_prefetch_saturated", CachePrefetchSaturated},
	{"spp_trigger", SPPTrigger},
	{"spp_lookahead_only", SPPLookaheadOnly},
}

// KernelRows runs each kernel once under testing.Benchmark, the ~1 s
// auto-scaling harness, and returns its ns/op and allocs/op rows. The
// kernels run allocation-free, so an allocs/op baseline of 0 fails the
// gate on any allocation.
func KernelRows() []stats.Row {
	rows := make([]stats.Row, 0, 2*len(kernels))
	for _, k := range kernels {
		r := testing.Benchmark(k.fn)
		rows = append(rows,
			stats.Row{Layer: stats.LayerKernel, Name: k.name, Unit: "ns/op", Better: stats.Lower,
				Value: float64(r.T.Nanoseconds()) / float64(r.N)},
			stats.Row{Layer: stats.LayerKernel, Name: k.name, Unit: "allocs/op", Better: stats.Lower,
				Value: float64(r.AllocsPerOp())})
	}
	return rows
}

// The sim rows run one core on 603.bwaves_s at trace seed 1, at the
// Figure 9 budget.
const (
	simWorkload = "603.bwaves_s"
	simWarmup   = 200_000
	simDetail   = 1_000_000
)

// simCell is one sim row: the cell under a scheme, optionally
// requested repeatedly through a run cache, or routed through a
// persistent sim store.
type simCell struct {
	name   string
	scheme experiment.Scheme
	// memoRuns > 1 requests the cell that many times through a fresh
	// run cache: one simulation plus memoRuns-1 replays, all counted, so
	// the rate is the effective throughput a duplicated suite cell sees.
	memoRuns int
	// storeMode "cold" times a first request against an empty store
	// (simulation plus entry writes), "warm" a repeat request replaying
	// the stored result.
	storeMode string
}

// simCells are the sim rows. perfbench's ppf-1c and mix4-nopf measure
// the PPF cell and a 4-core mix end to end, so these keep what it does
// not: the production loop under SPP and no prefetching, the memoized
// effective rate, and cold against warm store replay. How many tick
// rounds the event-horizon loop skips on this cell is pinned by
// internal/sim's TestSkipActuallySkips, not timed here: the skip and
// legacy rates differ by less than their run-to-run spread.
var simCells = []simCell{
	{name: "fig9_spp_skip", scheme: experiment.SchemeSPP},
	{name: "fig9_none_skip", scheme: experiment.SchemeNone},
	{name: "fig9_ppf_memoized_x2", scheme: experiment.SchemePPF, memoRuns: 2},
	{name: "fig9_ppf_coldstore", scheme: experiment.SchemePPF, storeMode: "cold"},
	{name: "fig9_ppf_warmstore", scheme: experiment.SchemePPF, storeMode: "warm"},
}

// SimRows runs each sim cell once and returns its simulated
// instructions per wall second. The count includes warmup, which is
// simulated work too, and the replays of memoized and warm-store cells.
// An error names its row.
func SimRows() ([]stats.Row, error) {
	params := fmt.Sprintf("%s seed=1 warmup=%d detail=%d", simWorkload, simWarmup, simDetail)
	rows := make([]stats.Row, 0, len(simCells))
	for _, c := range simCells {
		instructions, elapsed, err := c.run()
		if err != nil {
			return nil, fmt.Errorf("sim row %s: %w", c.name, err)
		}
		rows = append(rows, stats.Row{Layer: stats.LayerSim, Name: c.name, Params: params,
			Unit: "instr/s", Better: stats.Higher, Value: float64(instructions) / elapsed.Seconds()})
	}
	return rows, nil
}

// run executes the cell and returns the instructions it simulated or
// replayed and the elapsed wall time.
func (c simCell) run() (uint64, time.Duration, error) {
	w := workload.MustByName(simWorkload)
	b := experiment.Budget{Warmup: simWarmup, Detail: simDetail}
	if c.storeMode != "" {
		return c.runStore(w, b)
	}
	if c.memoRuns > 1 {
		x := experiment.Exec{Workers: 1, Cache: experiment.NewRunCache()}
		var instructions uint64
		start := time.Now()
		for i := 0; i < c.memoRuns; i++ {
			res := x.Run(experiment.NewCellSpec(sim.DefaultConfig(1), c.scheme, w, 1, b))
			instructions += b.Warmup + res.PerCore[0].Instructions
		}
		return instructions, time.Since(start), nil
	}
	sys, err := sim.NewSystem(sim.DefaultConfig(1), []sim.CoreSetup{experiment.NewSetup(c.scheme, w, 1)})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	res := sys.Run(b.Warmup, b.Detail)
	return b.Warmup + res.PerCore[0].Instructions, time.Since(start), nil
}

// runStore times one request against a persistent sim store in a fresh
// temporary directory, through a fresh run cache. A warm cell first
// populates the store untimed.
func (c simCell) runStore(w workload.Workload, b experiment.Budget) (uint64, time.Duration, error) {
	dir, err := os.MkdirTemp("", "simstore-bench-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	request := func() (sim.Result, time.Duration, simstore.Stats, error) {
		st, err := simstore.Open(dir)
		if err != nil {
			return sim.Result{}, 0, simstore.Stats{}, err
		}
		rc := experiment.NewRunCache()
		rc.AttachStore(st)
		x := experiment.Exec{Workers: 1, Cache: rc}
		start := time.Now()
		res := x.Run(experiment.NewCellSpec(sim.DefaultConfig(1), c.scheme, w, 1, b))
		return res, time.Since(start), st.Stats(), nil
	}
	if c.storeMode == "warm" {
		if _, _, _, err := request(); err != nil {
			return 0, 0, err
		}
	}
	res, elapsed, st, err := request()
	if err != nil {
		return 0, 0, err
	}
	if err := checkStore(c.storeMode, st); err != nil {
		return 0, 0, err
	}
	return b.Warmup + res.PerCore[0].Instructions, elapsed, nil
}

// checkStore is the store rows' producer check: a cold request misses
// both store layers, the result and the post-warmup snapshot, and a
// warm one replays the stored result.
func checkStore(mode string, st simstore.Stats) error {
	want := simstore.Stats{ResultHits: 1}
	if mode == "cold" {
		want = simstore.Stats{ResultMisses: 1, SnapshotMisses: 1}
	}
	if st != want {
		return fmt.Errorf("%s store request saw %+v, want %+v", mode, st, want)
	}
	return nil
}
