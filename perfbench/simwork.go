package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/experiment"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simCell is one machine a simulator workload builds and runs.
type simCell struct {
	label  string
	scheme experiment.Scheme
	apps   []workload.Workload // one per core
	seeds  []uint64            // trace seed per core
	budget experiment.Budget
}

// insts is the simulated instruction count of the cell: warmup plus
// detail, on every core.
func (c simCell) insts() uint64 {
	return (c.budget.Warmup + c.budget.Detail) * uint64(len(c.apps))
}

// streamSeed derives the trace seed of stream i from the run seed.
func streamSeed(seed uint64, i int) uint64 { return splitmix64(splitmix64(seed) + uint64(i)) }

// ppf1cCells is the ppf-1c pass: four applications with streaming,
// pointer-chase and irregular access patterns, each alone on a 1-core
// machine under aggressive SPP filtered by PPF.
func ppf1cCells(seed uint64, b experiment.Budget, tag string) []simCell {
	apps := []string{"603.bwaves_s", "605.mcf_s", "619.lbm_s", "623.xalancbmk_s"}
	cells := make([]simCell, len(apps))
	for i, name := range apps {
		cells[i] = simCell{
			label:  fmt.Sprintf("ppf-1c%s/%s", tag, name),
			scheme: experiment.SchemePPF,
			apps:   []workload.Workload{workload.MustByName(name)},
			seeds:  []uint64{streamSeed(seed, i)},
			budget: b,
		}
	}
	return cells
}

// mix4Cells is the mix4-nopf pass: 4-core mixes of the memory-intensive
// SPEC2017-like applications with no prefetching. The seed permutes the
// pool; mix m takes the four applications after position 4m, cyclically,
// so a pass holds len(pool) mixes and every application runs exactly four
// times whatever the seed. Only who shares the LLC and DRAM with whom
// changes from seed to seed.
func mix4Cells(seed uint64, b experiment.Budget, nMixes int, tag string) []simCell {
	pool := workload.SPEC2017MemIntensive()
	r := rng{s: splitmix64(seed)}
	perm := make([]int, len(pool))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if nMixes <= 0 {
		nMixes = len(pool)
	}
	cells := make([]simCell, nMixes)
	for m := range cells {
		c := simCell{scheme: experiment.SchemeNone, budget: b}
		label := "mix4-nopf" + tag + "/"
		for k := 0; k < 4; k++ {
			slot := 4*m + k
			app := pool[perm[slot%len(pool)]]
			c.apps = append(c.apps, app)
			c.seeds = append(c.seeds, streamSeed(seed, slot))
			if k > 0 {
				label += "+"
			}
			label += app.Name
		}
		c.label = label
		cells[m] = c
	}
	return cells
}

// Budgets. ppf-1c runs the repository's default cell length; the 4-core
// mixes run a fifth of it per core so that a pass of eleven mixes fits
// the measuring window a few times over. Reference cells are short: they
// pin the simulator's results, not its speed.
var (
	ppf1cBudget     = experiment.DefaultBudget()
	mix4Budget      = experiment.Budget{Warmup: 40_000, Detail: 200_000}
	referenceBudget = experiment.Budget{Warmup: 20_000, Detail: 100_000}
)

// referenceSeed is the seed the stored reference digests were made at.
const referenceSeed = 1

func referenceCells() []simCell {
	cells := ppf1cCells(referenceSeed, referenceBudget, "/ref")
	return append(cells, mix4Cells(referenceSeed, referenceBudget, 1, "/ref")...)
}

// cellProbes are the wrappers of one traced cell.
type cellProbes struct {
	readers   []*countingReader // one per core
	producers []*timedProducer  // one per core that has a batch prefetcher
	// evicts counts the evictions of prefetched blocks the simulator hands
	// a filter to train on, and evictsUsed those of blocks a demand used;
	// warmEvicts and warmEvictsUsed hold both at the warmup/detail
	// boundary.
	evicts, evictsUsed, warmEvicts, warmEvictsUsed uint64
}

// countEvictions chains a counter onto the cache eviction hooks through
// which the simulator trains each core's filter: the core's L2 and, for
// blocks that core prefetched, the shared LLC. The hooks are exported
// fields of the caches; the counter only observes, then calls the
// simulator's own hook.
func (p *cellProbes) countEvictions(sys *sim.System) {
	cores := sys.Cores()
	count := func(info cache.EvictInfo) {
		p.evicts++
		if info.Used {
			p.evictsUsed++
		}
	}
	for _, c := range cores {
		if c.Session() == nil {
			continue
		}
		l2 := c.L2()
		inner := l2.EvictHook
		l2.EvictHook = func(info cache.EvictInfo) {
			if info.Prefetched {
				count(info)
			}
			inner(info)
		}
	}
	llc := sys.LLC()
	inner := llc.EvictHook
	llc.EvictHook = func(info cache.EvictInfo) {
		if info.Prefetched && info.Owner >= 0 && info.Owner < len(cores) && cores[info.Owner].Session() != nil {
			count(info)
		}
		if inner != nil {
			inner(info)
		}
	}
}

// cellRun is one simulated cell.
type cellRun struct {
	result sim.Result
	digest string // SHA-256 of sim.EncodeResult
	wall   time.Duration
	// cpu is the process's CPU time over the same span, wall where that
	// is unavailable.
	cpu    time.Duration
	probes *cellProbes // nil when untraced
}

// buildCell is a cell's set-up: its workload streams, prefetcher, filter
// and machine. Traced cells wrap each core's trace reader and batch
// prefetcher, and count the evictions that train a filter.
func buildCell(c simCell, traced bool) (*sim.System, *cellProbes, error) {
	setups := make([]sim.CoreSetup, len(c.apps))
	var probes *cellProbes
	if traced {
		probes = &cellProbes{}
	}
	for i, app := range c.apps {
		su := experiment.NewSetup(c.scheme, app, c.seeds[i])
		if traced {
			cr := &countingReader{r: su.Trace}
			su.Trace = cr
			probes.readers = append(probes.readers, cr)
			if bp, ok := su.Prefetcher.(prefetch.BatchProducer); ok {
				tp := newTimedProducer(bp)
				su.Prefetcher = tp
				probes.producers = append(probes.producers, tp)
			}
		}
		setups[i] = su
	}
	sys, err := sim.NewSystem(sim.DefaultConfig(len(c.apps)), setups)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c.label, err)
	}
	if traced {
		probes.countEvictions(sys)
	}
	return sys, probes, nil
}

// runCell builds and runs one cell; only the run is timed. It collects
// the previous cell's machine first, so each cell starts from the same
// heap and at most one machine is resident: peak RSS is then a property
// of the workload, not of when the collector happened to run.
func runCell(c simCell, traced bool) (cellRun, error) {
	runtime.GC()
	sys, probes, err := buildCell(c, traced)
	if err != nil {
		return cellRun{}, err
	}
	var r sim.Result
	wall, cpu := measure(func() {
		sys.RunWarmup(c.budget.Warmup)
		if traced {
			for _, tp := range probes.producers {
				tp.warmTriggers = tp.triggers
			}
			probes.warmEvicts, probes.warmEvictsUsed = probes.evicts, probes.evictsUsed
		}
		r = sys.RunDetail(c.budget.Detail)
	})

	if traced {
		// RunDetail reads SPP's lookahead depth through a *prefetch.SPP
		// type assertion, which a wrapped SPP fails; restore the figure
		// the untraced run reports.
		for i, core := range sys.Cores() {
			if tp, ok := core.Prefetcher().(*timedProducer); ok {
				if spp, ok := tp.inner.(*prefetch.SPP); ok {
					r.PerCore[i].AvgLookaheadDepth = spp.AverageDepth()
				}
			}
		}
	}
	blob, err := sim.EncodeResult(r)
	if err != nil {
		return cellRun{}, fmt.Errorf("%s: encoding result: %w", c.label, err)
	}
	return cellRun{result: r, digest: sha256Hex(blob), wall: wall, cpu: cpu, probes: probes}, nil
}

// simSetups times building every cell of a pass, setupsPerPass times, in
// process CPU time like the runs. As in runCell, each build starts from a
// collected heap.
func simSetups(cells []simCell) ([]float64, error) {
	var out []float64
	for i := 0; i < setupsPerPass; i++ {
		var total time.Duration
		for _, c := range cells {
			runtime.GC()
			var err error
			_, cpu := measure(func() { _, _, err = buildCell(c, false) })
			if err != nil {
				return nil, err
			}
			total += cpu
		}
		out = append(out, total.Seconds())
	}
	return out, nil
}

// simPass is one run of every cell of a workload.
type simPass struct {
	runs      []cellRun
	wall, cpu time.Duration
	insts     uint64
	// Traced passes only: the layer times, summed over the pass's cells
	// (warmup and detail), the instructions read from the traces, and the
	// prefetch triggers and filter-training evictions of the detail region.
	selfNs, sinkNs, traceNs int64
	traceInsts, triggers    uint64
	evicts, evictsUsed      uint64
}

// residualNs is the traced wall time no named layer accounts for: the
// core pipeline, the caches, DRAM and the skip loop.
func (p simPass) residualNs() int64 {
	return p.wall.Nanoseconds() - p.selfNs - p.sinkNs - p.traceNs
}

func runSimPass(cells []simCell, traced bool) (simPass, error) {
	var p simPass
	for _, c := range cells {
		run, err := runCell(c, traced)
		if err != nil {
			return simPass{}, err
		}
		p.runs = append(p.runs, run)
		p.wall += run.wall
		p.cpu += run.cpu
		p.insts += c.insts()
	}
	if traced {
		// Drain identical readers after the timed part, one per core.
		for ci, c := range cells {
			pr := p.runs[ci].probes
			for i, cr := range pr.readers {
				p.traceNs += drainNs(c.apps[i].NewReader(c.seeds[i]), cr.n)
				p.traceInsts += cr.n
			}
			for _, tp := range pr.producers {
				p.selfNs += tp.selfNs()
				p.sinkNs += tp.sinkNs
				p.triggers += tp.triggers - tp.warmTriggers
			}
			p.evicts += pr.evicts - pr.warmEvicts
			p.evictsUsed += pr.evictsUsed - pr.warmEvictsUsed
		}
	}
	return p, nil
}

// checkReference runs the short reference cells and compares their
// digests with the stored ones. Besides pinning the simulator's results,
// this is the run's warm-up: it pages in the heap before timing starts.
func checkReference(res *result, cells []simCell) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	for _, c := range cells {
		run, err := runCell(c, false)
		if err != nil {
			return err
		}
		want, ok := exp.Cells[c.label]
		res.check(ok && run.digest == want, "%s: digest %s, want %s", c.label, run.digest, want)
	}
	return nil
}

func runPPF1C(cfg runConfig, res *result) error {
	return runSimWorkload(cfg, res, ppf1cCells(cfg.seed, ppf1cBudget, ""), ppf1cCells(referenceSeed, referenceBudget, "/ref"))
}

func runMix4NoPF(cfg runConfig, res *result) error {
	return runSimWorkload(cfg, res, mix4Cells(cfg.seed, mix4Budget, 0, ""), mix4Cells(referenceSeed, referenceBudget, 1, "/ref"))
}

// runSimWorkload measures passes over cells until the window closes.
// Untraced, the unit of work is a simulated instruction and the operation
// is one cell (build excluded). Traced, every loop runs an untraced pass,
// for counts and the overhead baseline, then a traced pass. Set-up is
// building every cell of a pass, timed before every loop.
func runSimWorkload(cfg runConfig, res *result, cells, refs []simCell) error {
	if err := checkReference(res, refs); err != nil {
		return err
	}
	var setups []float64
	var plain, traced []simPass
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < cfg.seconds {
		s, err := simSetups(cells)
		if err != nil {
			return err
		}
		setups = append(setups, s...)
		p, err := runSimPass(cells, false)
		if err != nil {
			return err
		}
		plain = append(plain, p)
		if cfg.trace {
			tp, err := runSimPass(cells, true)
			if err != nil {
				return err
			}
			traced = append(traced, tp)
		}
	}

	// Every cell of every pass at one seed, traced or not, must reproduce
	// the first pass bit for bit.
	ref := plain[0]
	for pi, p := range append(append([]simPass(nil), plain...), traced...) {
		for i, run := range p.runs {
			res.check(run.digest == ref.runs[i].digest, "%s: pass %d digest %s differs from first pass %s",
				cells[i].label, pi, run.digest, ref.runs[i].digest)
		}
	}

	// Host time is the process's CPU time: on a shared host the hypervisor
	// takes the vCPU away for spells of seconds, and wall time would
	// measure those spells instead of the simulator. Process time, unlike
	// the simulating thread's, also counts the collector's background
	// workers and any work moved to other goroutines.
	var rates, wallRates, ops, walls []float64
	for _, p := range plain {
		rates = append(rates, float64(p.insts)/p.cpu.Seconds())
		wallRates = append(wallRates, float64(p.insts)/p.wall.Seconds())
		walls = append(walls, float64(p.wall.Nanoseconds()))
		for _, run := range p.runs {
			ops = append(ops, micros(run.cpu))
		}
	}
	res.set("work_per_s", median(rates))
	res.set("op_p50_us", median(ops))
	res.set("setup_s", median(setups))
	res.note("sim_minstr_per_s %.4f Minstr/s per CPU second, %.4f per wall second (median of %d passes of %d cells, %d simulated instructions each)",
		median(rates)/1e6, median(wallRates)/1e6, len(plain), len(cells), plain[0].insts)
	res.note("cell time p50 %.0f us CPU over %d cells", median(ops), len(ops))

	if cfg.trace {
		setSimLayers(res, ref, traced, median(walls))
		res.set("setup.ns", median(setups)*1e9)
	}
	return nil
}

// setSimLayers reports the per-layer metrics of a sim workload: counts
// from the first untraced pass, times as means over the traced passes.
// Means, unlike medians, keep the identity the residual is defined by:
// wall = trigger self + issue + trace + residual.
func setSimLayers(res *result, ref simPass, traced []simPass, plainWallNs float64) {
	var wall, self, sink, tr, resid []float64
	for _, p := range traced {
		wall = append(wall, float64(p.wall.Nanoseconds()))
		self = append(self, float64(p.selfNs))
		sink = append(sink, float64(p.sinkNs))
		tr = append(tr, float64(p.traceNs))
		resid = append(resid, float64(p.residualNs()))
	}
	t := traced[0]
	res.set("trace.insts", float64(t.traceInsts))
	res.set("trace.ns_per_inst", ratio(mean(tr), float64(t.traceInsts)))
	res.set("prefetch.triggers", float64(t.triggers))
	res.set("prefetch.evicts", float64(t.evicts))
	res.set("prefetch.evict_used_frac", ratio(float64(t.evictsUsed), float64(t.evicts)))
	res.set("prefetch.trigger_self_ns", mean(self))
	res.set("sim.issue_ns", mean(sink))
	res.set("sim.wall_ns", mean(wall))
	res.set("sim.residual_ns", mean(resid))
	res.set("trace.overhead_frac", median(wall)/plainWallNs-1)
	res.note("traced wall %.0f ns = trigger self %.0f + issue %.0f + trace %.0f + residual %.0f",
		mean(wall), mean(self), mean(sink), mean(tr), mean(resid))

	var a simCounts
	for _, run := range ref.runs {
		a.add(run.result)
	}
	a.report(res)
}

// simCounts sums the simulated statistics of a pass's results.
type simCounts struct {
	insts, cycles, coreCycles, robStalls, fetchStalls float64
	mispredicts                                       float64 // mpki × insts / 1000
	candidates, issued, useful                        float64
	inferences, dropped, trains, boundary             float64
	l1dMisses, l2Accesses, l2Misses, l2Fills, l2MSHR  float64
	llcMisses, llcMissCycles                          float64
	dramReads, dramPrefetch, rowHits, rowMisses       float64
	busBusy, busSpan                                  float64
}

func (a *simCounts) add(r sim.Result) {
	a.cycles += float64(r.Cycles)
	for _, c := range r.PerCore {
		a.insts += float64(c.Instructions)
		a.coreCycles += float64(c.Cycles)
		a.robStalls += float64(c.ROBStallCycles)
		a.fetchStalls += float64(c.FetchStallCycles)
		a.mispredicts += c.BranchMPKI * float64(c.Instructions) / 1000
		a.candidates += float64(c.Candidates)
		a.issued += float64(c.PrefetchesIssued)
		a.useful += float64(c.PrefetchesUseful)
		if f := c.Filter; f != nil {
			a.inferences += float64(f.Inferences)
			a.dropped += float64(f.Dropped)
			a.trains += float64(f.TrainPositive + f.TrainNegative)
			a.boundary += float64(f.Boundary)
		}
		a.l1dMisses += float64(c.L1D.DemandMisses)
		a.l2Accesses += float64(c.L2.DemandAccesses)
		a.l2Misses += float64(c.L2.DemandMisses)
		a.l2Fills += float64(c.L2.PrefetchFills)
		a.l2MSHR += float64(c.L2.MSHRFullStalls)
	}
	a.llcMisses += float64(r.LLC.DemandMisses)
	a.llcMissCycles += float64(r.LLC.MissLatencySum)
	a.dramReads += float64(r.DRAM.Reads)
	a.dramPrefetch += float64(r.DRAM.PrefetchReads)
	a.rowHits += float64(r.DRAM.RowHits)
	a.rowMisses += float64(r.DRAM.RowMisses)
	a.busBusy += float64(r.DRAM.BusBusyFor)
	a.busSpan += float64(r.DRAM.LastRequest)
}

func (a *simCounts) report(res *result) {
	res.set("prefetch.candidates", a.candidates)
	res.set("prefetch.issued", a.issued)
	res.set("prefetch.accuracy", ratio(a.useful, a.issued))
	res.set("core.inferences", a.inferences)
	res.set("core.accept_rate", ratio(a.inferences-a.dropped, a.inferences))
	res.set("core.trains", a.trains)
	res.set("core.boundary_rate", ratio(a.boundary, a.inferences))
	res.set("sim.cycles", a.cycles)
	res.set("sim.ipc", ratio(a.insts, a.coreCycles))
	res.set("sim.rob_stall_cycles", a.robStalls)
	res.set("sim.fetch_stall_cycles", a.fetchStalls)
	res.set("branch.mpki", ratio(a.mispredicts*1000, a.insts))
	res.set("cache.l1d.misses", a.l1dMisses)
	res.set("cache.l2.accesses", a.l2Accesses)
	res.set("cache.l2.misses", a.l2Misses)
	res.set("cache.l2.prefetch_fills", a.l2Fills)
	res.set("cache.l2.mshr_full_stalls", a.l2MSHR)
	res.set("cache.llc.misses", a.llcMisses)
	res.set("cache.llc.avg_miss_cycles", ratio(a.llcMissCycles, a.llcMisses))
	res.set("dram.reads", a.dramReads)
	res.set("dram.prefetch_reads", a.dramPrefetch)
	res.set("dram.row_hit_rate", ratio(a.rowHits, a.rowHits+a.rowMisses))
	res.set("dram.bus_util", ratio(a.busBusy, a.busSpan))
}
