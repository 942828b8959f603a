package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/branch"
	"repro/internal/cache"
	ppf "repro/internal/core"
	"repro/internal/dram"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// CoreSetup describes one core's workload and prefetching configuration.
type CoreSetup struct {
	// Trace supplies the instruction stream.
	Trace trace.Reader
	// Prefetcher drives L2 prefetching; nil means no prefetching.
	Prefetcher prefetch.Prefetcher
	// Filter, when non-nil, interposes PPF between the prefetcher and
	// the prefetch queue.
	Filter *ppf.Filter
}

// CoreResult holds per-core measurements over the region of interest.
type CoreResult struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64
	L1D          cache.Stats
	L2           cache.Stats
	BranchMPKI   float64
	// Candidates is the number of prefetch candidates the prefetcher
	// produced (before filtering).
	Candidates uint64
	// PrefetchesIssued counts candidates actually filled into a cache.
	PrefetchesIssued uint64
	// PrefetchesUseful counts issued prefetches hit by demand (L2-level).
	PrefetchesUseful uint64
	// ROBStallCycles counts cycles the front end was blocked on a full
	// ROB — typically waiting out a DRAM-latency load at the ROB head.
	ROBStallCycles uint64
	// FetchStallCycles counts cycles the front end sat out an
	// instruction-cache miss or branch-mispredict penalty.
	FetchStallCycles uint64
	// Filter holds the PPF statistics when a filter was attached.
	Filter *ppf.Stats
	// AvgLookaheadDepth is SPP's mean emission depth (0 for others).
	AvgLookaheadDepth float64
}

// Result holds a full simulation's measurements.
type Result struct {
	PerCore []CoreResult
	LLC     cache.Stats
	DRAM    dram.Stats
	// Cycles is the wall-clock cycle count of the region of interest
	// (max across cores).
	Cycles uint64
}

// System is a configured multicore machine ready to run.
type System struct {
	cfg   Config
	cores []*Core
	llc   *cache.Cache
	mem   *dram.DRAM
	cycle uint64
	// legacyLoop forces the historical one-cycle-at-a-time runUntil loop
	// instead of event-horizon skipping. Test/benchmark hook only: the
	// skip-equivalence goldens run both loops and assert bit-identical
	// results, and cmd/bench measures the speedup.
	legacyLoop bool
	// ticks counts executed tick rounds, for observing how many dead
	// cycles the event-horizon loop skipped (ticks == cycles advanced in
	// legacy mode; ticks <= cycles advanced with skipping).
	ticks uint64
}

// SetLegacyLoop selects the pre-event-horizon +1 cycle loop (on = true)
// and returns the previous setting. It exists so tests and benchmarks
// can prove the skipping loop bit-identical; simulations must not toggle
// it mid-run.
func (s *System) SetLegacyLoop(on bool) bool {
	prev := s.legacyLoop
	s.legacyLoop = on
	return prev
}

// NewSystem builds a machine from cfg with one CoreSetup per core.
func NewSystem(cfg Config, setups []CoreSetup) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(setups) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d core setups for %d cores", len(setups), cfg.Cores)
	}
	mem, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	llc, err := cache.New(cfg.LLC, mem)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, llc: llc, mem: mem}
	for i, su := range setups {
		if su.Trace == nil {
			return nil, fmt.Errorf("sim: core %d has no trace", i)
		}
		pf := su.Prefetcher
		if pf == nil {
			pf = prefetch.Nil{}
		}
		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("L2[%d]", i)
		l2, err := cache.New(l2cfg, llc)
		if err != nil {
			return nil, err
		}
		l1dcfg := cfg.L1D
		l1dcfg.Name = fmt.Sprintf("L1D[%d]", i)
		l1d, err := cache.New(l1dcfg, l2)
		if err != nil {
			return nil, err
		}
		l1icfg := cfg.L1I
		l1icfg.Name = fmt.Sprintf("L1I[%d]", i)
		l1i, err := cache.New(l1icfg, l2)
		if err != nil {
			return nil, err
		}
		c := &Core{
			id:       i,
			cfg:      &s.cfg,
			reader:   su.Trace,
			bp:       branch.New(),
			l1i:      l1i,
			l1d:      l1d,
			l2:       l2,
			pf:       pf,
			filter:   su.Filter,
			rob:      make([]uint64, cfg.ROBSize),
			loadDone: make([]uint64, 1<<bits.Len(uint(cfg.ROBSize-1))),
		}
		c.wire()
		s.cores = append(s.cores, c)
	}
	// Shared-LLC feedback is routed to the owning core's prefetcher and
	// filter: prefetches filled into the LLC still train PPF.
	llc.UsefulHook = func(addr uint64, owner int) {
		if owner >= 0 && owner < len(s.cores) {
			c := s.cores[owner]
			c.pfUseful++
			c.pf.OnPrefetchUseful(addr)
		}
	}
	llc.EvictHook = func(info cache.EvictInfo) {
		if !info.Prefetched || info.Owner < 0 || info.Owner >= len(s.cores) {
			return
		}
		if f := s.cores[info.Owner].filter; f != nil {
			f.OnEvict(info.Addr, info.Used)
		}
	}
	return s, nil
}

// Cores exposes the simulated cores (for examples and tests).
func (s *System) Cores() []*Core { return s.cores }

// LLC exposes the shared last-level cache.
func (s *System) LLC() *cache.Cache { return s.llc }

// DRAM exposes the memory model.
func (s *System) DRAM() *dram.DRAM { return s.mem }

// runUntil advances the machine until every core has retired at least
// target instructions (or exhausted its trace). Cores that reach the
// target keep executing so they continue to contend for shared resources,
// per the paper's multi-core methodology; their finish cycle is recorded
// the moment they cross the target.
//
// The clock advances by event horizon rather than by +1: every core
// reports the earliest future cycle at which it can make progress
// (Core.NextEvent), and the machine jumps straight to the minimum. The
// cycles in between are provable no-ops for every core — including cores
// past their target that keep contending for the shared LLC and DRAM —
// so every Tick that executes does so at exactly the cycle, and in
// exactly the core order, the legacy +1 loop would have used. Results
// are bit-identical (the skip-equivalence goldens in skip_test.go prove
// it); only wall-clock time changes.
func (s *System) runUntil(target func(c *Core) uint64) {
	for {
		allDone := true
		for _, c := range s.cores {
			if c.finishedRun {
				continue
			}
			if c.retired >= target(c) || c.traceDone && c.robCount == 0 {
				c.finishedRun = true
				c.finishCycle = s.cycle
				continue
			}
			allDone = false
		}
		if allDone {
			return
		}
		next := s.cycle + 1
		if !s.legacyLoop {
			if ne := s.nextEvent(); ne > next {
				for _, c := range s.cores {
					c.skipTo(s.cycle, ne)
				}
				next = ne
			}
		}
		s.cycle = next
		s.ticks++
		for _, c := range s.cores {
			c.Tick(s.cycle)
		}
	}
}

// nextEvent is the machine-wide event horizon: the minimum NextEvent
// across every core that can still act. Finished-but-draining cores and
// finished cores still fetching past their target participate — their
// memory traffic contends with unfinished cores, so skipping over one of
// their active cycles would change shared-cache state. At least one
// unfinished core exists when this is called, and an unfinished core
// always has a finite next event, so the result is a real cycle.
func (s *System) nextEvent() uint64 {
	next := uint64(noEvent)
	for _, c := range s.cores {
		if ne := c.NextEvent(s.cycle); ne < next {
			next = ne
		}
	}
	if next == noEvent {
		return s.cycle + 1
	}
	return next
}

// Run executes warmup instructions per core (statistics discarded), then a
// detailed region of detail instructions per core, and returns the
// measurements.
func (s *System) Run(warmup, detail uint64) Result {
	s.RunWarmup(warmup)
	return s.RunDetail(detail)
}

// RunWarmup executes warmup instructions per core. Statistics are
// discarded by the detail phase: RunDetail resets them, so cold runs
// (RunWarmup then RunDetail) and snapshot-resumed runs (Restore then
// RunDetail) execute identical code over the region of interest.
func (s *System) RunWarmup(warmup uint64) {
	if warmup == 0 {
		return
	}
	base := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		base[i] = c.retired + warmup
	}
	s.runUntil(func(c *Core) uint64 { return base[c.id] })
}

// RunDetail executes a detailed region of detail instructions per core
// from the machine's current state and returns the measurements.
func (s *System) RunDetail(detail uint64) Result {
	// Reset statistics for the region of interest.
	s.llc.ResetStats()
	s.mem.ResetStats()
	for _, c := range s.cores {
		c.resetStats(s.cycle)
	}
	det := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		det[i] = c.retired + detail
	}
	s.runUntil(func(c *Core) uint64 { return det[c.id] })

	res := Result{LLC: s.llc.Stats(), DRAM: s.mem.Stats()}
	for _, c := range s.cores {
		cycles := c.finishCycle - c.startCycle
		insts := c.retired - c.retiredStart
		if insts > detail {
			insts = detail
		}
		cr := CoreResult{
			Instructions:     insts,
			Cycles:           cycles,
			L1D:              c.l1d.Stats(),
			L2:               c.l2.Stats(),
			Candidates:       c.candidates,
			PrefetchesIssued: c.pfIssued,
			PrefetchesUseful: c.pfUseful,
			ROBStallCycles:   c.robStalls,
			FetchStallCycles: c.fetchStalls,
		}
		if cycles > 0 {
			cr.IPC = float64(insts) / float64(cycles)
		}
		cr.BranchMPKI = c.bp.MPKI(insts)
		if c.filter != nil {
			fs := c.filter.Stats()
			cr.Filter = &fs
		}
		if spp, ok := c.pf.(*prefetch.SPP); ok {
			cr.AvgLookaheadDepth = spp.AverageDepth()
		}
		res.PerCore = append(res.PerCore, cr)
		if cycles > res.Cycles {
			res.Cycles = cycles
		}
	}
	return res
}
