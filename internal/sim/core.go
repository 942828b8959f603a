package sim

import (
	"repro/internal/branch"
	"repro/internal/cache"
	ppf "repro/internal/core"
	"repro/internal/engine"
	"repro/internal/prefetch"
	"repro/internal/trace"
)

// loadRing is the size of the per-core ring buffer that remembers load
// completion times so that pointer-chase dependencies (Inst.Dep) can be
// resolved. It exceeds the maximum encodable dependency distance.
const loadRing = 1 << 16

// Core models one out-of-order core: a fetch/dispatch front end feeding a
// ROB window with in-order retirement. Loads issue at dispatch (or when a
// flagged pointer-chase dependency resolves) and complete when the memory
// hierarchy returns their data; fetch stalls on ROB-full, instruction
// cache misses, and branch mispredictions.
type Core struct {
	id  int
	cfg *Config

	reader trace.Reader
	bp     *branch.Predictor
	l1i    *cache.Cache
	l1d    *cache.Cache
	l2     *cache.Cache
	pf     prefetch.Prefetcher
	bpf    prefetch.BatchProducer // pf's batch interface, nil if unsupported
	filter *engine.Session

	emit  prefetch.Emit
	bsink prefetch.BatchSink

	rob      []uint64 // completion cycle per in-flight instruction
	robHead  int
	robCount int

	loadDone  []uint64
	instCount uint64

	fetchStallUntil uint64
	lastPCBlock     uint64

	// Per-access context threaded to the cache hooks (single goroutine).
	curPC     uint64
	curIsData bool
	curCycle  uint64

	retired      uint64
	robStalls    uint64 // cycles fetch was blocked on a full ROB
	fetchStalls  uint64 // cycles the front end sat out an I-miss/mispredict penalty
	candidates   uint64 // candidates produced by the prefetcher
	pfIssued     uint64 // prefetches actually filled into a cache
	pfUseful     uint64 // prefetches hit by demand before eviction
	traceDone    bool
	finishedRun  bool
	finishCycle  uint64
	retiredStart uint64
	startCycle   uint64
}

// Filter returns the attached PPF filter, or nil.
func (c *Core) Filter() *ppf.Filter { return c.filter.Filter() }

// Session returns the engine session driving the filter, or nil.
func (c *Core) Session() *engine.Session { return c.filter }

// Prefetcher returns the attached prefetcher.
func (c *Core) Prefetcher() prefetch.Prefetcher { return c.pf }

// L2 returns the core's private L2 cache.
func (c *Core) L2() *cache.Cache { return c.l2 }

// L1D returns the core's private L1 data cache.
func (c *Core) L1D() *cache.Cache { return c.l1d }

// wire installs the prefetch trigger and training hooks on the private
// L2. The hooks are bound methods rather than closures: the per-access
// hot path then calls through a direct method value with no captured
// environment to chase.
func (c *Core) wire() {
	c.emit = c.emitCandidate
	c.bsink = c.sinkBurst
	c.bpf, _ = c.pf.(prefetch.BatchProducer)
	c.l2.DemandHook = c.onL2Demand
	c.l2.UsefulHook = c.onL2Useful
	c.l2.EvictHook = c.onL2Evict
}

// sinkBurst receives candidate bursts from a BatchProducer. Candidates
// are sequenced through the scalar emitCandidate path: the lazy
// l2.Contains duplicate check and the immediate l2.Prefetch insertion
// make each candidate's fate depend on its predecessors in the burst,
// so the batch boundary amortizes only the producer's per-candidate
// call overhead — decisions, training and counters are bit-identical to
// the Emit path by construction.
func (c *Core) sinkBurst(cands []prefetch.Candidate, accepted []bool) {
	for i := range cands {
		accepted[i] = c.emitCandidate(cands[i])
	}
}

// emitCandidate is the prefetcher's emission callback: it runs the PPF
// decision, issues the prefetch, and keeps the filter's issue accounting
// in sync with the prefetch's actual fate.
func (c *Core) emitCandidate(cand prefetch.Candidate) bool {
	c.candidates++
	at := c.curCycle
	if c.filter == nil {
		_, ok := c.l2.Prefetch(cand.Addr, at, cand.FillL2, c.id)
		if ok {
			c.pfIssued++
			c.pf.OnPrefetchFill(cand.Addr)
		}
		return ok
	}
	// Duplicates never reach the filter: a suggestion for a block
	// already covered carries no signal either way.
	if c.l2.Contains(cand.Addr) {
		return false
	}
	in := ppf.FeatureInput{
		Addr:       cand.Addr,
		PC:         c.curPC,
		PCHist:     c.filter.PCHist(),
		Depth:      cand.Meta.Depth,
		Signature:  cand.Meta.Signature,
		Confidence: cand.Meta.Confidence,
		Delta:      cand.Meta.Delta,
	}
	d := c.filter.Decide(&in)
	if d == ppf.Drop {
		c.filter.RecordReject(&in)
		return false
	}
	_, ok := c.l2.Prefetch(cand.Addr, at, d == ppf.FillL2, c.id)
	if !ok {
		// The cache squashed the accepted prefetch (MSHR pressure or an
		// in-flight duplicate): no prefetch was issued, so it must not
		// enter the prefetch table or the issued counters.
		c.filter.RecordSquashed()
		return false
	}
	c.filter.RecordIssue(&in, d)
	c.pfIssued++
	c.pf.OnPrefetchFill(cand.Addr)
	return true
}

// onL2Demand triggers PPF training and prefetching on L2 demand reads.
func (c *Core) onL2Demand(addr uint64, at uint64, hit bool) {
	if !c.curIsData {
		return
	}
	c.curCycle = at
	if c.filter != nil {
		// Train from this demand access before triggering new
		// prefetches (paper Figure 5 steps 3–4 precede step 1).
		c.filter.OnDemand(addr)
	}
	a := prefetch.Access{PC: c.curPC, Addr: addr, Cycle: at, Hit: hit}
	if c.bpf != nil {
		c.bpf.OnDemandBatch(a, c.bsink)
	} else {
		c.pf.OnDemand(a, c.emit)
	}
	if c.filter != nil {
		c.filter.OnLoadPC(c.curPC)
	}
}

// onL2Useful routes first-use feedback to the prefetcher.
func (c *Core) onL2Useful(addr uint64, _ int) {
	c.pfUseful++
	c.pf.OnPrefetchUseful(addr)
}

// onL2Evict routes prefetched-block evictions to PPF's negative training.
func (c *Core) onL2Evict(info cache.EvictInfo) {
	if c.filter != nil && info.Prefetched {
		c.filter.OnEvict(info.Addr, info.Used)
	}
}

// Tick advances the core by one cycle.
func (c *Core) Tick(cycle uint64) {
	// Retire in order.
	for n := 0; n < c.cfg.RetireWidth && c.robCount > 0; n++ {
		if c.rob[c.robHead] > cycle {
			break
		}
		c.robHead++
		if c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
		c.retired++
	}
	if c.traceDone {
		return
	}
	if cycle < c.fetchStallUntil {
		c.fetchStalls++
		return
	}

	// Fetch and dispatch.
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.robCount == len(c.rob) {
			c.robStalls++
			return
		}
		in, ok := c.reader.Next()
		if !ok {
			c.traceDone = true
			return
		}
		if in.Addr != 0 {
			// Each core gets its own physical address space: distinct
			// processes never share pages in a multiprogrammed mix, so
			// co-runners must not constructively hit each other's blocks
			// in the shared LLC.
			in.Addr |= uint64(c.id) << 48
		}
		idx := c.instCount
		c.instCount++

		// Instruction fetch: one L1I access per new PC block.
		if pcBlock := in.PC >> cache.BlockBits; pcBlock != c.lastPCBlock {
			c.lastPCBlock = pcBlock
			c.curIsData = false
			if icDone := c.l1i.Read(in.PC, cycle); icDone > cycle+c.cfg.L1I.HitLatency {
				c.fetchStallUntil = icDone
			}
		}

		var done uint64
		stopFetch := false
		switch in.Kind {
		case trace.KindALU:
			done = cycle + 1
		case trace.KindBranch:
			correct := c.bp.Update(in.PC, in.Taken)
			done = cycle + 1
			if !correct {
				c.fetchStallUntil = done + c.cfg.MispredictPenalty
				stopFetch = true
			}
		case trace.KindLoad:
			issueAt := cycle
			if in.Dep > 0 && uint64(in.Dep) <= idx {
				if dep := c.loadDone[(idx-uint64(in.Dep))&(loadRing-1)]; dep > issueAt {
					issueAt = dep
				}
			}
			c.curIsData = true
			c.curPC = in.PC
			done = c.l1d.Read(in.Addr, issueAt)
			c.loadDone[idx&(loadRing-1)] = done
		case trace.KindStore:
			c.curIsData = true
			c.curPC = in.PC
			c.l1d.Write(in.Addr, cycle)
			done = cycle + 1
		}

		tail := c.robHead + c.robCount
		if tail >= len(c.rob) {
			tail -= len(c.rob)
		}
		c.rob[tail] = done
		c.robCount++
		if stopFetch || cycle < c.fetchStallUntil {
			return
		}
	}
}

// noEvent is NextEvent's "this core will never act again" sentinel: the
// trace is exhausted and the ROB has drained, so no future cycle changes
// its state.
const noEvent = ^uint64(0)

// NextEvent reports the earliest cycle after now at which Tick can make
// progress — retire an instruction, fetch, or dispatch — assuming no
// other core acts first. Between now and that cycle every Tick is a
// provable no-op (modulo the stall counters, which skipTo reconstructs),
// so System.runUntil may advance the clock straight to the minimum
// NextEvent across cores. The candidate events are:
//
//   - ROB-head completion: with completed instructions pending, retirement
//     happens at the first cycle >= rob[robHead]. This also covers loads
//     waiting on the memory hierarchy and pointer-chase dependency
//     resolution — a dependent load's completion time is its ROB entry.
//   - fetchStallUntil: the front end resumes after an instruction-cache
//     miss or mispredict penalty, provided the ROB has room.
//   - now+1 when fetch is unimpeded: the core is making progress every
//     cycle and nothing can be skipped.
//
// A core whose trace is exhausted and whose ROB has drained returns
// noEvent.
func (c *Core) NextEvent(now uint64) uint64 {
	next := uint64(noEvent)
	if c.robCount > 0 {
		if h := c.rob[c.robHead]; h > now+1 {
			next = h
		} else {
			// The ROB head has already completed (or completes next
			// cycle): retirement makes progress immediately.
			return now + 1
		}
	}
	if !c.traceDone && c.robCount < len(c.rob) {
		if f := c.fetchStallUntil; f > now+1 {
			if f < next {
				next = f
			}
		} else {
			return now + 1 // fetch is unimpeded
		}
	}
	return next
}

// skipTo accounts for the cycles in (from, to) that runUntil is about to
// skip: each would have been a no-op Tick, but the legacy +1 loop still
// charged them to a stall counter. Reconstructing those charges keeps the
// skipping loop's statistics bit-identical to the legacy loop's: a
// skipped cycle below fetchStallUntil is a front-end stall, and a
// skipped cycle at/after it can only have been survived by a full ROB
// (otherwise NextEvent would have stopped the skip there to fetch).
func (c *Core) skipTo(from, to uint64) {
	if c.traceDone || to <= from+1 {
		return
	}
	lo, hi := from+1, to // skipped cycles form [lo, hi)
	if f := c.fetchStallUntil; f > lo {
		if f > hi {
			f = hi
		}
		c.fetchStalls += f - lo
		lo = f
	}
	if lo < hi && c.robCount == len(c.rob) {
		c.robStalls += hi - lo
	}
}

// resetStats clears all warmup statistics on the core and its private
// structures, keeping learned predictor/prefetcher/filter state.
func (c *Core) resetStats(cycle uint64) {
	c.l1i.ResetStats()
	c.l1d.ResetStats()
	c.l2.ResetStats()
	c.bp.ResetStats()
	if c.filter != nil {
		c.filter.ResetStats()
	}
	c.candidates = 0
	c.pfIssued = 0
	c.pfUseful = 0
	c.robStalls = 0
	c.fetchStalls = 0
	c.retiredStart = c.retired
	c.startCycle = cycle
	c.finishedRun = false
	c.finishCycle = 0
}
