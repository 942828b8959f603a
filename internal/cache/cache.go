// Package cache implements the set-associative cache hierarchy used by the
// simulator: L1I/L1D, a private L2 (where prefetching is triggered in the
// PPF paper), and a shared last-level cache, all write-back/write-allocate
// with LRU replacement and MSHR-style miss handling.
//
// Timing follows the simulator's "instant state, delayed completion"
// model: an access mutates cache state immediately and returns the
// absolute cycle at which its data is available. Outstanding misses are
// tracked in an MSHR table so that accesses to in-flight blocks merge
// onto the pending fill instead of issuing duplicate requests, and so
// that a full MSHR back-pressures the core.
//
// The line and MSHR state is stored structure-of-arrays: the per-access
// tag and LRU scans walk one densely packed array each instead of
// striding across per-line structs, which keeps the hot lookup/victim
// loops inside one or two cache lines of simulator-host memory per set.
package cache

import (
	"fmt"
	"math/bits"
)

// BlockBits is log2 of the cache block size (64-byte blocks).
const BlockBits = 6

// BlockSize is the cache block size in bytes.
const BlockSize = 1 << BlockBits

// invalidTag marks an empty line or MSHR slot. Block addresses are
// byte addresses shifted right by BlockBits (at most 58 significant
// bits even with per-core address-space tagging), so the all-ones
// pattern can never collide with a real block.
const invalidTag = ^uint64(0)

// Per-line flag bits (the valid bit is implicit: tag != invalidTag).
const (
	flagDirty uint8 = 1 << iota
	flagPrefetched
	flagUsed
)

// Level is anything that can service a block request: a cache or DRAM.
type Level interface {
	// Read requests the block containing addr at cycle `at` and returns
	// the absolute cycle at which the data is available.
	Read(addr uint64, at uint64) (done uint64)
	// Write hands a dirty block down the hierarchy at cycle `at`.
	// Writes are posted (fire-and-forget) but still consume resources.
	Write(addr uint64, at uint64)
}

// EvictInfo describes a block leaving a cache, for prefetcher/PPF training.
type EvictInfo struct {
	// Addr is the block-aligned address of the evicted block.
	Addr uint64
	// Prefetched reports whether the block entered the cache via prefetch.
	Prefetched bool
	// Used reports whether a demand access touched the block while cached.
	Used bool
	// Owner is the core that issued the prefetch (-1 for demand fills);
	// multicore simulations use it to route training to the right filter.
	Owner int
}

// Stats aggregates the per-cache event counters.
type Stats struct {
	DemandAccesses  uint64
	DemandHits      uint64
	DemandMisses    uint64
	WriteAccesses   uint64
	WriteHits       uint64
	WriteMisses     uint64
	PrefetchFills   uint64 // prefetched blocks inserted into this cache
	PrefetchUseful  uint64 // prefetched blocks later hit by demand
	PrefetchLate    uint64 // demand arrived while the prefetch was in flight
	PrefetchUnused  uint64 // prefetched blocks evicted without a demand hit
	Evictions       uint64
	Writebacks      uint64
	MSHRMerges      uint64
	MSHRFullStalls  uint64
	PrefetchDropped uint64 // prefetches dropped because the block was present
	PrefetchReads   uint64 // reads serviced on behalf of an upper-level prefetch
	PrefetchReadHit uint64 // such reads that hit here (no DRAM traffic)
	MissLatencySum  uint64 // total completion-minus-access cycles over demand misses
	MergeWaitSum    uint64 // total wait cycles over hit-under-miss merges
}

// AvgMissLatency returns the mean demand-miss latency in cycles.
func (s Stats) AvgMissLatency() float64 {
	if s.DemandMisses == 0 {
		return 0
	}
	return float64(s.MissLatencySum) / float64(s.DemandMisses)
}

// AvgMergeWait returns the mean wait of demand hits that merged onto an
// in-flight fill.
func (s Stats) AvgMergeWait() float64 {
	if s.MSHRMerges == 0 {
		return 0
	}
	return float64(s.MergeWaitSum) / float64(s.MSHRMerges)
}

// DemandMPKI returns demand misses per thousand of the given instruction
// count.
func (s Stats) DemandMPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(instructions) * 1000
}

// Accuracy returns the fraction of prefetches filled into this cache that
// were used by demand accesses before eviction.
func (s Stats) Accuracy() float64 {
	if s.PrefetchFills == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchFills)
}

// String renders the complete counter set as a two-line report; ppfsim
// prints it per cache level under -v. Every Stats field is surfaced
// here (directly or through an Avg* helper) — the counterwiring
// analyzer rejects counters the simulator increments but no reporter
// ever shows.
func (s Stats) String() string {
	return fmt.Sprintf(
		"demand %d (%d hit / %d miss, avg miss %.1f cyc) | writes %d (%d hit / %d miss) | "+
			"pf-reads %d (%d hit here)\n"+
			"    pf fills %d (%d useful, %d late, %d unused, %d dup-dropped) | "+
			"evictions %d (%d writebacks) | MSHR merges %d (avg wait %.1f cyc), full-stalls %d",
		s.DemandAccesses, s.DemandHits, s.DemandMisses, s.AvgMissLatency(),
		s.WriteAccesses, s.WriteHits, s.WriteMisses,
		s.PrefetchReads, s.PrefetchReadHit,
		s.PrefetchFills, s.PrefetchUseful, s.PrefetchLate, s.PrefetchUnused, s.PrefetchDropped,
		s.Evictions, s.Writebacks, s.MSHRMerges, s.AvgMergeWait(), s.MSHRFullStalls)
}

// Config describes one cache's geometry and latency.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency uint64
	MSHRs      int
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: size and ways must be positive", c.Name)
	}
	sets := c.SizeBytes / BlockSize / c.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a positive power of two", c.Name, sets)
	}
	if c.MSHRs <= 0 {
		return fmt.Errorf("cache %q: MSHR count must be positive", c.Name)
	}
	return nil
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg     Config
	sets    int
	ways    int
	setMask uint64

	// Line state, structure-of-arrays, sets*ways row-major by set. A
	// slot is valid iff tags[i] != invalidTag.
	tags    []uint64
	lastUse []uint64
	flags   []uint8
	owner   []int16

	// wayHint caches the last way hit or filled per set, turning the
	// associative scan into one compare for re-touched blocks (the
	// common case: hot loads and block-granular reuse). Purely a lookup
	// accelerator: a block lives in at most one way, so confirming the
	// hinted tag returns the same index the scan would; a stale hint
	// just falls through to the scan. Not serialized — a restored cache
	// starts with cold hints and identical results.
	wayHint []uint8

	useTick uint64

	// MSHR state, structure-of-arrays. A slot is in use iff
	// mshrBlock[i] != invalidTag; mshrLow marks prefetch-priority fills
	// (a demand merging onto one promotes the in-flight request).
	mshrBlock []uint64
	mshrDone  []uint64
	mshrLow   []bool

	// mshrMaxDone is the latest completion cycle ever committed to the
	// MSHR file (monotone, and carried through snapshots: a promotion
	// can leave it above every occupied slot's completion).
	// Once the current cycle passes it, every occupied slot is expired, so
	// the per-hit pendingFill scan can return immediately: a scan could
	// only lazily sweep slots, never match one. Expired slots are then
	// cleared by a later sweep.
	mshrMaxDone uint64

	// The MSHR index: derived state kept exact by occupyMSHR, freeMSHR
	// and promoteMSHR, the only writers of mshrBlock and mshrDone, and
	// rebuilt on snapshot decode. It lets the saturated file — an
	// unthrottled prefetcher keeps it over three-quarters full — answer
	// most reserves and in-flight lookups without a slot scan.
	//
	// mshrLive has bit i set iff slot i is occupied (expired or not), and
	// mshrUsed counts the set bits.
	mshrLive []uint64
	mshrUsed int
	// mshrMinDone is a lower bound on every occupied slot's completion
	// cycle. A reserve at a cycle below it has no expired slot to sweep,
	// so it skips the sweep. Promotion moves a completion earlier and so
	// lowers the bound as well.
	mshrMinDone uint64
	// mshrFilter counts the occupied slots per block-hash bucket; a zero
	// bucket proves no slot holds the block. mshrShift maps the
	// multiplicative hash onto the power-of-two bucket count.
	mshrFilter []uint32
	mshrShift  uint

	next Level

	// EvictHook, when non-nil, observes every eviction of a valid block.
	// The PPF filter uses it to detect prefetches that polluted the cache.
	EvictHook func(EvictInfo)
	// UsefulHook, when non-nil, observes the first demand hit to a
	// prefetched block, with the core that issued the prefetch. SPP's
	// global-accuracy counter and PPF's positive training feed from this.
	UsefulHook func(addr uint64, owner int)
	// DemandHook, when non-nil, observes every demand read access after
	// it is serviced. The simulator attaches it to the L2 to trigger
	// prefetching, matching the paper's "prefetching is only triggered
	// upon L2 cache demand accesses".
	DemandHook func(addr uint64, at uint64, hit bool)

	stats Stats
}

// New constructs a cache over the given next level.
func New(cfg Config, next Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if next == nil {
		return nil, fmt.Errorf("cache %q: next level must not be nil", cfg.Name)
	}
	sets := cfg.SizeBytes / BlockSize / cfg.Ways
	n := sets * cfg.Ways
	// Four filter buckets per slot keep a lookup of an absent block on
	// the fast path about four times in five even when the file is full.
	buckets := bits.Len(uint(4*cfg.MSHRs - 1))
	c := &Cache{
		cfg:        cfg,
		sets:       sets,
		ways:       cfg.Ways,
		setMask:    uint64(sets - 1),
		tags:       make([]uint64, n),
		lastUse:    make([]uint64, n),
		flags:      make([]uint8, n),
		owner:      make([]int16, n),
		wayHint:    make([]uint8, sets),
		mshrBlock:  make([]uint64, cfg.MSHRs),
		mshrDone:   make([]uint64, cfg.MSHRs),
		mshrLow:    make([]bool, cfg.MSHRs),
		mshrLive:   make([]uint64, (cfg.MSHRs+63)/64),
		mshrFilter: make([]uint32, 1<<buckets),
		mshrShift:  uint(64 - buckets),
		next:       next,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.mshrBlock {
		c.mshrBlock[i] = invalidTag
	}
	c.rebuildMSHRIndex()
	return c, nil
}

// MustNew is New that panics on error, for statically-valid configs.
func MustNew(cfg Config, next Level) *Cache {
	c, err := New(cfg, next)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters (used after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Sets returns the number of sets (exported for tests and storage audits).
func (c *Cache) Sets() int { return c.sets }

func (c *Cache) setOf(block uint64) int { return int(block & c.setMask) }

// lookup returns the line index of the block, or -1. Invalid slots hold
// invalidTag, so a tag match alone proves residence.
func (c *Cache) lookup(block uint64) int {
	set := c.setOf(block)
	base := set * c.ways
	if h := int(c.wayHint[set]); h < c.ways && c.tags[base+h] == block {
		return base + h
	}
	tags := c.tags[base : base+c.ways]
	for w := range tags {
		if tags[w] == block {
			c.wayHint[set] = uint8(w)
			return base + w
		}
	}
	return -1
}

// Contains reports whether the block holding addr is resident.
func (c *Cache) Contains(addr uint64) bool { return c.lookup(addr>>BlockBits) >= 0 }

// pendingFill returns the MSHR slot index of the in-flight fill for
// block, if one is outstanding and still in the future at cycle `at`.
// Only the first slot holding the block counts: an expired first match
// is cleared and reports no fill.
//
//ppflint:hotpath
func (c *Cache) pendingFill(block, at uint64) (int, bool) {
	if at >= c.mshrMaxDone || c.mshrFilter[c.mshrBucket(block)] == 0 {
		return -1, false
	}
	for i, b := range c.mshrBlock {
		if b == block {
			if c.mshrDone[i] <= at {
				c.freeMSHR(i)
				return -1, false
			}
			return i, true
		}
	}
	return -1, false
}

// reserveMSHR claims an MSHR slot for a new miss at cycle `at`. It returns
// the slot index and the earliest cycle the miss may issue: `at` when a
// slot is free, otherwise the completion cycle of the earliest outstanding
// fill (a structural-hazard stall). The caller must fill the slot with
// commitMSHR once the completion time is known.
//
//ppflint:hotpath
func (c *Cache) reserveMSHR(at uint64) (idx int, start uint64) {
	if at >= c.mshrMaxDone {
		// Quiescent file: every occupied slot is expired, so a sweep
		// would clear them all and hand back slot 0 at cycle `at`.
		// Return that directly and leave the expired slots set for a
		// later sweep (a lookup at an earlier cycle still sees them).
		return 0, at
	}
	c.sweepMSHR(at)
	if c.mshrUsed < len(c.mshrBlock) {
		return c.firstFreeMSHR(), at
	}
	// Every slot is in flight.
	var minDone uint64 = ^uint64(0)
	minIdx := 0
	prefIdx := -1
	var prefMin uint64 = ^uint64(0)
	for i, d := range c.mshrDone {
		if d < minDone {
			minDone = d
			minIdx = i
		}
		if c.mshrLow[i] && d < prefMin {
			prefMin = d
			prefIdx = i
		}
	}
	if prefIdx >= 0 {
		// Sacrifice a prefetch's tracking slot rather than stalling the
		// demand: the speculative fill loses its merge entry (real
		// designs drop prefetches under MSHR pressure) and the demand
		// issues immediately.
		c.freeMSHR(prefIdx)
		return prefIdx, at
	}
	// Structural hazard among demand fills only: the miss issues when
	// the earliest outstanding fill retires.
	c.stats.MSHRFullStalls++
	c.freeMSHR(minIdx)
	return minIdx, minDone
}

// commitMSHR records the outstanding fill in a reserved slot.
//
//ppflint:hotpath
func (c *Cache) commitMSHR(idx int, block, done uint64) {
	c.occupyMSHR(idx, block, done, false)
}

// commitMSHRPrefetch records an outstanding prefetch-priority fill.
//
//ppflint:hotpath
func (c *Cache) commitMSHRPrefetch(idx int, block, done uint64) {
	c.occupyMSHR(idx, block, done, true)
}

// reserveMSHRPrefetch claims a slot for a prefetch fill without ever
// displacing or waiting on outstanding misses: prefetches are dropped
// under MSHR pressure rather than back-pressuring demands, and a quarter
// of the file is kept free for demand traffic.
//
//ppflint:hotpath
func (c *Cache) reserveMSHRPrefetch(at uint64) (idx int, ok bool) {
	if at >= c.mshrMaxDone {
		// Quiescent file (see reserveMSHR): the whole file is free, which
		// always clears the keep-a-quarter-free demand headroom check.
		return 0, true
	}
	c.sweepMSHR(at)
	if len(c.mshrBlock)-c.mshrUsed <= len(c.mshrBlock)/4 {
		return 0, false
	}
	return c.firstFreeMSHR(), true
}

// mshrBucket hashes a block onto its mshrFilter bucket. The Fibonacci
// multiply spreads strided and per-core-tagged block addresses over the
// high bits the shift keeps.
//
//ppflint:hotpath
func (c *Cache) mshrBucket(block uint64) uint64 {
	return (block * 0x9E3779B97F4A7C15) >> c.mshrShift
}

// occupyMSHR records a fill in slot i, replacing whatever the slot held:
// the quiescent fast paths hand back slot 0 with its expired fill still
// set.
//
//ppflint:hotpath
func (c *Cache) occupyMSHR(i int, block, done uint64, low bool) {
	if old := c.mshrBlock[i]; old != invalidTag {
		c.mshrFilter[c.mshrBucket(old)]--
	} else {
		c.mshrLive[i>>6] |= 1 << (i & 63)
		c.mshrUsed++
	}
	c.mshrBlock[i] = block
	c.mshrDone[i] = done
	c.mshrLow[i] = low
	c.mshrFilter[c.mshrBucket(block)]++
	if done > c.mshrMaxDone {
		c.mshrMaxDone = done
	}
	if done < c.mshrMinDone {
		c.mshrMinDone = done
	}
}

// freeMSHR clears occupied slot i. mshrMinDone stays a lower bound.
//
//ppflint:hotpath
func (c *Cache) freeMSHR(i int) {
	c.mshrFilter[c.mshrBucket(c.mshrBlock[i])]--
	c.mshrBlock[i] = invalidTag
	c.mshrLive[i>>6] &^= 1 << (i & 63)
	c.mshrUsed--
}

// promoteMSHR raises occupied slot i to demand priority with completion
// done, which is never later than the slot's current one.
//
//ppflint:hotpath
func (c *Cache) promoteMSHR(i int, done uint64) {
	c.mshrDone[i] = done
	c.mshrLow[i] = false
	if done < c.mshrMinDone {
		c.mshrMinDone = done
	}
}

// sweepMSHR clears every occupied slot whose fill completed by cycle
// `at` and tightens mshrMinDone to the earliest completion left. It
// walks occupied slots only, and only when one can have expired. The
// sweep must clear exactly the slots a full scan would, not merely the
// ones it finds cheaply: `at` is not monotone (a pointer-chase load
// issues at a future cycle, and a shared LLC serves several cores), so
// a slot left set stays visible to a later lookup at an earlier cycle.
//
//ppflint:hotpath
func (c *Cache) sweepMSHR(at uint64) {
	if at < c.mshrMinDone {
		return
	}
	minDone := ^uint64(0)
	for w, word := range c.mshrLive {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if d := c.mshrDone[i]; d <= at {
				c.freeMSHR(i)
			} else if d < minDone {
				minDone = d
			}
		}
	}
	c.mshrMinDone = minDone
}

// firstFreeMSHR returns the lowest-index free slot. The caller ensures
// one exists (mshrUsed < len(mshrBlock)), so the unused high bits of the
// last mshrLive word are never reached.
//
//ppflint:hotpath
func (c *Cache) firstFreeMSHR() int {
	w := 0
	for c.mshrLive[w] == ^uint64(0) {
		w++
	}
	return w<<6 | bits.TrailingZeros64(^c.mshrLive[w])
}

// rebuildMSHRIndex recomputes mshrMaxDone and the MSHR index from the
// slot arrays, at construction and on snapshot decode. The recomputed
// mshrMaxDone bounds the occupied slots only, not every fill ever
// committed, so snapshot decode raises it back to the walked value.
func (c *Cache) rebuildMSHRIndex() {
	clear(c.mshrLive)
	clear(c.mshrFilter)
	c.mshrUsed = 0
	c.mshrMaxDone, c.mshrMinDone = 0, ^uint64(0)
	for i, b := range c.mshrBlock {
		if b == invalidTag {
			continue
		}
		c.mshrLive[i>>6] |= 1 << (i & 63)
		c.mshrUsed++
		c.mshrFilter[c.mshrBucket(b)]++
		c.mshrMaxDone = max(c.mshrMaxDone, c.mshrDone[i])
		c.mshrMinDone = min(c.mshrMinDone, c.mshrDone[i])
	}
}

// victim picks the LRU way in set and returns its line index.
func (c *Cache) victim(set int) int {
	base := set * c.ways
	best := base
	var bestUse uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == invalidTag {
			return i
		}
		if c.lastUse[i] < bestUse {
			bestUse = c.lastUse[i]
			best = i
		}
	}
	return best
}

// insert places block into the cache, evicting as needed, and returns the
// inserted line index. owner is the prefetching core (-1 for demand fills).
func (c *Cache) insert(block uint64, at uint64, prefetched bool, owner int) int {
	idx := c.victim(c.setOf(block))
	if c.tags[idx] != invalidTag {
		fl := c.flags[idx]
		c.stats.Evictions++
		if fl&flagPrefetched != 0 && fl&flagUsed == 0 {
			c.stats.PrefetchUnused++
		}
		if c.EvictHook != nil {
			c.EvictHook(EvictInfo{
				Addr:       c.tags[idx] << BlockBits,
				Prefetched: fl&flagPrefetched != 0,
				Used:       fl&flagUsed != 0,
				Owner:      int(c.owner[idx]),
			})
		}
		if fl&flagDirty != 0 {
			c.stats.Writebacks++
			c.next.Write(c.tags[idx]<<BlockBits, at)
		}
	}
	c.useTick++
	c.tags[idx] = block
	c.lastUse[idx] = c.useTick
	var fl uint8
	if prefetched {
		fl = flagPrefetched
	}
	c.flags[idx] = fl
	c.owner[idx] = int16(owner)
	c.wayHint[c.setOf(block)] = uint8(idx - c.setOf(block)*c.ways)
	return idx
}

// touch refreshes LRU state and prefetch-usefulness bookkeeping on a
// demand hit.
func (c *Cache) touch(idx int, addr uint64) {
	c.useTick++
	c.lastUse[idx] = c.useTick
	if fl := c.flags[idx]; fl&flagPrefetched != 0 && fl&flagUsed == 0 {
		c.flags[idx] = fl | flagUsed
		c.stats.PrefetchUseful++
		if c.UsefulHook != nil {
			c.UsefulHook(addr&^(BlockSize-1), int(c.owner[idx]))
		}
	}
}

// Read implements Level for demand loads and instruction fetches.
func (c *Cache) Read(addr uint64, at uint64) uint64 {
	return c.access(addr, at)
}

// Write implements Level for stores (write-allocate) and writebacks from
// the level above (which arrive as posted writes and are absorbed here).
func (c *Cache) Write(addr uint64, at uint64) {
	block := addr >> BlockBits
	c.stats.WriteAccesses++
	if idx := c.lookup(block); idx >= 0 {
		c.stats.WriteHits++
		c.touchWrite(idx)
		return
	}
	c.stats.WriteMisses++
	// Write-allocate: fetch the block, then dirty it. The store itself is
	// posted, so the returned latency is not propagated to the core.
	idx, start := c.reserveMSHR(at)
	reqAt := at + c.cfg.HitLatency
	if start > reqAt {
		reqAt = start
	}
	done := c.next.Read(addr, reqAt)
	c.commitMSHR(idx, block, done)
	li := c.insert(block, at, false, -1)
	c.flags[li] |= flagDirty
}

func (c *Cache) touchWrite(idx int) {
	c.useTick++
	c.lastUse[idx] = c.useTick
	fl := c.flags[idx]
	c.flags[idx] = fl | flagDirty
	if fl&flagPrefetched != 0 && fl&flagUsed == 0 {
		c.flags[idx] |= flagUsed
		c.stats.PrefetchUseful++
		if c.UsefulHook != nil {
			c.UsefulHook(c.tags[idx]<<BlockBits, int(c.owner[idx]))
		}
	}
}

// access is the demand-read path.
func (c *Cache) access(addr, at uint64) uint64 {
	block := addr >> BlockBits
	c.stats.DemandAccesses++
	var done uint64
	var hit bool
	if idx := c.lookup(block); idx >= 0 {
		c.touch(idx, addr)
		hit = true
		// A hit on a block whose fill is still in flight completes when
		// the fill does (hit-under-miss merge). It counts as a hit for
		// MPKI purposes: the miss was (at least partially) covered.
		if mi, pending := c.pendingFill(block, at); pending {
			c.stats.MSHRMerges++
			if c.flags[idx]&flagPrefetched != 0 {
				c.stats.PrefetchLate++
			}
			done = c.mshrDone[mi]
			if c.mshrLow[mi] {
				// Promote the in-flight prefetch to demand priority: the
				// controller reschedules the request as if it were a
				// fresh demand, and the fill completes at whichever is
				// sooner.
				if promoted := promoteRead(c.next, addr, at); promoted < done {
					done = promoted
				}
				c.promoteMSHR(mi, done)
			}
			c.stats.MergeWaitSum += done - at
		} else {
			done = at + c.cfg.HitLatency
		}
		c.stats.DemandHits++
	} else {
		c.stats.DemandMisses++
		idx, start := c.reserveMSHR(at)
		reqAt := at + c.cfg.HitLatency // tag lookup before the miss issues
		if start > reqAt {
			reqAt = start
		}
		done = c.next.Read(addr, reqAt)
		c.stats.MissLatencySum += done - at
		c.commitMSHR(idx, block, done)
		c.insert(block, at, false, -1)
	}
	if c.DemandHook != nil {
		c.DemandHook(addr, at, hit)
	}
	return done
}

// Prefetch inserts the block containing addr speculatively on behalf of
// core owner. If fillHere is false the prefetch is forwarded to the next
// level (e.g. an L2 prefetch directed to the LLC); the block must not
// already be resident at this level either way — duplicate suggestions
// are dropped rather than re-fetched. It returns the fill completion
// cycle and whether a fill actually happened.
func (c *Cache) Prefetch(addr uint64, at uint64, fillHere bool, owner int) (uint64, bool) {
	block := addr >> BlockBits
	if c.lookup(block) >= 0 {
		c.stats.PrefetchDropped++
		return at, false
	}
	if mi, pending := c.pendingFill(block, at); pending {
		c.stats.PrefetchDropped++
		return c.mshrDone[mi], false
	}
	if !fillHere {
		if nc, ok := c.next.(*Cache); ok {
			return nc.Prefetch(addr, at, true, owner)
		}
		// Next level is DRAM; nothing to fill into. This only happens in
		// deliberately truncated test hierarchies.
		return c.next.Read(addr, at), false
	}
	idx, ok := c.reserveMSHRPrefetch(at)
	if !ok {
		// No MSHR headroom at this level: demote the prefetch to the
		// next cache level instead of losing it (a full prefetch queue
		// redirects, it does not silently discard coverage).
		if nc, isCache := c.next.(*Cache); isCache {
			return nc.Prefetch(addr, at, true, owner)
		}
		c.stats.PrefetchDropped++
		return at, false
	}
	done := readForPrefetch(c.next, addr, at+c.cfg.HitLatency, owner)
	c.commitMSHRPrefetch(idx, block, done)
	c.insert(block, at, true, owner)
	c.stats.PrefetchFills++
	return done, true
}

// PrefetchSource is implemented by levels that can service reads on
// behalf of prefetch fills at lower priority than demand reads. owner is
// the prefetching core, threaded through so intermediate allocations
// route their feedback correctly.
type PrefetchSource interface {
	ReadPrefetch(addr uint64, at uint64, owner int) uint64
}

// readForPrefetch sources data for a prefetch fill from the next level
// without perturbing that level's demand statistics or usefulness
// tracking, and at prefetch (low) priority in the memory controller.
func readForPrefetch(next Level, addr, at uint64, owner int) uint64 {
	if ps, ok := next.(PrefetchSource); ok {
		return ps.ReadPrefetch(addr, at, owner)
	}
	return next.Read(addr, at)
}

// ReadPrefetch services a read on behalf of an upper-level prefetch. It
// behaves like a demand read for timing, but counts separately, never
// fires DemandHook/UsefulHook, and does not mark prefetched lines used.
// As in ChampSim's fill path, the returning block is also allocated at
// this level: an upper-level prefetch fill leaves a copy in the caches it
// passed through, so a block racing out of the small L2 is still close by
// and re-suggestions upgrade cheaply instead of re-reading DRAM.
// It implements PrefetchSource.
func (c *Cache) ReadPrefetch(addr, at uint64, owner int) uint64 {
	block := addr >> BlockBits
	c.stats.PrefetchReads++
	if idx := c.lookup(block); idx >= 0 {
		c.stats.PrefetchReadHit++
		c.useTick++
		c.lastUse[idx] = c.useTick
		if mi, pending := c.pendingFill(block, at); pending {
			return c.mshrDone[mi]
		}
		return at + c.cfg.HitLatency
	}
	idx, ok := c.reserveMSHRPrefetch(at)
	if !ok {
		// No MSHR headroom: the read is serviced without tracking or
		// allocation (the requesting level still bounds its own
		// outstanding fills).
		return readForPrefetch(c.next, addr, at+c.cfg.HitLatency, owner)
	}
	done := readForPrefetch(c.next, addr, at+c.cfg.HitLatency, owner)
	c.commitMSHRPrefetch(idx, block, done)
	c.insert(block, at, true, owner)
	return done
}

// Promoter is implemented by levels that can re-prioritise an in-flight
// prefetch fill when a demand merges onto it.
type Promoter interface {
	PromoteRead(addr uint64, at uint64) uint64
}

// promoteRead propagates a merge-promotion down the hierarchy and returns
// the promoted completion estimate.
func promoteRead(next Level, addr, at uint64) uint64 {
	if p, ok := next.(Promoter); ok {
		return p.PromoteRead(addr, at)
	}
	return next.Read(addr, at)
}

// PromoteRead implements Promoter: if this level is still waiting on the
// block it promotes its own pending request downstream; if the block is
// resident the data is a hit away; otherwise the promotion falls through.
func (c *Cache) PromoteRead(addr, at uint64) uint64 {
	block := addr >> BlockBits
	if mi, pending := c.pendingFill(block, at); pending {
		if c.mshrLow[mi] {
			done := c.mshrDone[mi]
			if promoted := promoteRead(c.next, addr, at); promoted < done {
				done = promoted
			}
			c.promoteMSHR(mi, done)
		}
		return c.mshrDone[mi]
	}
	if c.lookup(block) >= 0 {
		return at + c.cfg.HitLatency
	}
	return promoteRead(c.next, addr, at)
}
