package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/snap"
)

// SnapshotWalk serializes the cache's mutable state — live lines,
// MSHRs, the LRU clock and statistics — through one walk shared by the
// encode and decode directions (see internal/snap). Geometry and
// wiring are not serialized: the restoring machine is built from the
// same Config (pinned by the snapshot's cache key), so cfg, sets, ways
// and setMask are already correct, and next/hooks point at the fresh
// machine's own structures.
//
// Only live lines are walked: those holding a block (tag !=
// invalidTag). Lines are never invalidated, so an empty line is all
// zeros behind its invalidTag, and a warmed cache is still mostly empty
// lines. The stream is a bitmap of the live lines, recomputed from the
// tags on every encode, then each live line's tag, LRU stamp, flags and
// owner in index order. Decode starts from empty lines and latches an
// error for a live bit past the last line, and for a live line whose
// tag is invalidTag or belongs to another set.
func (c *Cache) SnapshotWalk(w *snap.Walker) {
	live := make([]uint64, (len(c.tags)+63)/64)
	for i, t := range c.tags {
		if w.Decoding() {
			c.tags[i], c.lastUse[i], c.flags[i], c.owner[i] = invalidTag, 0, 0, 0
		} else if t != invalidTag {
			live[i>>6] |= 1 << (i & 63)
		}
	}
	w.Uint64s(live)
	for k, word := range live {
		for ; word != 0; word &= word - 1 {
			i := k<<6 | bits.TrailingZeros64(word)
			if i >= len(c.tags) {
				w.Check(fmt.Errorf("cache %q: live bit %d past the last of %d lines", c.cfg.Name, i, len(c.tags)))
				return
			}
			w.Uint64(&c.tags[i])
			w.Uint64(&c.lastUse[i])
			w.Uint8(&c.flags[i])
			w.Int16(&c.owner[i])
			if t := c.tags[i]; w.Decoding() && (t == invalidTag || c.setOf(t) != i/c.ways) {
				w.Check(fmt.Errorf("cache %q: line %d (set %d) holds tag %#x", c.cfg.Name, i, i/c.ways, t))
				return
			}
		}
	}
	w.Uint64(&c.useTick)
	w.Uint64s(c.mshrBlock)
	w.Uint64s(c.mshrDone)
	w.Bools(c.mshrLow)
	// mshrMaxDone is walked, not recomputed: a promotion moves a fill's
	// completion earlier without lowering it, so the occupied slots can
	// understate it, and a lower bound would send a later reserve down
	// a quiescent fast path the uninterrupted run does not take. Decode
	// keeps the larger of the walked and recomputed bounds, so the bound
	// covers every occupied slot even in a hand-made stream. The MSHR
	// index is derived from the slot arrays, so it stays Static and
	// decode rebuilds it.
	w.Uint64(&c.mshrMaxDone)
	w.Static(c.mshrLive, c.mshrUsed, c.mshrMinDone, c.mshrFilter, c.mshrShift)
	if w.Decoding() {
		walked := c.mshrMaxDone
		c.rebuildMSHRIndex()
		c.mshrMaxDone = max(c.mshrMaxDone, walked)
	}
	c.stats.SnapshotWalk(w)
	// wayHint is a pure lookup accelerator: stale or cold hints are
	// verified against the tag array before use, so a restored cache with
	// zeroed hints behaves identically.
	w.Static(c.wayHint)
	w.Static(c.cfg, c.sets, c.ways, c.setMask, c.next,
		c.EvictHook, c.UsefulHook, c.DemandHook)
}

// SnapshotWalk round-trips every cache counter.
func (s *Stats) SnapshotWalk(w *snap.Walker) {
	w.Uint64(&s.DemandAccesses)
	w.Uint64(&s.DemandHits)
	w.Uint64(&s.DemandMisses)
	w.Uint64(&s.WriteAccesses)
	w.Uint64(&s.WriteHits)
	w.Uint64(&s.WriteMisses)
	w.Uint64(&s.PrefetchFills)
	w.Uint64(&s.PrefetchUseful)
	w.Uint64(&s.PrefetchLate)
	w.Uint64(&s.PrefetchUnused)
	w.Uint64(&s.Evictions)
	w.Uint64(&s.Writebacks)
	w.Uint64(&s.MSHRMerges)
	w.Uint64(&s.MSHRFullStalls)
	w.Uint64(&s.PrefetchDropped)
	w.Uint64(&s.PrefetchReads)
	w.Uint64(&s.PrefetchReadHit)
	w.Uint64(&s.MissLatencySum)
	w.Uint64(&s.MergeWaitSum)
}
