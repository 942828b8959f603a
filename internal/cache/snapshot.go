package cache

import "repro/internal/snap"

// SnapshotWalk serializes the cache's mutable state — line arrays,
// MSHRs, the LRU clock and statistics — through one walk shared by the
// encode and decode directions (see internal/snap). Geometry and
// wiring are not serialized: the restoring machine is built from the
// same Config (pinned by the snapshot's cache key), so cfg, sets, ways
// and setMask are already correct, and next/hooks point at the fresh
// machine's own structures.
func (c *Cache) SnapshotWalk(w *snap.Walker) {
	w.Uint64s(c.tags)
	w.Uint64s(c.lastUse)
	w.Uint8s(c.flags)
	w.Int16s(c.owner)
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
