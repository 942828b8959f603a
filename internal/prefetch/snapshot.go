package prefetch

import (
	"fmt"
	"slices"

	"repro/internal/snap"
)

// Snapshotter is implemented by prefetchers whose state can be
// serialized into a post-warmup machine snapshot (internal/snap). All
// built-in prefetchers implement it; a prefetcher that does not makes
// the owning system unsnapshottable, and callers fall back to cold
// simulation.
type Snapshotter interface {
	SnapshotWalk(w *snap.Walker)
}

// SnapshotWalk implements Snapshotter; Nil has no state.
func (Nil) SnapshotWalk(*snap.Walker) {}

// SnapshotWalk serializes SPP's signature, pattern and global-history
// tables plus the global accuracy and depth accounting.
func (s *SPP) SnapshotWalk(w *snap.Walker) {
	for i := range s.st {
		s.st[i].snapshotWalk(w)
	}
	for i := range s.pt {
		s.pt[i].snapshotWalk(w)
	}
	for i := range s.ghr {
		s.ghr[i].snapshotWalk(w)
	}
	w.Int(&s.cTotal)
	w.Int(&s.cUseful)
	w.Uint64(&s.depthSum)
	w.Uint64(&s.depthCount)
	w.Uint64(&s.issued)
	w.Static(s.cfg, s.burst, s.acc)
}

func (e *sppSTEntry) snapshotWalk(w *snap.Walker) {
	w.Bool(&e.valid)
	w.Uint64(&e.tag)
	w.Int(&e.lastOffset)
	w.Uint16(&e.signature)
}

// The derived confidence caches (cd/order/best*) are pure functions of
// the walked fields, so they stay Static — the encoding is unchanged
// from before they existed — and decode recomputes them. Zero entries
// skip refresh so a restored table is field-identical to a fresh one.
// Decode rejects a counter outside its 4-bit range, which would index
// past sppCdTab.
func (e *sppPTEntry) snapshotWalk(w *snap.Walker) {
	w.Int(&e.cSig)
	w.Ints(e.deltas[:])
	w.Ints(e.cDelta[:])
	w.Bools(e.used[:])
	w.Static(e.cd, e.bestWay, e.bestC, e.bestEnc, e.bestDelta, e.order, e.nUsed, e.firstFree)
	switch {
	case !w.Decoding():
	case e.cSig < 0 || e.cSig > sppCSigMax || slices.ContainsFunc(e.cDelta[:], func(c int) bool { return c < 0 || c > sppCDeltaMax }):
		w.Check(fmt.Errorf("prefetch: SPP pattern counters (signature %d, deltas %v) outside their 4-bit range", e.cSig, e.cDelta))
	case e.cSig > 0:
		e.refresh()
	}
}

func (e *sppGHREntry) snapshotWalk(w *snap.Walker) {
	w.Bool(&e.valid)
	w.Uint16(&e.signature)
	w.Int(&e.confidence)
	w.Int(&e.lastOffset)
	w.Int(&e.delta)
}

// SnapshotWalk serializes BOP's recent-requests table, per-offset
// scores and round state. The candidate offset list is fixed at
// construction from the config.
func (b *BOP) SnapshotWalk(w *snap.Walker) {
	for i := range b.rr {
		w.Bool(&b.rr[i].valid)
		w.Uint16(&b.rr[i].tag)
	}
	w.Ints(b.scores)
	w.Int(&b.round)
	w.Int(&b.testIdx)
	if w.Decoding() && (b.testIdx < 0 || b.testIdx >= len(b.offsets)) {
		w.Check(fmt.Errorf("prefetch: BOP test index %d outside its %d offsets", b.testIdx, len(b.offsets)))
	}
	w.Int(&b.bestOff)
	w.Int(&b.bestScore)
	w.Bool(&b.enabled)
	w.Static(b.cfg, b.offsets, b.burst, b.acc)
}

// SnapshotWalk serializes AMPM's zone table and LRU tick.
func (a *AMPM) SnapshotWalk(w *snap.Walker) {
	for i := range a.zones {
		a.zones[i].snapshotWalk(w)
	}
	w.Uint64(&a.tick)
	w.Static(a.cfg, a.burst, a.acc)
}

func (z *ampmZone) snapshotWalk(w *snap.Walker) {
	w.Bool(&z.valid)
	w.Uint64(&z.page)
	w.Uint64(&z.accessed)
	w.Uint64(&z.prefetched)
	w.Uint64(&z.lastUse)
}

// SnapshotWalk serializes VLDP's history buffer and delta/offset
// prediction tables.
func (v *VLDP) SnapshotWalk(w *snap.Walker) {
	for i := range v.dhb {
		v.dhb[i].snapshotWalk(w)
	}
	for i := range v.dpt {
		for j := range v.dpt[i] {
			v.dpt[i][j].snapshotWalk(w)
		}
	}
	for i := range v.opt {
		v.opt[i].snapshotWalk(w)
	}
	w.Uint64(&v.tick)
	w.Static(v.cfg)
}

func (e *vldpDHBEntry) snapshotWalk(w *snap.Walker) {
	w.Bool(&e.valid)
	w.Uint64(&e.page)
	w.Int(&e.lastOffset)
	w.Ints(e.deltas[:])
	w.Int(&e.numDeltas)
	if w.Decoding() && (e.numDeltas < 0 || e.numDeltas > vldpMaxHistory) {
		w.Check(fmt.Errorf("prefetch: VLDP history length %d outside [0, %d]", e.numDeltas, vldpMaxHistory))
	}
	w.Uint64(&e.lastUse)
}

func (e *vldpDPTEntry) snapshotWalk(w *snap.Walker) {
	w.Bool(&e.valid)
	w.Uint32(&e.tag)
	w.Int(&e.delta)
	w.Int(&e.conf)
}

// SnapshotWalk serializes SMS's accumulation and pattern-history
// tables.
func (s *SMS) SnapshotWalk(w *snap.Walker) {
	for i := range s.at {
		s.at[i].snapshotWalk(w)
	}
	for i := range s.pht {
		s.pht[i].snapshotWalk(w)
	}
	w.Uint64(&s.tick)
	w.Static(s.cfg)
}

func (e *smsATEntry) snapshotWalk(w *snap.Walker) {
	w.Bool(&e.valid)
	w.Uint64(&e.region)
	w.Uint64(&e.trigger)
	w.Uint32(&e.footprint)
	w.Uint64(&e.lastUse)
}

func (e *smsPHTEntry) snapshotWalk(w *snap.Walker) {
	w.Bool(&e.valid)
	w.Uint32(&e.tag)
	w.Uint32(&e.footprint)
}

// SnapshotWalk serializes Sandbox's per-candidate evaluation slots.
// The slot count is fixed by the candidate offset list.
func (s *Sandbox) SnapshotWalk(w *snap.Walker) {
	for i := range s.slots {
		s.slots[i].snapshotWalk(w)
	}
	w.Int(&s.current)
	if w.Decoding() && (s.current < 0 || s.current >= len(s.slots)) {
		w.Check(fmt.Errorf("prefetch: Sandbox slot %d outside its %d slots", s.current, len(s.slots)))
	}
	w.Int(&s.accs)
	w.Static(s.cfg)
}

func (sl *sandboxSlot) snapshotWalk(w *snap.Walker) {
	w.Int(&sl.offset)
	w.Int(&sl.score)
	w.Uint64s(sl.bloom[:])
}

// SnapshotWalk implements Snapshotter; NextLine's only field is its
// configured degree.
func (p *NextLine) SnapshotWalk(w *snap.Walker) {
	w.Static(p.Degree)
}

// SnapshotWalk serializes the stride table; Degree is configuration.
func (s *Stride) SnapshotWalk(w *snap.Walker) {
	for i := range s.table {
		s.table[i].snapshotWalk(w)
	}
	w.Static(s.Degree)
}

func (e *strideEntry) snapshotWalk(w *snap.Walker) {
	w.Bool(&e.valid)
	w.Uint64(&e.tag)
	w.Uint64(&e.lastAddr)
	w.Int64(&e.stride)
	w.Int(&e.conf)
}
