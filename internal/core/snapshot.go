package core

import (
	"fmt"

	"repro/internal/snap"
)

// SnapshotWalk serializes the filter's learned and architectural
// state: all perceptron weight tables, the prefetch and reject record
// tables, the PC history, the issue sequence and statistics. The
// scratch memo (scratchIdx/scratchFor/scratchValid) is a pure
// per-candidate cache — Decide recomputes it whenever the input does
// not match exactly — so restoring without it cannot change any
// decision. OnTrainEvent and its buffer are observer wiring the
// restoring caller re-attaches if it wants the training stream.
// The weight plane is walked as per-feature sub-slices in table order —
// the same byte stream the former slice-of-slices layout produced, so
// flat-plane snapshots interchange with v2 snapshots without a version
// bump (TestSnapshotStableAcrossLayout pins the encoding).
func (f *Filter) SnapshotWalk(w *snap.Walker) {
	for i := 0; i < f.nf; i++ {
		lo, hi := f.base[i], f.base[i]+f.fmask[i]+1
		w.Int8s(f.plane[lo:hi])
	}
	fmask := f.fmask[:f.nf]
	for i := range f.prefetchTable {
		f.prefetchTable[i].snapshotWalk(w, fmask)
	}
	for i := range f.rejectTable {
		f.rejectTable[i].snapshotWalk(w, fmask)
	}
	w.Uint64s(f.pcHist[:])
	w.Uint64(&f.issueSeq)
	f.stats.SnapshotWalk(w)
	w.Static(f.cfg, f.features,
		f.nf, f.base, f.fmask, f.kinds, f.defaultSet,
		f.scratchIdx, f.scratchFor, f.scratchValid,
		f.OnTrainEvent, f.trainBuf)
}

// snapshotWalk walks one record entry against the filter's per-feature
// index masks. An invalid entry is its valid byte alone and decodes to
// the zero entry: no path reads an invalid entry's other fields. A
// valid entry walks the indices of the len(fmask) live features only,
// and decode latches an error for an index past its feature's table.
func (e *recordEntry) snapshotWalk(w *snap.Walker, fmask []uint32) {
	if w.Decoding() {
		*e = recordEntry{}
	}
	w.Bool(&e.valid)
	if !e.valid {
		return
	}
	w.Uint16(&e.tag)
	w.Bool(&e.useful)
	e.decision.SnapshotWalk(w)
	w.Uint64(&e.seq)
	w.Uint16s(e.idx[:len(fmask)])
	for i, x := range e.idx[:len(fmask)] {
		if w.Decoding() && uint32(x) > fmask[i] {
			w.Check(fmt.Errorf("core: record index %d past feature %d's %d-entry table", x, i, fmask[i]+1))
			return
		}
	}
}

// SnapshotWalk round-trips a Decision as one byte. The decode direction
// validates the byte through ParseDecision, so a corrupt or misaligned
// stream latches ErrBadDecision instead of restoring a verdict that
// does not exist — record-table entries carry the perceptron decision,
// making this part of every filter snapshot.
//
//ppflint:hotpath
func (d *Decision) SnapshotWalk(w *snap.Walker) {
	b := uint8(*d)
	w.Uint8(&b)
	if w.Decoding() {
		v, err := ParseDecision(b)
		if w.Check(err) {
			*d = v
		}
	}
}

// SnapshotWalk round-trips every filter counter.
//
//ppflint:hotpath
func (s *Stats) SnapshotWalk(w *snap.Walker) {
	w.Uint64(&s.Inferences)
	w.Uint64(&s.IssuedL2)
	w.Uint64(&s.IssuedLLC)
	w.Uint64(&s.Dropped)
	w.Uint64(&s.Squashed)
	w.Uint64(&s.TrainPositive)
	w.Uint64(&s.TrainNegative)
	w.Uint64(&s.FalseNegatives)
	w.Uint64(&s.UsefulIssued)
	w.Uint64(&s.EvictUnused)
	w.Uint64(&s.Boundary)
}
