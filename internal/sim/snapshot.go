package sim

import (
	"errors"
	"fmt"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/snap"
)

// A machine snapshot is its walker stream sealed (snap.SealWalk) under
// snapMagic and snapVersion, with no tag. The stream is positional with no
// internal redundancy, so a corrupted blob that happens to parse would
// restore a machine full of garbage — including an instCount that sends
// Restore's trace replay loop spinning for what might as well be
// forever. The seal's checksum makes corruption a deterministic error
// instead.
const (
	snapMagic = 0x5050534E // "PPSN"
	// Version history: 1 = original layout; 2 = record-table entries
	// carry the full Decision byte (was a bool issued flag), so a v1
	// payload would decode issued entries into the wrong verdicts; 3 =
	// each cache walks its MSHR completion bound (was recomputed on
	// decode, which a promotion could make resume differently); 4 = each
	// core's loadDone ring is sized to its ROB (was 65,536 entries); 5 =
	// the frame is snap.Seal's (an empty tag, and the CRC-32 follows the
	// payload instead of preceding it), with the same walker stream; 6 =
	// caches walk only their live lines behind a bitmap, and record-table
	// entries walk only their valid byte when invalid and only the live
	// features' indices when valid.
	snapVersion = 6
)

// ErrBadSnapshot reports a snapshot whose seal failed validation.
var ErrBadSnapshot = errors.New("sim: malformed snapshot")

// Snapshot serializes the machine's complete mutable state — clock,
// caches, DRAM, predictors, prefetchers, filters, per-core pipeline
// state — so a later Restore on an identically-configured fresh system
// resumes execution bit-identically. It is intended to be taken at the
// warmup/detail boundary: Restore followed by RunDetail produces the
// same Result as RunWarmup followed by RunDetail (the resume goldens
// in resume_test.go pin this).
//
// Trace readers are not serialized: workload streams are pure
// functions of (workload, seed), so Restore replays the restoring
// system's own fresh readers forward instead.
func (s *System) Snapshot() ([]byte, error) {
	for _, c := range s.cores {
		if _, ok := c.pf.(prefetch.Snapshotter); !ok {
			return nil, fmt.Errorf("sim: core %d prefetcher %q is not snapshottable", c.id, c.pf.Name())
		}
	}
	return snap.SealWalk(snapMagic, snapVersion, nil, s.snapshotWalk)
}

// Restore loads a Snapshot into a fresh (never-run) system built from
// the same configuration, workloads and seeds as the snapshotted one.
// On error the system is in an undefined state and must be discarded.
func (s *System) Restore(data []byte) error {
	if s.cycle != 0 || s.ticks != 0 {
		return errors.New("sim: Restore requires a fresh system")
	}
	for _, c := range s.cores {
		if _, ok := c.pf.(prefetch.Snapshotter); !ok {
			return fmt.Errorf("sim: core %d prefetcher %q is not snapshottable", c.id, c.pf.Name())
		}
	}
	tag, payload, err := snap.Unseal(data, snapMagic, snapVersion)
	if err == nil && len(tag) != 0 {
		err = fmt.Errorf("unexpected %d-byte tag", len(tag))
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	w := snap.NewDecoder(payload)
	s.snapshotWalk(w)
	if err := w.Finish(); err != nil {
		return err
	}
	// Re-position each core's trace reader by replaying the instructions
	// the snapshotted core had already fetched. Streams are deterministic,
	// so the reader ends up exactly where the snapshotted one was.
	for _, c := range s.cores {
		for i := uint64(0); i < c.instCount; i++ {
			if _, ok := c.reader.Next(); !ok {
				return fmt.Errorf("sim: core %d trace ended at instruction %d of %d during restore",
					c.id, i, c.instCount)
			}
		}
	}
	return nil
}

func (s *System) snapshotWalk(w *snap.Walker) {
	w.Uint64(&s.cycle)
	w.Uint64(&s.ticks)
	s.llc.SnapshotWalk(w)
	s.mem.SnapshotWalk(w)
	for _, c := range s.cores {
		c.snapshotWalk(w)
	}
	w.Static(s.cfg, s.legacyLoop)
}

func (c *Core) snapshotWalk(w *snap.Walker) {
	c.bp.SnapshotWalk(w)
	c.l1i.SnapshotWalk(w)
	c.l1d.SnapshotWalk(w)
	c.l2.SnapshotWalk(w)
	if ps, ok := c.pf.(prefetch.Snapshotter); ok {
		ps.SnapshotWalk(w)
	}
	if c.filter != nil {
		c.filter.SnapshotWalk(w)
	}
	w.Uint64s(c.rob)
	w.Int(&c.robHead)
	w.Int(&c.robCount)
	if w.Decoding() && (c.robHead < 0 || c.robHead >= len(c.rob) || c.robCount < 0 || c.robCount > len(c.rob)) {
		w.Check(fmt.Errorf("sim: core %d ROB head %d and count %d outside its %d entries", c.id, c.robHead, c.robCount, len(c.rob)))
	}
	w.Uint64s(c.loadDone)
	w.Uint64(&c.instCount)
	w.Uint64(&c.fetchStallUntil)
	w.Uint64(&c.lastPCBlock)
	w.Uint64(&c.curPC)
	w.Bool(&c.curIsData)
	w.Uint64(&c.curCycle)
	w.Uint64(&c.retired)
	w.Uint64(&c.robStalls)
	w.Uint64(&c.fetchStalls)
	w.Uint64(&c.candidates)
	w.Uint64(&c.pfIssued)
	w.Uint64(&c.pfUseful)
	w.Bool(&c.traceDone)
	w.Bool(&c.finishedRun)
	w.Uint64(&c.finishCycle)
	w.Uint64(&c.retiredStart)
	w.Uint64(&c.startCycle)
	// bpf/bsink are wiring (the batch view of pf and the burst sink
	// closure), re-derived by wire() on restore like emit.
	w.Static(c.id, c.cfg, c.reader, c.emit, c.bpf, c.bsink)
}

// SnapshotWalk serializes a Result; the disk-backed run cache stores
// results in this encoding, so adding a Result field without walking
// it here is caught by the ppflint snapshot analyzer.
func (r *Result) SnapshotWalk(w *snap.Walker) {
	// A Result's geometry is one entry per core; cap the decoded count so
	// a corrupt stream cannot demand a multi-gigabyte allocation.
	n := len(r.PerCore)
	w.LenCapped(&n, 1024)
	if n != len(r.PerCore) {
		r.PerCore = make([]CoreResult, n)
	}
	for i := range r.PerCore {
		r.PerCore[i].snapshotWalk(w)
	}
	r.LLC.SnapshotWalk(w)
	r.DRAM.SnapshotWalk(w)
	w.Uint64(&r.Cycles)
}

func (cr *CoreResult) snapshotWalk(w *snap.Walker) {
	w.Uint64(&cr.Instructions)
	w.Uint64(&cr.Cycles)
	w.Float64(&cr.IPC)
	cr.L1D.SnapshotWalk(w)
	cr.L2.SnapshotWalk(w)
	w.Float64(&cr.BranchMPKI)
	w.Uint64(&cr.Candidates)
	w.Uint64(&cr.PrefetchesIssued)
	w.Uint64(&cr.PrefetchesUseful)
	w.Uint64(&cr.ROBStallCycles)
	w.Uint64(&cr.FetchStallCycles)
	hasFilter := cr.Filter != nil
	w.Bool(&hasFilter)
	switch {
	case hasFilter && cr.Filter == nil:
		cr.Filter = new(ppf.Stats)
	case !hasFilter:
		cr.Filter = nil
	}
	if hasFilter {
		cr.Filter.SnapshotWalk(w)
	}
	w.Float64(&cr.AvgLookaheadDepth)
}

// EncodeResult serializes r for the disk-backed run cache.
func EncodeResult(r Result) ([]byte, error) {
	w := snap.NewEncoder()
	r.SnapshotWalk(w)
	return w.Bytes()
}

// DecodeResult parses a stream produced by EncodeResult.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	w := snap.NewDecoder(data)
	r.SnapshotWalk(w)
	if err := w.Finish(); err != nil {
		return Result{}, err
	}
	return r, nil
}
