package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/snap"
)

// Snapshot envelope: the walker stream is positional with no internal
// redundancy, so a corrupted blob that happens to parse would restore a
// machine full of garbage — including an instCount that sends Restore's
// trace replay loop spinning for what might as well be forever. The
// envelope makes corruption a deterministic error instead: magic(4) |
// version(4) | payload length(8) | CRC-32 of payload(4) | payload.
const (
	snapMagic = 0x5050534E // "PPSN"
	// Version history: 1 = original layout; 2 = record-table entries
	// carry the full Decision byte (was a bool issued flag), so a v1
	// payload would decode issued entries into the wrong verdicts; 3 =
	// each cache walks its MSHR completion bound (was recomputed on
	// decode, which a promotion could make resume differently).
	snapVersion = 3
	snapHdrLen  = 20
)

// ErrBadSnapshot reports a snapshot whose envelope failed validation.
var ErrBadSnapshot = errors.New("sim: malformed snapshot")

// sealSnapshot wraps a walker payload in the checksummed envelope.
func sealSnapshot(payload []byte) []byte {
	out := make([]byte, snapHdrLen, snapHdrLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], snapMagic)
	binary.LittleEndian.PutUint32(out[4:8], snapVersion)
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:20], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// openSnapshot validates the envelope and returns the walker payload.
func openSnapshot(data []byte) ([]byte, error) {
	if len(data) < snapHdrLen {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrBadSnapshot, len(data), snapHdrLen)
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != snapMagic {
		return nil, fmt.Errorf("%w: bad magic 0x%08x", ErrBadSnapshot, m)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != snapVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	payload := data[snapHdrLen:]
	if n != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, have %d", ErrBadSnapshot, n, len(payload))
	}
	want := binary.LittleEndian.Uint32(data[16:20])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrBadSnapshot, want, got)
	}
	return payload, nil
}

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
		c.clampLoadDone(s.cycle)
	}
	w := snap.NewEncoder()
	s.snapshotWalk(w)
	payload, err := w.Bytes()
	if err != nil {
		return nil, err
	}
	return sealSnapshot(payload), nil
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
	payload, err := openSnapshot(data)
	if err != nil {
		return err
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

// clampLoadDone zeroes loadDone entries at or before the current
// cycle. Dependency resolution only ever compares an entry against an
// issue cycle that is strictly greater than the clock when the entry
// is consulted, so entries in the past can never win the comparison —
// clamping them is semantically invisible, and it turns the ring into
// a mostly-zero buffer that compresses well on disk.
func (c *Core) clampLoadDone(cycle uint64) {
	for i, v := range c.loadDone {
		if v <= cycle {
			c.loadDone[i] = 0
		}
	}
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
