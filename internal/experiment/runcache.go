package experiment

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/simstore"
	"repro/internal/workload"
)

// RunCache memoizes single-core simulation cells across experiments. The
// suite re-simulates many identical (config, scheme, workload, seed,
// budget) cells — Figure 10 reruns every Figure 9 cell for its coverage
// numbers, and the ablation, generality and threshold studies all share
// the same no-prefetch baselines — so one cache shared across a
// cmd/experiments invocation collapses each unique cell to a single
// simulation. Results are immutable once computed: callers receive
// defensive copies, so no experiment can corrupt another's numbers
// through a shared slice or Stats pointer.
//
// With a disk store attached (AttachStore), the cache additionally
// persists across invocations in two layers. Layer 1 stores encoded
// sim.Results under the full cell key, so re-requesting a cell in a
// later process is free. Layer 2 stores post-warmup machine snapshots
// under the cell key's warmup prefix, so a cell that misses layer 1
// but shares (config, scheme, workload, seed, warmup) with any earlier
// cell resumes its detail phase from the snapshot instead of
// re-simulating the warmup.
//
// Correctness rests on two properties. First, the key is a canonical,
// content-complete rendering of every input that determines a run's
// outcome (sim.Config.CanonicalKey covers the machine; scheme, workload
// identity, seed and budget cover the rest — workload streams are pure
// functions of name and seed). Second, simulations are deterministic, so
// replaying a cached result — or resuming from a snapshot; the resume
// goldens in internal/sim pin bit-identical results — is
// indistinguishable from re-simulating. The skip/memo goldens in
// cache_test.go assert rendered experiment output is byte-identical
// with and without the cache, and diskcache_test.go asserts the same
// across cold and warm store runs.
type RunCache struct {
	memo  *runner.Memo[sim.Result]
	store simstore.Backend
	// fabric, when non-nil, replaces local simulation of store-missed
	// cells: the cell is described by a CellSpec and handed to the fleet
	// (internal/sweepfab's coordinator), which returns the result once a
	// worker has published it to the shared store. The memo above is
	// the fleet's one single-flight: it hands each cell key to the
	// fabric once.
	fabric func(CellSpec) sim.Result
}

// NewRunCache returns an empty cache, ready to share across Execs.
func NewRunCache() *RunCache {
	return &RunCache{memo: runner.NewMemo[sim.Result]()}
}

// AttachStore adds the persistent layers behind st — a store on disk
// or on a ppfstored server, or the tiered composition of the two; the
// run cache is agnostic. The in-memory memo still deduplicates within the process
// (and single-flights concurrent requests); the store serves and
// persists the memo's misses.
func (rc *RunCache) AttachStore(st simstore.Backend) { rc.store = st }

// Store returns the attached store backend, or nil.
func (rc *RunCache) Store() simstore.Backend { return rc.store }

// SetCellRunner routes store-missed cells through fn instead of the
// local simulator. The coordinator of a distributed sweep installs its
// lease-and-fetch path here, after attaching the shared store; fn sees
// only store misses, so without a store it is never called. Everything
// above this hook (experiments, Exec, the memo) is unchanged.
func (rc *RunCache) SetCellRunner(fn func(CellSpec) sim.Result) { rc.fabric = fn }

// Stats reports cumulative in-memory cache hits and misses.
func (rc *RunCache) Stats() (hits, misses uint64) { return rc.memo.Stats() }

// ReportLine renders the post-run summary cmd/experiments prints.
func (rc *RunCache) ReportLine() string {
	line := "run cache: " + rc.memo.ReportLine()
	if rc.store != nil {
		line += "; " + rc.store.ReportLine()
	}
	return line
}

// warmupKey canonically identifies a cell's warmup prefix: everything
// that determines the machine state at the warmup/detail boundary.
// Cells that differ only in detail budget share it, and with it the
// stored post-warmup snapshot.
func warmupKey(cfg sim.Config, s Scheme, w workload.Workload, seed uint64, warmup uint64) string {
	return fmt.Sprintf("%s|%s|%s/%s|seed=%d|warmup=%d",
		cfg.CanonicalKey(), s, w.Suite, w.Name, seed, warmup)
}

// cellKey canonically identifies one single-machine simulation cell:
// the warmup prefix plus the detail budget. Workloads are identified
// by suite and name: the generator stream is a pure function of
// (name, seed), so two Workload values with the same identity produce
// identical traces.
func cellKey(cfg sim.Config, s Scheme, w workload.Workload, seed uint64, b Budget) string {
	return warmupKey(cfg, s, w, seed, b.Warmup) + fmt.Sprintf("|detail=%d", b.Detail)
}

// cloneResult deep-copies the parts of a sim.Result that alias mutable
// storage, so cached results can be handed to multiple experiments.
func cloneResult(r sim.Result) sim.Result {
	out := r
	out.PerCore = append([]sim.CoreResult(nil), r.PerCore...)
	for i := range out.PerCore {
		if f := out.PerCore[i].Filter; f != nil {
			fc := *f // ppf.Stats is a flat counter struct
			out.PerCore[i].Filter = &fc
		}
	}
	return out
}

// computeCell produces a cell's result on an in-memory miss, consulting
// the disk layers when a store is attached: a stored result is decoded
// and returned outright; otherwise the cell simulates (resuming from a
// warmup snapshot when one exists) and the result is written back.
func (rc *RunCache) computeCell(cfg sim.Config, s Scheme, w workload.Workload, seed uint64, b Budget) sim.Result {
	if rc.store == nil {
		return buildSingle(cfg, NewSetup(s, w, seed)).Run(b.Warmup, b.Detail)
	}
	key := cellKey(cfg, s, w, seed, b)
	if blob, ok := rc.store.LoadResult(key); ok {
		if r, err := sim.DecodeResult(blob); err == nil {
			return r
		}
		// Undecodable past the store's checksum (an entry from a stale
		// encoding): treat as a miss; the recomputation below rewrites it.
	}
	if rc.fabric != nil {
		// The fleet simulates the cell; the worker that ran it published
		// the result to the shared store, so there is nothing to save here.
		return rc.fabric(NewCellSpec(cfg, s, w, seed, b))
	}
	r := rc.snapshotRun(cfg, s, w, seed, b)
	if blob, err := sim.EncodeResult(r); err == nil {
		// Best-effort persistence: a failed write only costs a future re-run.
		_ = rc.store.SaveResult(key, blob)
	}
	return r
}

// snapshotRun simulates a cell, resuming from — or, on a miss,
// creating — the post-warmup snapshot shared by every cell with the
// same warmup prefix.
func (rc *RunCache) snapshotRun(cfg sim.Config, s Scheme, w workload.Workload, seed uint64, b Budget) sim.Result {
	sys := buildSingle(cfg, NewSetup(s, w, seed))
	if b.Warmup == 0 {
		return sys.Run(0, b.Detail)
	}
	wkey := warmupKey(cfg, s, w, seed, b.Warmup)
	if blob, ok := rc.store.LoadSnapshot(wkey); ok {
		if err := sys.Restore(blob); err == nil {
			return sys.RunDetail(b.Detail)
		}
		// Restore failed past the store's checksum (e.g. a snapshot from
		// an unsnapshottable-prefetcher era or a stale walk layout): fall
		// through to a cold run, which rewrites the snapshot.
		sys = buildSingle(cfg, NewSetup(s, w, seed))
	}
	sys.RunWarmup(b.Warmup)
	if blob, err := sys.Snapshot(); err == nil {
		_ = rc.store.SaveSnapshot(wkey, blob)
	}
	return sys.RunDetail(b.Detail)
}

// RunSingle simulates one workload on a 1-core machine under a scheme:
// the one path every single-core cell with a scheme name takes. With a
// cache attached the cell simulates at most once per process (and, with
// a store, at most once across processes); without one (the zero-value
// Exec) it simulates every time. Experiment configurations are
// statically valid, so a config error panics.
func (x Exec) RunSingle(cfg sim.Config, s Scheme, w workload.Workload, seed uint64, b Budget) sim.Result {
	if x.Cache == nil {
		return buildSingle(cfg, NewSetup(s, w, seed)).Run(b.Warmup, b.Detail)
	}
	r, _ := x.Cache.memo.Do(cellKey(cfg, s, w, seed, b), func() sim.Result {
		return x.Cache.computeCell(cfg, s, w, seed, b)
	})
	return cloneResult(r)
}
