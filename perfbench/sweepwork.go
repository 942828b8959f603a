package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/simstore"
)

// The sweep runs the PPF threshold grid (ThresholdSweep: 5 baselines
// plus 12 grid points × 5 applications = 65 unique cells) twice against
// one fresh on-disk store: cold at QuickBudget, where every cell
// simulates and writes its result and post-warmup snapshot, then again
// at the same warmup and a longer detail budget, where every cell misses
// the result layer and resumes from its snapshot.
var (
	sweepColdBudget   = experiment.QuickBudget()
	sweepResumeBudget = experiment.Budget{Warmup: sweepColdBudget.Warmup, Detail: sweepColdBudget.Detail + 50_000}
)

// sweepWorkers is the sweep's worker count. One worker keeps the
// process's CPU time over a cell's span that cell's own, so cells can be
// timed in CPU time (see sweepPass).
const sweepWorkers = 1

// sweepPass is one cold pass plus one resume pass. Pass and cell times are
// the process's CPU time: with one worker, the CPU the process spends
// while a cell is in flight is that cell's, the collector's share
// included. Wall time would add the VM's disk waits, which on the shared
// host the benchmark was sized on moved cell times by a third between runs.
type sweepPass struct {
	cold, resume         time.Duration
	setups               []float64 // s, reopening the store before the resume pass
	coldTable            string
	resumeTable          string
	cells                []time.Duration // per-cell CPU time, both passes
	memoHits, memoMisses uint64          // run cache, cold pass
	store                simstore.Stats
	probe                *storeProbe
}

// runSweepPass runs both passes in a fresh store directory and removes
// it afterwards. Each pass starts from a collected heap, so peak RSS is a
// property of one pass, not of when the collector last ran.
func runSweepPass(dir string, traced bool) (sweepPass, error) {
	var p sweepPass
	if err := os.RemoveAll(dir); err != nil {
		return p, fmt.Errorf("clearing sweep store: %w", err)
	}
	defer os.RemoveAll(dir)
	runtime.GC()

	st, err := simstore.Open(dir)
	if err != nil {
		return p, err
	}
	p.probe = newStoreProbe(st, traced)
	cold := experiment.NewRunCache()
	cold.AttachStore(p.probe)

	_, p.cold = measure(func() {
		p.coldTable = experiment.ThresholdSweep(experiment.Exec{Workers: sweepWorkers, Cache: cold}, sweepColdBudget).Render()
	})
	p.memoHits, p.memoMisses = cold.Stats()

	// The resume pass's set-up is reopening the store the cold pass filled
	// and attaching it to a fresh run cache, so that the resume pass is
	// served by the store alone. It is timed setupsPerPass times, in process
	// CPU time; the pass itself uses the store already open.
	for range setupsPerPass {
		_, cpu := measure(func() {
			var reopened *simstore.Store
			if reopened, err = simstore.Open(dir); err == nil {
				experiment.NewRunCache().AttachStore(reopened)
			}
		})
		if err != nil {
			return p, err
		}
		p.setups = append(p.setups, cpu.Seconds())
	}
	runtime.GC()
	resume := experiment.NewRunCache()
	resume.AttachStore(p.probe)
	_, p.resume = measure(func() {
		p.resumeTable = experiment.ThresholdSweep(experiment.Exec{Workers: sweepWorkers, Cache: resume}, sweepResumeBudget).Render()
	})

	p.cells = p.probe.takeCells()
	p.store = st.Stats()
	return p, nil
}

// sweepDir is the store directory of pass i, derived from the seed.
func sweepDir(cfg runConfig, i int) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("sweep-seed%d-pass%d", cfg.seed, i))
}

// runSweepTau measures sweep passes until the window closes. The unit of
// work is a cell (both passes count) and the operation is one cell, from
// the run cache's result lookup to its result save, both in CPU time. Set-up is reopening
// the filled store for the resume pass (see runSweepPass).
func runSweepTau(cfg runConfig, res *result) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	var plain, traced []sweepPass
	start := time.Now()
	for i := 0; len(plain) == 0 || time.Since(start) < cfg.seconds; i++ {
		p, err := runSweepPass(sweepDir(cfg, i), false)
		if err != nil {
			return err
		}
		plain = append(plain, p)
		if cfg.trace {
			tp, err := runSweepPass(sweepDir(cfg, i), true)
			if err != nil {
				return err
			}
			traced = append(traced, tp)
		}
	}

	const cellsPerPass = 65
	for _, p := range append(append([]sweepPass(nil), plain...), traced...) {
		res.check(p.coldTable == exp.SweepCold, "sweep-tau: cold table differs from the stored table:\n%s", p.coldTable)
		res.check(p.resumeTable == exp.SweepResume, "sweep-tau: resume table differs from the stored table:\n%s", p.resumeTable)
		res.check(p.store.Corrupt == 0 && p.store.SnapshotHits == exp.ResumeSnapshotHits && len(p.cells) == 2*cellsPerPass,
			"sweep-tau: store stats %+v, %d cells timed; want %d snapshot hits, %d cells",
			p.store, len(p.cells), exp.ResumeSnapshotHits, 2*cellsPerPass)
	}

	var rates, coldRates, resumeRates, ops, setups []float64
	for _, p := range plain {
		setups = append(setups, p.setups...)
		rates = append(rates, 2*cellsPerPass/(p.cold+p.resume).Seconds())
		coldRates = append(coldRates, cellsPerPass/p.cold.Seconds())
		resumeRates = append(resumeRates, cellsPerPass/p.resume.Seconds())
		for _, d := range p.cells {
			ops = append(ops, micros(d))
		}
	}
	res.set("work_per_s", median(rates))
	res.set("op_p50_us", quantile(ops, 0.50))
	res.set("setup_s", median(setups))
	res.note("cells_per_s %.4f cells per CPU second (cold pass, median of %d)", median(coldRates), len(plain))
	res.note("resume_cells_per_s %.4f cells per CPU second (resume pass, median of %d)", median(resumeRates), len(plain))

	if cfg.trace {
		ref := plain[0]
		res.set("runner.cells", float64(ref.memoHits+ref.memoMisses))
		res.set("runner.memo_hits", float64(ref.memoHits))
		res.set("runner.memo_misses", float64(ref.memoMisses))
		res.set("runner.cold_cells_per_s", median(coldRates))
		res.set("runner.resume_cells_per_s", median(resumeRates))
		res.set("simstore.result_hits", float64(ref.store.ResultHits))
		res.set("simstore.result_misses", float64(ref.store.ResultMisses))
		res.set("simstore.snapshot_hits", float64(ref.store.SnapshotHits))
		res.set("simstore.snapshot_misses", float64(ref.store.SnapshotMisses))
		res.set("simstore.corrupt", float64(ref.store.Corrupt))

		var save, load, walls, twalls []float64
		for _, p := range traced {
			save = append(save, float64(p.probe.saveNs.Load()))
			load = append(load, float64(p.probe.loadNs.Load()))
			twalls = append(twalls, (p.cold + p.resume).Seconds())
		}
		for _, p := range plain {
			walls = append(walls, (p.cold + p.resume).Seconds())
		}
		res.set("simstore.save_ns", mean(save))
		res.set("simstore.load_ns", mean(load))
		res.set("simstore.bytes_written", float64(traced[0].probe.bytesWritten.Load()))
		res.set("simstore.bytes_read", float64(traced[0].probe.bytesRead.Load()))
		res.set("setup.ns", median(setups)*1e9)
		res.set("trace.overhead_frac", median(twalls)/median(walls)-1)
		res.note("store time per pass pair: save %.0f ns, load %.0f ns", mean(save), mean(load))
	}
	return nil
}
