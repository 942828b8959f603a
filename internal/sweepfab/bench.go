package sweepfab

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/simstore"
	"repro/internal/stats"
)

// benchEnumWorkers is the coordinator-side enumeration parallelism: how
// many cells the sweep keeps in flight on the lease board. It must be
// at least the largest fleet size, or workers sit blocked on an empty
// lease queue instead of simulating.
const benchEnumWorkers = 8

// benchBudget is the per-cell simulation budget: tiny cells, so the
// rows weigh fabric and store overhead, the thing this benchmark exists
// to track, over simulator speed.
var benchBudget = experiment.Budget{Warmup: 1_000, Detail: 4_000}

// Bench measures the distributed threshold sweep over loopback at 1, 2
// and 4 workers and returns a cold and a warm cells/s row for each. The
// cold row runs against a fresh store: every cell is leased to a
// worker, simulated once fleet-wide and published over HTTP. The warm
// row then replays the published entries with no fleet: every cell is
// a remote store hit. Cold rows should scale with the fleet; the warm
// row is the store's replay floor. A fleet whose counters break
// single-flight is an error naming its rows.
func Bench() ([]stats.Row, error) {
	var rows []stats.Row
	for _, n := range []int{1, 2, 4} {
		f, err := benchFleet(n, benchBudget)
		if err == nil {
			err = f.check()
		}
		if err != nil {
			return nil, fmt.Errorf("sweep rows workers=%d: %w", n, err)
		}
		rows = append(rows, f.rows(benchBudget)...)
	}
	return rows, nil
}

// fleetBench is one fleet size's timings and the counters that prove
// them clean.
type fleetBench struct {
	workers int
	// cells counts the unique cells of the grid: the coordinator run
	// cache's memo misses.
	cells            uint64
	coldSec, warmSec float64
	// cold is the lease board after the cold run, warmLeases the leases
	// granted during the warm replay.
	cold       Counters
	warmLeases uint64
	// workerCells sums the cells the workers ran.
	workerCells uint64
	// warm is the replay's store traffic.
	warm simstore.Stats
}

// check is the fleet's producer check: the cold run submitted each
// unique cell once, its workers ran exactly those cells, each completed
// once with no requeue, and the warm replay leased nothing, missed
// nothing and hit every cell.
func (f fleetBench) check() error {
	if f.cold.Submitted != f.cells || f.workerCells != f.cells || f.cold.Completions != f.cells || f.cold.Requeues != 0 {
		return fmt.Errorf("cold run: %d submissions and %d worker runs for %d unique cells, %d completions, %d requeues",
			f.cold.Submitted, f.workerCells, f.cells, f.cold.Completions, f.cold.Requeues)
	}
	if f.warmLeases != 0 || f.warm.ResultMisses != 0 || f.warm.ResultHits != f.cells {
		return fmt.Errorf("warm replay: %d leases, %d result hits and %d misses for %d cells",
			f.warmLeases, f.warm.ResultHits, f.warm.ResultMisses, f.cells)
	}
	return nil
}

// rows returns the fleet's cold and warm cells/s rows.
func (f fleetBench) rows(b experiment.Budget) []stats.Row {
	params := fmt.Sprintf("workers=%d warmup=%d detail=%d", f.workers, b.Warmup, b.Detail)
	row := func(name string, sec float64) stats.Row {
		return stats.Row{Layer: stats.LayerSweep, Name: name, Params: params,
			Unit: "cells/s", Better: stats.Higher, Value: float64(f.cells) / sec}
	}
	return []stats.Row{row("cold", f.coldSec), row("warm", f.warmSec)}
}

// benchFleet measures one fleet size: spin a store server, coordinator
// and n workers on loopback, run the sweep cold, tear the fleet down,
// then replay warm from the published store.
func benchFleet(n int, b experiment.Budget) (f fleetBench, err error) {
	f.workers = n
	dir, err := os.MkdirTemp("", "sweepbench-")
	if err != nil {
		return f, err
	}
	defer os.RemoveAll(dir)
	st, err := simstore.Open(dir)
	if err != nil {
		return f, err
	}
	httpLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, err
	}
	srv := &http.Server{Handler: simstore.Handler(st)}
	go srv.Serve(httpLis)
	defer srv.Close()
	storeURL := "http://" + httpLis.Addr().String()

	coord := NewCoordinator(Config{
		Store:        simstore.NewRemote(storeURL),
		LeaseTimeout: time.Minute,
	})
	fabLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return f, err
	}
	go coord.Serve(fabLis)

	workerStats := make([]WorkerStats, n)
	workerErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc := experiment.NewRunCache()
			rc.AttachStore(simstore.NewRemote(storeURL))
			workerStats[i], workerErrs[i] = RunWorker(fabLis.Addr().String(), WorkerConfig{
				Name: fmt.Sprintf("bench-w%d", i),
				Exec: experiment.Exec{Cache: rc},
			})
		}(i)
	}

	rc := experiment.NewRunCache()
	coord.AttachTo(rc)
	start := time.Now() //ppflint:allow determinism bench wall-clock measurement
	experiment.ThresholdSweep(experiment.Exec{Workers: benchEnumWorkers, Cache: rc}, b)
	coldSec := time.Since(start).Seconds() //ppflint:allow determinism bench wall-clock measurement
	f.cold = coord.Board().Counters()
	coord.Close()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			return f, fmt.Errorf("sweepfab: bench worker %d: %w", i, werr)
		}
	}
	for _, ws := range workerStats {
		f.workerCells += ws.Cells
	}
	_, f.cells = rc.Stats()

	// Warm replay: a fresh cache over the published store re-renders the
	// sweep with no fleet at all, so the board must grant no lease.
	warmRC := experiment.NewRunCache()
	warmRC.AttachStore(simstore.NewRemote(storeURL))
	start = time.Now() //ppflint:allow determinism bench wall-clock measurement
	experiment.ThresholdSweep(experiment.Exec{Workers: benchEnumWorkers, Cache: warmRC}, b)
	warmSec := time.Since(start).Seconds() //ppflint:allow determinism bench wall-clock measurement
	f.warm = warmRC.Store().Stats()
	f.warmLeases = coord.Board().Counters().Leases - f.cold.Leases
	f.coldSec, f.warmSec = coldSec, warmSec
	return f, nil
}
