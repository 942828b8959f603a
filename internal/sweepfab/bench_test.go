package sweepfab

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/simstore"
)

// TestBenchSmoke runs the smallest possible sweep benchmark fleet and
// checks its exactly-once proof: the cold run submitted each unique
// cell once, its workers ran exactly those cells, each completed once
// with no requeue, and the warm replay hit every cell without a lease.
// Then it plants one violation of each kind and requires the fleet's
// producer check to fail on it.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke runs a full (tiny) cold sweep")
	}
	f, err := benchFleet(2, experiment.Budget{Warmup: 500, Detail: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if f.cells == 0 || f.coldSec <= 0 || f.warmSec <= 0 {
		t.Fatalf("degenerate fleet run: %+v", f)
	}
	if f.cold.Submitted != f.cells || f.workerCells != f.cells || f.cold.Completions != f.cells || f.cold.Requeues != 0 {
		t.Fatalf("cold run: fleet ran %d cells for %d unique keys, counters %+v", f.workerCells, f.cells, f.cold)
	}
	if f.warm.ResultHits != f.cells || f.warm.ResultMisses != 0 || f.warmLeases != 0 {
		t.Fatalf("warm replay: store %+v, %d leases, for %d cells", f.warm, f.warmLeases, f.cells)
	}
	if err := f.check(); err != nil {
		t.Fatalf("clean run failed its check: %v", err)
	}
	for name, plant := range map[string]func(*fleetBench){
		"cell resubmitted":    func(g *fleetBench) { g.cold.Submitted++ },
		"worker reran a cell": func(g *fleetBench) { g.workerCells++ },
		"requeue":             func(g *fleetBench) { g.cold.Requeues = 1 },
		"warm lease":          func(g *fleetBench) { g.warmLeases = 1 },
		"warm miss":           func(g *fleetBench) { g.warm = simstore.Stats{ResultHits: g.cells - 1, ResultMisses: 1} },
	} {
		g := f
		plant(&g)
		if g.check() == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}
