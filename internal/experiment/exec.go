package experiment

import (
	"io"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Exec selects how an experiment's simulation jobs execute. The zero
// value runs one job per GOMAXPROCS-sized worker slot with no reporting;
// Serial() forces the historical one-at-a-time behaviour.
//
// Determinism guarantee: every sweep in this package enumerates its
// (scheme, workload, seed) cells in a fixed order and gathers results by
// cell index, so for any Exec the rendered tables and raw result structs
// are byte-for-byte identical — Workers only changes wall-clock time.
type Exec struct {
	// Workers bounds concurrently running simulations (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives live sweep progress/ETA lines
	// and, as each sweep's last line, a summary of its jobs' wall times.
	Progress io.Writer
	// Cache, when non-nil, memoizes single-machine simulation cells so
	// identical (config, scheme, workload, seed, budget) runs simulate
	// once per process. Sharing one RunCache across experiments dedups
	// the baselines they have in common; see RunCache for the
	// correctness argument. Nil keeps the historical always-simulate
	// behaviour (cached and uncached output is byte-identical).
	Cache *RunCache
}

// Serial is the single-worker execution policy (the pre-runner default).
func Serial() Exec { return Exec{Workers: 1} }

// runJobs fans fn over n cells on the shared worker pool and returns the
// results in cell order. Experiment configurations are statically valid,
// so a panicking cell is a bug: runner.Map re-raises it here, naming the
// sweep and the cell.
func runJobs[T any](x Exec, label string, n int, fn func(i int) T) []T {
	return runner.Map(n, runner.Options{Workers: x.Workers, Label: label, Progress: x.Progress}, fn)
}

// baselineIPCs measures every workload's no-prefetch IPC (the
// denominator of each speedup) as one parallel phase.
func baselineIPCs(x Exec, cfg sim.Config, ws []workload.Workload, seed uint64, b Budget) []float64 {
	return runJobs(x, "baseline", len(ws), func(i int) float64 {
		return x.RunSingle(cfg, SchemeNone, ws[i], seed, b).PerCore[0].IPC
	})
}

// schemeCell is one (workload, scheme) simulation in a speedup sweep;
// SchemeNone cells are the baselines.
type schemeCell struct {
	wi int
	s  Scheme
}

// schemeCells enumerates the standard baseline+schemes job matrix in
// gather order: for each workload, the baseline then every scheme.
func schemeCells(nWorkloads int, schemes []Scheme) []schemeCell {
	cells := make([]schemeCell, 0, nWorkloads*(1+len(schemes)))
	for wi := 0; wi < nWorkloads; wi++ {
		cells = append(cells, schemeCell{wi, SchemeNone})
		for _, s := range schemes {
			cells = append(cells, schemeCell{wi, s})
		}
	}
	return cells
}
