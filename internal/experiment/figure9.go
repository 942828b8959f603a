package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure9Result holds the single-core SPEC CPU 2017 speedup comparison
// (paper Figure 9), plus the §6.1 average-lookahead-depth statistics.
type Figure9Result struct {
	Rows    []SpeedupRow
	Schemes []Scheme
	// GeomeanIntense and GeomeanAll are per-scheme geometric means over
	// the memory-intensive subset and the full suite.
	GeomeanIntense map[Scheme]float64
	GeomeanAll     map[Scheme]float64
	// AvgDepthSPP / AvgDepthPPF reproduce the §6.1 lookahead-depth
	// comparison (paper: 3.28 vs 3.97, PPF speculating 21% deeper).
	AvgDepthSPP float64
	AvgDepthPPF float64
}

// Figure9 runs the four prefetching schemes over the SPEC CPU 2017-like
// suite on the single-core default machine.
func Figure9(x Exec, b Budget) Figure9Result {
	return speedupStudy(x, sim.DefaultConfig(1), sortedCopy(workload.SPEC2017()), AllSchemes(), b)
}

// speedupStudy runs every (workload, scheme) pair plus the no-prefetch
// baseline as one job matrix on the worker pool, then gathers speedups
// in workload order so the result is identical at any worker count.
func speedupStudy(x Exec, cfg sim.Config, ws []workload.Workload, schemes []Scheme, b Budget) Figure9Result {
	cells := schemeCells(len(ws), schemes)
	results := runJobs(x, "speedup", len(cells), func(i int) sim.Result {
		c := cells[i]
		return x.Run(NewCellSpec(cfg, c.s, ws[c.wi], 1, b))
	})

	res := Figure9Result{
		Schemes:        schemes,
		GeomeanIntense: map[Scheme]float64{},
		GeomeanAll:     map[Scheme]float64{},
	}
	var depthSPP, depthPPF []float64
	i := 0
	for _, w := range ws {
		base := results[i]
		i++
		row := SpeedupRow{
			Workload: w.Name,
			Intense:  w.MemoryIntensive,
			BaseIPC:  base.PerCore[0].IPC,
			Speedup:  map[Scheme]float64{},
			Depth:    map[Scheme]float64{},
		}
		for _, s := range schemes {
			r := results[i]
			i++
			row.Speedup[s] = r.PerCore[0].IPC / row.BaseIPC
			row.Depth[s] = r.PerCore[0].AvgLookaheadDepth
			if w.MemoryIntensive {
				switch s {
				case SchemeSPP:
					depthSPP = append(depthSPP, r.PerCore[0].AvgLookaheadDepth)
				case SchemePPF:
					depthPPF = append(depthPPF, r.PerCore[0].AvgLookaheadDepth)
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	for _, s := range schemes {
		res.GeomeanIntense[s] = geomeanOver(res.Rows, s, true)
		res.GeomeanAll[s] = geomeanOver(res.Rows, s, false)
	}
	res.AvgDepthSPP = stats.Mean(depthSPP)
	res.AvgDepthPPF = stats.Mean(depthPPF)
	return res
}

// Render prints the figure as a table of speedups over no prefetching.
func (r Figure9Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 9: single-core speedup over no prefetching (SPEC CPU 2017-like)\n")
	header := []string{"workload", "mem", "baseIPC"}
	for _, s := range r.Schemes {
		header = append(header, string(s))
	}
	var rows [][]string
	for _, row := range r.Rows {
		mem := ""
		if row.Intense {
			mem = "*"
		}
		cells := []string{row.Workload, mem, fmt.Sprintf("%.3f", row.BaseIPC)}
		for _, s := range r.Schemes {
			cells = append(cells, fmtPct(row.Speedup[s]))
		}
		rows = append(rows, cells)
	}
	gmI := []string{"GEOMEAN (mem-intensive)", "", ""}
	gmA := []string{"GEOMEAN (full suite)", "", ""}
	for _, s := range r.Schemes {
		gmI = append(gmI, fmtPct(r.GeomeanIntense[s]))
		gmA = append(gmA, fmtPct(r.GeomeanAll[s]))
	}
	rows = append(rows, gmI, gmA)
	renderTable(&sb, header, rows)
	if r.AvgDepthSPP > 0 {
		fmt.Fprintf(&sb, "\nAvg lookahead depth (mem-intensive): SPP %.2f, PPF %.2f (%+.0f%% deeper)\n",
			r.AvgDepthSPP, r.AvgDepthPPF, 100*(r.AvgDepthPPF/r.AvgDepthSPP-1))
	}
	ppfVsSPP := r.GeomeanIntense[SchemePPF] / r.GeomeanIntense[SchemeSPP]
	fmt.Fprintf(&sb, "PPF vs SPP (mem-intensive geomean): %s   [paper: +3.78%%]\n", fmtPct(ppfVsSPP))
	return sb.String()
}
