package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Figure10Result holds the L2/LLC miss-coverage comparison (paper
// Figure 10): the fraction of the no-prefetching baseline's misses that
// each scheme avoids, averaged across the SPEC CPU 2017-like suite.
type Figure10Result struct {
	Schemes []Scheme
	// L2Coverage and LLCCoverage map scheme → mean coverage in [0, 1]
	// (negative values would mean the scheme *added* misses).
	L2Coverage  map[Scheme]float64
	LLCCoverage map[Scheme]float64
	// PerWorkload carries the per-application L2 coverage for inspection.
	PerWorkload map[string]map[Scheme]float64
}

// Figure10 measures miss coverage over the full 2017-like suite. Every
// (workload, scheme) cell including the baselines runs as one job; the
// zero-miss skip rule is applied during the ordered gather, so the
// averages match the historical serial pass at any worker count.
func Figure10(x Exec, b Budget) Figure10Result {
	schemes := AllSchemes()
	ws := sortedCopy(workload.SPEC2017())
	cells := schemeCells(len(ws), schemes)
	results := runJobs(x, "coverage", len(cells), func(i int) sim.Result {
		c := cells[i]
		return x.RunSingle(sim.DefaultConfig(1), c.s, ws[c.wi], 1, b)
	})

	res := Figure10Result{
		Schemes:     schemes,
		L2Coverage:  map[Scheme]float64{},
		LLCCoverage: map[Scheme]float64{},
		PerWorkload: map[string]map[Scheme]float64{},
	}
	sumL2 := map[Scheme]float64{}
	sumLLC := map[Scheme]float64{}
	n := 0
	i := 0
	for _, w := range ws {
		base := results[i]
		i++
		baseL2 := float64(base.PerCore[0].L2.DemandMisses)
		baseLLC := float64(base.LLC.DemandMisses)
		if baseL2 == 0 || baseLLC == 0 {
			i += len(schemes)
			continue
		}
		n++
		res.PerWorkload[w.Name] = map[Scheme]float64{}
		for _, s := range schemes {
			r := results[i]
			i++
			covL2 := 1 - float64(r.PerCore[0].L2.DemandMisses)/baseL2
			covLLC := 1 - float64(r.LLC.DemandMisses)/baseLLC
			sumL2[s] += covL2
			sumLLC[s] += covLLC
			res.PerWorkload[w.Name][s] = covL2
		}
	}
	for _, s := range schemes {
		res.L2Coverage[s] = sumL2[s] / float64(n)
		res.LLCCoverage[s] = sumLLC[s] / float64(n)
	}
	return res
}

// Render prints the coverage table.
func (r Figure10Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 10: fraction of baseline cache misses covered (mean over suite)\n")
	header := []string{"scheme", "L2 coverage", "LLC coverage"}
	var rows [][]string
	for _, s := range r.Schemes {
		rows = append(rows, []string{
			string(s),
			fmt.Sprintf("%.1f%%", 100*r.L2Coverage[s]),
			fmt.Sprintf("%.1f%%", 100*r.LLCCoverage[s]),
		})
	}
	renderTable(&sb, header, rows)
	sb.WriteString("[paper: PPF highest of all schemes — 75.5% L2 / 86.9% LLC;\n")
	sb.WriteString(" next best DA-AMPM 54.3% / 78.5%]\n")
	return sb.String()
}
