package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure13Result holds the cross-validation study (paper Figure 13):
// workloads PPF was not tuned on — CloudSuite-like 4-core applications
// and the SPEC CPU 2006-like suite.
type Figure13Result struct {
	// Cloud is the 4-core CloudSuite comparison (weighted speedup).
	Cloud MulticoreResult
	// SPEC2006 is the single-core SPEC CPU 2006-like comparison.
	SPEC2006 Figure9Result
}

// Figure13 runs both cross-validation studies (each CloudSuite app runs
// as a 4-core instance).
func Figure13(x Exec, b Budget) Figure13Result {
	var res Figure13Result

	// CloudSuite: each application runs four copies (distinct seeds) on a
	// 4-core machine, as the CRC-2 traces are 4-core applications: mix m
	// over a pool of just application m. One job per (application,
	// scheme) cell, baseline first; the gather walks applications in
	// suite order.
	cloud := MulticoreResult{
		Cores:   4,
		Schemes: AllSchemes(),
		PerMix:  map[Scheme][]float64{},
		Geomean: map[Scheme]float64{},
	}
	cfg := sim.DefaultConfig(4)
	apps := workload.CloudSuite()
	schemes := append([]Scheme{SchemeNone}, cloud.Schemes...)
	totals := runJobs(x, "cloudsuite", len(apps)*len(schemes), func(i int) float64 {
		m := i / len(schemes)
		copies := Mix(apps[m:m+1], cfg.Cores, m)
		total := 0.0
		for _, pc := range x.Run(CellSpec{Config: cfg, Scheme: schemes[i%len(schemes)], Cores: copies, Budget: b}).PerCore {
			total += pc.IPC
		}
		return total
	})
	for m := range apps {
		row := totals[m*len(schemes) : (m+1)*len(schemes)]
		for si, s := range cloud.Schemes {
			cloud.PerMix[s] = append(cloud.PerMix[s], row[si+1]/row[0])
		}
	}
	for _, s := range cloud.Schemes {
		cloud.Geomean[s] = stats.GeoMean(cloud.PerMix[s])
	}
	res.Cloud = cloud

	// SPEC CPU 2006-like single-core suite.
	res.SPEC2006 = speedupStudy(x, sim.DefaultConfig(1), sortedCopy(workload.SPEC2006()), AllSchemes(), b)
	return res
}

// Render prints both halves of the figure.
func (r Figure13Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 13a: CloudSuite-like 4-core applications (IPC-sum speedup over no prefetching)\n")
	header := []string{"scheme", "geomean"}
	var rows [][]string
	for _, s := range r.Cloud.Schemes {
		rows = append(rows, []string{string(s), fmtPct(r.Cloud.Geomean[s])})
	}
	renderTable(&sb, header, rows)
	sb.WriteString("[paper: prefetch-agnostic workloads; PPF +3.78% vs SPP +3.08% over baseline]\n\n")

	sb.WriteString("Figure 13b: SPEC CPU 2006-like single-core suite\n")
	header = []string{"scheme", "geomean (mem-intensive)", "geomean (full)"}
	rows = nil
	for _, s := range r.SPEC2006.Schemes {
		rows = append(rows, []string{
			string(s),
			fmtPct(r.SPEC2006.GeomeanIntense[s]),
			fmtPct(r.SPEC2006.GeomeanAll[s]),
		})
	}
	renderTable(&sb, header, rows)
	ppfVsSPP := r.SPEC2006.GeomeanIntense[SchemePPF] / r.SPEC2006.GeomeanIntense[SchemeSPP]
	fmt.Fprintf(&sb, "PPF vs SPP (mem-intensive): %s   [paper: +6.1%%; full suite +3.33%%]\n", fmtPct(ppfVsSPP))
	return sb.String()
}
