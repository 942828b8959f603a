package experiment

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// StabilityResult reports how sensitive the headline single-core result
// is to the synthetic workloads' random seeds — the reproduction
// equivalent of running multiple SimPoints per application. A small
// spread means the reported speedups are properties of the workload
// *character*, not of one particular random stream.
type StabilityResult struct {
	Seeds []uint64
	// SPP and PPF hold the memory-intensive geomean speedup per seed.
	SPP []float64
	PPF []float64
	// PPFvsSPP holds the per-seed ratio of the two.
	PPFvsSPP []float64
}

// Stability runs the memory-intensive Figure 9 comparison under several
// workload seeds. One job per (seed, workload, scheme) cell; the gather
// walks seeds then workloads in order.
func Stability(x Exec, seeds []uint64, b Budget) StabilityResult {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3}
	}
	res := StabilityResult{Seeds: seeds}
	ws := sortedCopy(workload.SPEC2017MemIntensive())
	schemes := []Scheme{SchemeNone, SchemeSPP, SchemePPF}
	ipcs := runJobs(x, "stability", len(seeds)*len(ws)*len(schemes), func(i int) float64 {
		seed := seeds[i/(len(ws)*len(schemes))]
		w := ws[i/len(schemes)%len(ws)]
		s := schemes[i%len(schemes)]
		return x.RunSingle(sim.DefaultConfig(1), s, w, seed, b).PerCore[0].IPC
	})
	i := 0
	for range seeds {
		var spp, ppf []float64
		for range ws {
			base, sIPC, pIPC := ipcs[i], ipcs[i+1], ipcs[i+2]
			i += 3
			spp = append(spp, sIPC/base)
			ppf = append(ppf, pIPC/base)
		}
		gs, gp := stats.GeoMean(spp), stats.GeoMean(ppf)
		res.SPP = append(res.SPP, gs)
		res.PPF = append(res.PPF, gp)
		res.PPFvsSPP = append(res.PPFvsSPP, gp/gs)
	}
	return res
}

// Render prints the per-seed geomeans and their spread.
func (r StabilityResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Seed stability: mem-intensive geomean speedup per workload seed\n")
	header := []string{"seed", "spp", "ppf", "ppf vs spp"}
	var rows [][]string
	for i, seed := range r.Seeds {
		rows = append(rows, []string{
			fmt.Sprintf("%d", seed),
			fmtPct(r.SPP[i]),
			fmtPct(r.PPF[i]),
			fmtPct(r.PPFvsSPP[i]),
		})
	}
	renderTable(&sb, header, rows)
	lo := stats.Percentile(r.PPFvsSPP, 0)
	hi := stats.Percentile(r.PPFvsSPP, 100)
	fmt.Fprintf(&sb, "\nPPF-vs-SPP spread across seeds: %s … %s\n", fmtPct(lo), fmtPct(hi))
	sb.WriteString("[a narrow spread means the headline result is seed-robust]\n")
	return sb.String()
}
