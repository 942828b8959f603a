package experiment

import (
	"fmt"
	"strings"

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
// workload seeds, one seed at a time.
func Stability(x Exec, seeds []uint64, b Budget) StabilityResult {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3}
	}
	res := StabilityResult{Seeds: seeds}
	ws := sortedCopy(workload.SPEC2017MemIntensive())
	for _, seed := range seeds {
		g := schemeGeomeans(x, "stability", ws, seed, []Scheme{SchemeSPP, SchemePPF}, b)
		res.SPP = append(res.SPP, g[0])
		res.PPF = append(res.PPF, g[1])
		res.PPFvsSPP = append(res.PPFvsSPP, g[1]/g[0])
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
