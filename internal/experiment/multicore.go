package experiment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MulticoreResult holds the weighted-speedup comparison for N-core mixes
// (paper Figures 11 and 12).
type MulticoreResult struct {
	Cores   int
	Schemes []Scheme
	// PerMix[scheme] holds each mix's weighted speedup over the
	// no-prefetching baseline, sorted ascending (the paper sorts mixes).
	PerMix map[Scheme][]float64
	// Geomean[scheme] is the geometric mean across mixes.
	Geomean map[Scheme]float64
}

// Multicore runs nMixes random mixes drawn from pool on a cores-core
// machine and measures the paper's weighted-IPC speedup metric: for each
// mix, Σ(IPC_i / IPC_isolated_i) is computed per scheme and normalised to
// the no-prefetching value of the same mix.
//
// The sweep runs in two parallel phases: every core's isolated
// single-core baseline first (each mix's normalisation divisors), then
// every (mix, scheme) machine including the no-prefetch baselines. Both
// are cells, so a rerun over a store reads them. Mix composition and
// seeds depend only on (m, c), and the gather walks mixes in order, so
// the result is identical at any worker count.
func Multicore(x Exec, cores, nMixes int, pool []workload.Workload, b Budget) MulticoreResult {
	res := MulticoreResult{
		Cores:   cores,
		Schemes: AllSchemes(),
		PerMix:  map[Scheme][]float64{},
		Geomean: map[Scheme]float64{},
	}
	cfg := sim.DefaultConfig(cores)

	// Fix every mix's composition up front (deterministic in m, c).
	mixes := make([][]CoreSpec, nMixes)
	for m := range mixes {
		mixes[m] = Mix(pool, cores, m)
	}

	// Phase 1: isolated IPCs, measured on a single-core machine with the
	// full multi-core LLC, per the paper's methodology ("isolated 1-core
	// 8 MB LLC environment"). Core c of mix m is job m*cores+c.
	isoCfg := sim.DefaultConfig(1)
	isoCfg.LLC = cfg.LLC
	isoIPC := runJobs(x, "multicore-iso", nMixes*cores, func(i int) float64 {
		iso := CellSpec{Config: isoCfg, Scheme: SchemeNone, Cores: []CoreSpec{mixes[i/cores][i%cores]}, Budget: b}
		return x.Run(iso).PerCore[0].IPC
	})

	// Phase 2: every (mix, scheme) machine, no-prefetch baseline first.
	mixSchemes := append([]Scheme{SchemeNone}, res.Schemes...)
	perMix := runJobs(x, "multicore-mix", nMixes*len(mixSchemes), func(i int) sim.Result {
		m := i / len(mixSchemes)
		return x.Run(CellSpec{Config: cfg, Scheme: mixSchemes[i%len(mixSchemes)], Cores: mixes[m], Budget: b})
	})

	weighted := func(m int, r sim.Result) float64 {
		ipc := make([]float64, cores)
		for c := range ipc {
			ipc[c] = r.PerCore[c].IPC
		}
		return stats.WeightedSpeedup(ipc, isoIPC[m*cores:(m+1)*cores])
	}
	for m := 0; m < nMixes; m++ {
		row := perMix[m*len(mixSchemes) : (m+1)*len(mixSchemes)]
		baseWS := weighted(m, row[0])
		for si, s := range res.Schemes {
			res.PerMix[s] = append(res.PerMix[s], weighted(m, row[si+1])/baseWS)
		}
	}
	for _, s := range res.Schemes {
		sort.Float64s(res.PerMix[s])
		res.Geomean[s] = stats.GeoMean(res.PerMix[s])
	}
	return res
}

// Mix returns mix m of a cores-core sweep over pool: each core's
// workload identity and trace seed, as Multicore runs them.
func Mix(pool []workload.Workload, cores, m int) []CoreSpec {
	pool = sortedCopy(pool)
	mix := make([]CoreSpec, cores)
	for c := range mix {
		mix[c] = coreSpec(pick(pool, m, c), mixSeed(m, c))
	}
	return mix
}

// Figure11 runs the 4-core memory-intensive mixes (paper Figure 11).
func Figure11(x Exec, nMixes int, b Budget) MulticoreResult {
	return Multicore(x, 4, nMixes, workload.SPEC2017MemIntensive(), b)
}

// Figure11Random runs the fully random 4-core mixes the paper reports in
// text (PPF +5.6% over SPP).
func Figure11Random(x Exec, nMixes int, b Budget) MulticoreResult {
	return Multicore(x, 4, nMixes, workload.SPEC2017(), b)
}

// Figure12 runs the 8-core memory-intensive mixes (paper Figure 12).
func Figure12(x Exec, nMixes int, b Budget) MulticoreResult {
	return Multicore(x, 8, nMixes, workload.SPEC2017MemIntensive(), b)
}

// Render prints sorted per-mix curves compactly plus geomeans.
func (r MulticoreResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d-core weighted speedup over no prefetching (%d mixes, sorted)\n",
		r.Cores, len(r.PerMix[r.Schemes[0]]))
	header := []string{"scheme", "min", "p25", "median", "p75", "max", "GEOMEAN"}
	var rows [][]string
	for _, s := range r.Schemes {
		xs := r.PerMix[s]
		rows = append(rows, []string{
			string(s),
			fmtPct(stats.Percentile(xs, 0)),
			fmtPct(stats.Percentile(xs, 25)),
			fmtPct(stats.Percentile(xs, 50)),
			fmtPct(stats.Percentile(xs, 75)),
			fmtPct(stats.Percentile(xs, 100)),
			fmtPct(r.Geomean[s]),
		})
	}
	renderTable(&sb, header, rows)
	ppfVsSPP := r.Geomean[SchemePPF] / r.Geomean[SchemeSPP]
	fmt.Fprintf(&sb, "\nPPF vs SPP: %s", fmtPct(ppfVsSPP))
	switch r.Cores {
	case 4:
		sb.WriteString("   [paper Fig 11: PPF +51.2% over baseline, +11.4% over SPP]\n")
	case 8:
		sb.WriteString("   [paper Fig 12: PPF +37.6% over baseline, +9.65% over SPP]\n")
	default:
		sb.WriteString("\n")
	}
	return sb.String()
}
