package experiment

import (
	"fmt"
	"slices"
	"strings"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationRow is one PPF variant's geomean speedup over no prefetching.
type AblationRow struct {
	Variant string
	Geomean float64
}

// AblationResult holds the design-choice ablations DESIGN.md §6 calls out:
// leave-one-out feature removal, single-threshold filling, and disabling
// reject-table (false-negative) training.
type AblationResult struct {
	Baseline float64 // full PPF geomean
	SPP      float64 // plain SPP for reference
	Rows     []AblationRow
}

// variantGeomean folds one variant's per-workload IPCs into a geomean
// speedup over the shared baselines.
func variantGeomean(ipcs, baseIPC []float64) float64 {
	speedups := make([]float64, len(ipcs))
	for i := range ipcs {
		speedups[i] = ipcs[i] / baseIPC[i]
	}
	return stats.GeoMean(speedups)
}

// Ablation runs the variant study over the memory-intensive subset. The
// no-prefetch baselines run once as a parallel phase, then every
// (variant, workload) cell fans out as one job matrix. The variants that
// are named schemes (plain SPP, full PPF, the single-threshold filter)
// run through the run cache, so they share their cells with Figure 9
// and the threshold sweep; the leave-one-out filters have no scheme name
// and simulate directly.
func Ablation(x Exec, b Budget) AblationResult {
	ws := sortedCopy(workload.SPEC2017MemIntensive())
	var res AblationResult

	baseIPC := baselineIPCs(x, sim.DefaultConfig(1), ws, 1, b)

	// The variant matrix: plain SPP (reference, no filter), full PPF,
	// leave-one-out per feature, and the single-threshold filter.
	type variant struct {
		name   string
		scheme Scheme
		feats  []ppf.FeatureSpec // the leave-one-out filter's features, when scheme is ""
	}
	variants := []variant{{name: "spp", scheme: SchemeSPP}, {name: "full", scheme: SchemePPF}}
	full := ppf.DefaultFeatures()
	for drop := range full {
		variants = append(variants, variant{
			name:  "without " + full[drop].Name,
			feats: slices.Delete(slices.Clone(full), drop, drop+1),
		})
	}
	// Single threshold: no LLC middle band (TauLo == TauHi), so every
	// accepted prefetch fills the L2.
	tauHi := ppf.DefaultConfig().TauHi
	variants = append(variants, variant{name: "single threshold (no LLC band)", scheme: PPFVariant(tauHi, tauHi)})

	ipcs := runJobs(x, "ablation", len(variants)*len(ws), func(i int) float64 {
		v, w := variants[i/len(ws)], ws[i%len(ws)]
		if v.scheme != "" {
			return x.RunSingle(sim.DefaultConfig(1), v.scheme, w, 1, b).PerCore[0].IPC
		}
		cfg := ppf.DefaultConfig()
		cfg.Features = v.feats
		return runSetup(sim.CoreSetup{
			Trace:      w.NewReader(1),
			Prefetcher: prefetch.NewSPP(prefetch.AggressiveSPPConfig()),
			Filter:     ppf.New(cfg),
		}, b).PerCore[0].IPC
	})

	for vi, v := range variants {
		g := variantGeomean(ipcs[vi*len(ws):(vi+1)*len(ws)], baseIPC)
		switch v.name {
		case "spp":
			res.SPP = g
		case "full":
			res.Baseline = g
		default:
			res.Rows = append(res.Rows, AblationRow{Variant: v.name, Geomean: g})
		}
	}
	return res
}

// Render prints the ablation table.
func (r AblationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: PPF variants, geomean speedup over no prefetching (mem-intensive)\n")
	header := []string{"variant", "geomean", "delta vs full PPF"}
	rows := [][]string{
		{"full PPF", fmtPct(r.Baseline), "—"},
		{"plain SPP (reference)", fmtPct(r.SPP), fmt.Sprintf("%+.2f%%", 100*(r.SPP/r.Baseline-1))},
	}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant,
			fmtPct(row.Geomean),
			fmt.Sprintf("%+.2f%%", 100*(row.Geomean/r.Baseline-1)),
		})
	}
	renderTable(&sb, header, rows)
	return sb.String()
}

// GeneralityRow is one (prefetcher, filtered?) measurement.
type GeneralityRow struct {
	Prefetcher string
	Filtered   bool
	Geomean    float64
}

// GeneralityResult demonstrates the paper's §3.2 claim that PPF adapts to
// any underlying prefetcher, by filtering seven other prefetch engines.
type GeneralityResult struct{ Rows []GeneralityRow }

// Generality measures seven prefetchers with and without a PPF filter
// over the memory-intensive subset. The no-prefetch baselines run once,
// then every (engine, filtered, workload) cell is one job. An unfiltered
// engine that is a named scheme runs through the run cache (DA-AMPM's
// cells are Figure 9's); the rest have no scheme name and simulate
// directly.
func Generality(x Exec, b Budget) GeneralityResult {
	ws := sortedCopy(workload.SPEC2017MemIntensive())
	var res GeneralityResult
	engines := []struct {
		name   string
		scheme Scheme // the unfiltered engine's scheme, or ""
		mk     func() prefetch.Prefetcher
	}{
		{"next-line(4)", "", func() prefetch.Prefetcher { return prefetch.NewNextLine(4) }},
		{"stride(4)", "", func() prefetch.Prefetcher { return prefetch.NewStride(4) }},
		{"bop(2)", "", func() prefetch.Prefetcher { return prefetch.NewBOP(prefetch.BOPConfig{Degree: 2}) }},
		{"da-ampm", SchemeAMPM, func() prefetch.Prefetcher { return prefetch.NewAMPM(prefetch.DefaultAMPMConfig()) }},
		{"vldp", SchemeVLDP, func() prefetch.Prefetcher { return prefetch.NewVLDP(prefetch.DefaultVLDPConfig()) }},
		{"sms", SchemeSMS, func() prefetch.Prefetcher { return prefetch.NewSMS(prefetch.DefaultSMSConfig()) }},
		{"sandbox", SchemeSandbox, func() prefetch.Prefetcher { return prefetch.NewSandbox(prefetch.DefaultSandboxConfig()) }},
	}

	baseIPC := baselineIPCs(x, sim.DefaultConfig(1), ws, 1, b)

	// Cell order mirrors the historical loops: engine, then unfiltered/
	// filtered, then workload.
	variants := len(engines) * 2
	ipcs := runJobs(x, "generality", variants*len(ws), func(i int) float64 {
		vi, w := i/len(ws), ws[i%len(ws)]
		eng, filtered := engines[vi/2], vi%2 == 1
		if !filtered && eng.scheme != "" {
			return x.RunSingle(sim.DefaultConfig(1), eng.scheme, w, 1, b).PerCore[0].IPC
		}
		setup := sim.CoreSetup{Trace: w.NewReader(1), Prefetcher: eng.mk()}
		if filtered {
			setup.Filter = ppf.New(ppf.DefaultConfig())
		}
		return runSetup(setup, b).PerCore[0].IPC
	})

	for vi := 0; vi < variants; vi++ {
		res.Rows = append(res.Rows, GeneralityRow{
			Prefetcher: engines[vi/2].name,
			Filtered:   vi%2 == 1,
			Geomean:    variantGeomean(ipcs[vi*len(ws):(vi+1)*len(ws)], baseIPC),
		})
	}
	return res
}

// Render prints the generality table.
func (r GeneralityResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Generality (§3.2): PPF over other prefetchers, geomean speedup (mem-intensive)\n")
	header := []string{"prefetcher", "PPF", "geomean"}
	var rows [][]string
	for _, row := range r.Rows {
		f := "no"
		if row.Filtered {
			f = "yes"
		}
		rows = append(rows, []string{row.Prefetcher, f, fmtPct(row.Geomean)})
	}
	renderTable(&sb, header, rows)
	return sb.String()
}
