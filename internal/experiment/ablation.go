package experiment

import (
	"fmt"
	"strings"

	ppf "repro/internal/core"
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

// Ablation runs the variant study over the memory-intensive subset.
// Every variant is a scheme name, so every cell runs through the run
// cache, and plain SPP, full PPF and the single-threshold filter share
// their cells with Figure 9 and the threshold sweep.
func Ablation(x Exec, b Budget) AblationResult {
	// The variant matrix: plain SPP (reference, no filter), full PPF,
	// leave-one-out per feature, and the single-threshold filter: no LLC
	// middle band (TauLo == TauHi), so every accepted prefetch fills the
	// L2.
	names := []string{"spp", "full"}
	schemes := []Scheme{SchemeSPP, SchemePPF}
	for _, f := range ppf.DefaultFeatures() {
		names = append(names, "without "+f.Name)
		schemes = append(schemes, parametric{engine: SchemePPF, drop: f.Name}.scheme())
	}
	tauHi := ppf.DefaultConfig().TauHi
	names = append(names, "single threshold (no LLC band)")
	schemes = append(schemes, PPFVariant(tauHi, tauHi))

	g := schemeGeomeans(x, "ablation", sortedCopy(workload.SPEC2017MemIntensive()), 1, schemes, b)
	res := AblationResult{SPP: g[0], Baseline: g[1]}
	for i := 2; i < len(g); i++ {
		res.Rows = append(res.Rows, AblationRow{Variant: names[i], Geomean: g[i]})
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
// over the memory-intensive subset. Every engine is a scheme name and
// its filtered form adds filter=ppf, so every cell runs through the run
// cache (DA-AMPM's unfiltered cells are Figure 9's).
func Generality(x Exec, b Budget) GeneralityResult {
	engines := []struct {
		name   string
		engine parametric
	}{
		{"next-line(4)", parametric{engine: "next-line", degree: 4}},
		{"stride(4)", parametric{engine: "stride", degree: 4}},
		{"bop(2)", parametric{engine: SchemeBOP, degree: 2}},
		{"da-ampm", parametric{engine: SchemeAMPM}},
		{"vldp", parametric{engine: SchemeVLDP}},
		{"sms", parametric{engine: SchemeSMS}},
		{"sandbox", parametric{engine: SchemeSandbox}},
	}
	// Each engine unfiltered, then filtered.
	var schemes []Scheme
	for _, e := range engines {
		filtered := e.engine
		filtered.filter = true
		schemes = append(schemes, e.engine.scheme(), filtered.scheme())
	}
	var res GeneralityResult
	for i, g := range schemeGeomeans(x, "generality", sortedCopy(workload.SPEC2017MemIntensive()), 1, schemes, b) {
		res.Rows = append(res.Rows, GeneralityRow{Prefetcher: engines[i/2].name, Filtered: i%2 == 1, Geomean: g})
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
