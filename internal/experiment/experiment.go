// Package experiment reproduces every table and figure in the PPF paper's
// evaluation (Bhatia et al., ISCA 2019). Each exported function regenerates
// one result: the returned structs carry the measured series and a
// Render method prints the same rows the paper reports. DESIGN.md §5 maps
// each experiment to the paper's figure/table numbers.
package experiment

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scheme names a prefetching configuration under test.
type Scheme string

// The schemes evaluated throughout the paper.
const (
	SchemeNone Scheme = "none"
	SchemeBOP  Scheme = "bop"
	SchemeAMPM Scheme = "da-ampm"
	SchemeSPP  Scheme = "spp"
	SchemePPF  Scheme = "ppf"
)

// Extra schemes from the paper's related work (§7), available to
// cmd/ppfsim and the generality study but not part of the paper's figure
// comparisons.
const (
	SchemeVLDP    Scheme = "vldp"
	SchemeSMS     Scheme = "sms"
	SchemeSandbox Scheme = "sandbox"
)

// AllSchemes lists the paper's comparison set in its plotting order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeBOP, SchemeAMPM, SchemeSPP, SchemePPF}
}

// NamedSchemes lists the eight schemes with fixed names: no prefetching,
// the paper's comparison set, then the related-work engines.
func NamedSchemes() []Scheme {
	return append(append([]Scheme{SchemeNone}, AllSchemes()...), SchemeVLDP, SchemeSMS, SchemeSandbox)
}

// CheckScheme reports whether s names a known scheme — a named one or a
// PPFVariant — without building its state.
func CheckScheme(s Scheme) error {
	if _, _, ok := parsePPFVariant(s); ok || slices.Contains(NamedSchemes(), s) {
		return nil
	}
	return fmt.Errorf("experiment: unknown scheme %q; known schemes are %v and ppf[tau_hi=N,tau_lo=M]", s, NamedSchemes())
}

// PPFVariant names a PPF configuration with explicit filter thresholds.
// The name is parametric — NewSetup parses it back — so threshold-grid
// cells flow through the run cache, the store and the sweep fabric as
// ordinary scheme-named cells instead of bypassing them with ad-hoc
// machine construction.
func PPFVariant(tauHi, tauLo int) Scheme {
	return Scheme(fmt.Sprintf("ppf[tau_hi=%d,tau_lo=%d]", tauHi, tauLo))
}

// parsePPFVariant inverts PPFVariant; ok is false for any other scheme
// name. Re-rendering rejects the near-misses Sscanf tolerates (trailing
// garbage, "+4"-style signs), so only canonical names are accepted —
// one cell, one key.
func parsePPFVariant(s Scheme) (tauHi, tauLo int, ok bool) {
	if _, err := fmt.Sscanf(string(s), "ppf[tau_hi=%d,tau_lo=%d]", &tauHi, &tauLo); err != nil {
		return 0, 0, false
	}
	return tauHi, tauLo, PPFVariant(tauHi, tauLo) == s
}

// NewSetup builds a per-core simulator setup for a scheme. Each call
// returns fresh prefetcher/filter state. A zero-value workload leaves
// Trace nil for the caller to supply (cmd/ppfsim does this when driving
// a binary trace file or its own reader).
func NewSetup(s Scheme, w workload.Workload, seed uint64) sim.CoreSetup {
	var setup sim.CoreSetup
	if w.Name != "" {
		setup.Trace = w.NewReader(seed)
	}
	switch s {
	case SchemeNone:
	case SchemeBOP:
		setup.Prefetcher = prefetch.NewBOP(prefetch.DefaultBOPConfig())
	case SchemeAMPM:
		setup.Prefetcher = prefetch.NewAMPM(prefetch.DefaultAMPMConfig())
	case SchemeSPP:
		setup.Prefetcher = prefetch.NewSPP(prefetch.DefaultSPPConfig())
	case SchemePPF:
		setup.Prefetcher = prefetch.NewSPP(prefetch.AggressiveSPPConfig())
		setup.Filter = ppf.New(ppf.DefaultConfig())
	case SchemeVLDP:
		setup.Prefetcher = prefetch.NewVLDP(prefetch.DefaultVLDPConfig())
	case SchemeSMS:
		setup.Prefetcher = prefetch.NewSMS(prefetch.DefaultSMSConfig())
	case SchemeSandbox:
		setup.Prefetcher = prefetch.NewSandbox(prefetch.DefaultSandboxConfig())
	default:
		tauHi, tauLo, ok := parsePPFVariant(s)
		if !ok {
			panic(fmt.Sprintf("experiment: unknown scheme %q", s))
		}
		cfg := ppf.DefaultConfig()
		cfg.TauHi, cfg.TauLo = tauHi, tauLo
		setup.Prefetcher = prefetch.NewSPP(prefetch.AggressiveSPPConfig())
		setup.Filter = ppf.New(cfg)
	}
	return setup
}

// Budget scales simulation lengths: experiments run with Budget
// instructions of detail per core and Budget/5 of warmup. The paper uses
// 1B detail + 200M warmup; the default here is 1,000x smaller, matching
// the scaled-down synthetic working sets (DESIGN.md §4).
type Budget struct {
	Warmup uint64
	Detail uint64
}

// DefaultBudget is the standard scaled-down simulation length.
func DefaultBudget() Budget { return Budget{Warmup: 200_000, Detail: 1_000_000} }

// QuickBudget is a shorter budget for tests and -quick runs.
func QuickBudget() Budget { return Budget{Warmup: 50_000, Detail: 200_000} }

// buildSingle constructs a fresh 1-core machine around setup.
// Experiment configurations are statically valid, so a config error is
// a bug and panics.
func buildSingle(cfg sim.Config, setup sim.CoreSetup) *sim.System {
	cfg.Cores = 1
	sys, err := sim.NewSystem(cfg, []sim.CoreSetup{setup})
	if err != nil {
		panic(err)
	}
	return sys
}

// runSetup simulates setup on the default 1-core machine. It is the
// path for the machines no scheme names (custom filters, engines and
// forced depths), which Exec.RunSingle cannot key; they bypass the run
// cache.
func runSetup(setup sim.CoreSetup, b Budget) sim.Result {
	return buildSingle(sim.DefaultConfig(1), setup).Run(b.Warmup, b.Detail)
}

// runMix simulates one N-core machine in which core c runs ws[c] under
// scheme s with mix m's seed for that core.
func runMix(cfg sim.Config, s Scheme, ws []workload.Workload, m int, b Budget) sim.Result {
	setups := make([]sim.CoreSetup, len(ws))
	for c := range setups {
		setups[c] = NewSetup(s, ws[c], mixSeed(m, c))
	}
	sys, err := sim.NewSystem(cfg, setups)
	if err != nil {
		panic(err)
	}
	return sys.Run(b.Warmup, b.Detail)
}

// SpeedupRow holds one workload's speedups over the no-prefetch baseline.
type SpeedupRow struct {
	Workload string
	Intense  bool
	BaseIPC  float64
	// Speedup maps scheme → IPC / BaseIPC.
	Speedup map[Scheme]float64
	// Depth maps scheme → average SPP lookahead depth (spp/ppf only).
	Depth map[Scheme]float64
}

// geomeanOver computes the geometric-mean speedup of a scheme over rows.
func geomeanOver(rows []SpeedupRow, s Scheme, onlyIntense bool) float64 {
	var xs []float64
	for _, r := range rows {
		if onlyIntense && !r.Intense {
			continue
		}
		xs = append(xs, r.Speedup[s])
	}
	return stats.GeoMean(xs)
}

// fmtPct renders a ratio as a percentage delta.
func fmtPct(x float64) string { return fmt.Sprintf("%+.2f%%", (x-1)*100) }

// renderTable prints an aligned table.
func renderTable(sb *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

// sortedCopy returns ws sorted by name (stable experiment ordering).
func sortedCopy(ws []workload.Workload) []workload.Workload {
	cp := append([]workload.Workload(nil), ws...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Name < cp[j].Name })
	return cp
}

// mixSeed derives a deterministic seed for mix m, core c.
func mixSeed(m, c int) uint64 { return uint64(m)*1_000_003 + uint64(c)*7919 + 17 }

// pick returns deterministic pseudo-random workload indexes for a mix.
func pick(ws []workload.Workload, m, core int) workload.Workload {
	h := uint64(m)*0x9E3779B97F4A7C15 + uint64(core)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	return ws[h%uint64(len(ws))]
}
