// Package experiment reproduces every table and figure in the PPF paper's
// evaluation (Bhatia et al., ISCA 2019). Each exported function regenerates
// one result: the returned structs carry the measured series and a
// Render method prints the same rows the paper reports. DESIGN.md §5 maps
// each experiment to the paper's figure/table numbers.
package experiment

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
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

// SchemeGrammar spells the parametric scheme names CheckScheme accepts.
const SchemeGrammar = "engine[key=value,...], keys in alphabetical order: degree=1..64 (next-line and stride, " +
	"which need it; bop), depth=1..64 (spp, lookahead forced), drop=FEATURE (ppf), filter=ppf (next-line, stride, " +
	"bop, da-ampm, vldp, sms, sandbox), tau_hi=N,tau_lo=M (ppf)"

// CheckScheme reports whether s names a known scheme — a named one or a
// parametric one — without building its state.
func CheckScheme(s Scheme) error {
	if slices.Contains(NamedSchemes(), s) {
		return nil
	}
	err := fmt.Errorf("experiment: unknown scheme %q", s)
	if strings.Contains(string(s), "[") {
		if _, err = parseParametric(s); err == nil {
			return nil
		}
	}
	return fmt.Errorf("%w; known schemes are %v, or %s", err, NamedSchemes(), SchemeGrammar)
}

// PPFVariant names a PPF configuration with explicit filter thresholds,
// so threshold-grid cells are ordinary scheme-named cells.
func PPFVariant(tauHi, tauLo int) Scheme {
	return parametric{engine: SchemePPF, tau: true, tauHi: tauHi, tauLo: tauLo}.scheme()
}

// parametric is a scheme name with parameters, engine[key=value,...]:
// an engine named like a scheme (or next-line or stride) and the
// settings that make it another machine. Every machine the experiments
// build has a name, so every one is a cell with a key.
type parametric struct {
	engine       Scheme
	degree       int    // next-line, stride, bop: prefetches per trigger
	depth        int    // spp: confidence throttling off, lookahead forced to depth (Figure 1)
	drop         string // ppf: a default feature left out (the ablation)
	filter       bool   // a default PPF filter over the engine (the generality study)
	tau          bool   // ppf: explicit thresholds tauHi, tauLo (PPFVariant)
	tauHi, tauLo int
}

// paramEngines lists the engines each key applies to.
var paramEngines = map[string][]Scheme{
	"degree": {"next-line", "stride", SchemeBOP},
	"depth":  {SchemeSPP},
	"drop":   {SchemePPF},
	"filter": {"next-line", "stride", SchemeBOP, SchemeAMPM, SchemeVLDP, SchemeSMS, SchemeSandbox},
	"tau_hi": {SchemePPF},
	"tau_lo": {SchemePPF},
}

// scheme renders p, keys in alphabetical order; with no parameters it
// is the engine's own name.
func (p parametric) scheme() Scheme {
	var kv []string
	add := func(set bool, format string, v ...any) {
		if set {
			kv = append(kv, fmt.Sprintf(format, v...))
		}
	}
	add(p.degree != 0, "degree=%d", p.degree)
	add(p.depth != 0, "depth=%d", p.depth)
	add(p.drop != "", "drop=%s", p.drop)
	add(p.filter, "filter=ppf")
	add(p.tau, "tau_hi=%d,tau_lo=%d", p.tauHi, p.tauLo)
	if kv == nil {
		return p.engine
	}
	return Scheme(fmt.Sprintf("%s[%s]", p.engine, strings.Join(kv, ",")))
}

// parseParametric inverts scheme. A name is accepted only if it renders
// back to itself, which rejects what a lenient parse lets through (keys
// out of order or repeated, "+2" or "07", a lone tau_hi, a filter other
// than ppf): one machine, one name, one cell key. Degree and depth size
// per-trigger buffers, and a spec arrives over the wire, so they are
// bounded.
func parseParametric(s Scheme) (parametric, error) {
	engine, list, _ := strings.Cut(string(s), "[")
	p := parametric{engine: Scheme(engine)}
	var err error
	for _, kv := range strings.Split(strings.TrimSuffix(list, "]"), ",") {
		k, v, _ := strings.Cut(kv, "=")
		n, nerr := strconv.Atoi(v)
		switch {
		case !slices.Contains(paramEngines[k], p.engine):
			err = fmt.Errorf("engine %q takes no key %q", engine, k)
		case k == "drop":
			p.drop = v
		case k == "filter":
			p.filter = v == "ppf"
		case nerr != nil:
			err = nerr
		case k == "degree":
			p.degree = n
		case k == "depth":
			p.depth = n
		case k == "tau_hi":
			p.tau, p.tauHi = true, n
		case k == "tau_lo":
			p.tau, p.tauLo = true, n
		}
		if err != nil {
			break
		}
	}
	switch {
	case err != nil:
	case p.scheme() != s:
		err = fmt.Errorf("not canonical (these parameters are spelled %q)", p.scheme())
	case p.degree < 0 || p.degree > 64 || p.depth < 0 || p.depth > 64:
		err = errors.New("degree and depth must be 1..64")
	case p.degree == 0 && (engine == "next-line" || engine == "stride"):
		err = errors.New("next-line and stride need a degree")
	case p.drop != "" && !slices.ContainsFunc(ppf.DefaultFeatures(), func(f ppf.FeatureSpec) bool { return f.Name == p.drop }):
		err = fmt.Errorf("%q is not a default feature", p.drop)
	}
	if err != nil {
		return parametric{}, fmt.Errorf("experiment: scheme %q: %w", s, err)
	}
	return p, nil
}

// build constructs p's prefetcher and filter; a named scheme is the
// parametric one with no parameters.
func (p parametric) build() (pf prefetch.Prefetcher, f *ppf.Filter) {
	switch p.engine {
	case SchemeNone:
	case "next-line":
		pf = prefetch.NewNextLine(p.degree)
	case "stride":
		pf = prefetch.NewStride(p.degree)
	case SchemeBOP:
		cfg := prefetch.DefaultBOPConfig()
		if p.degree > 0 {
			cfg = prefetch.BOPConfig{Degree: p.degree}
		}
		pf = prefetch.NewBOP(cfg)
	case SchemeAMPM:
		pf = prefetch.NewAMPM(prefetch.DefaultAMPMConfig())
	case SchemeSPP:
		cfg := prefetch.DefaultSPPConfig()
		if p.depth > 0 {
			cfg = prefetch.SPPConfig{PrefetchThreshold: 1, FillThreshold: 90,
				MaxDepth: p.depth, MaxCandidates: p.depth + 4, ForcedDepth: p.depth}
		}
		pf = prefetch.NewSPP(cfg)
	case SchemePPF:
		cfg := ppf.DefaultConfig()
		if p.drop != "" {
			cfg.Features = slices.DeleteFunc(ppf.DefaultFeatures(), func(f ppf.FeatureSpec) bool { return f.Name == p.drop })
		}
		if p.tau {
			cfg.TauHi, cfg.TauLo = p.tauHi, p.tauLo
		}
		pf, f = prefetch.NewSPP(prefetch.AggressiveSPPConfig()), ppf.New(cfg)
	case SchemeVLDP:
		pf = prefetch.NewVLDP(prefetch.DefaultVLDPConfig())
	case SchemeSMS:
		pf = prefetch.NewSMS(prefetch.DefaultSMSConfig())
	case SchemeSandbox:
		pf = prefetch.NewSandbox(prefetch.DefaultSandboxConfig())
	default:
		panic(fmt.Sprintf("experiment: unknown scheme %q", p.engine))
	}
	if p.filter {
		f = ppf.New(ppf.DefaultConfig())
	}
	return pf, f
}

// NewSetup builds a per-core simulator setup for a scheme. Each call
// returns fresh prefetcher/filter state. A zero-value workload leaves
// Trace nil for the caller to supply (cmd/ppfsim does this when driving
// a binary trace file or its own reader). Only a name with parameters is
// parsed. Input names are checked with CheckScheme first, so an unknown
// engine or a malformed name here is a bug and panics.
func NewSetup(s Scheme, w workload.Workload, seed uint64) sim.CoreSetup {
	var setup sim.CoreSetup
	if w.Name != "" {
		setup.Trace = w.NewReader(seed)
	}
	p := parametric{engine: s}
	if strings.Contains(string(s), "[") {
		var err error
		if p, err = parseParametric(s); err != nil {
			panic(err)
		}
	}
	setup.Prefetcher, setup.Filter = p.build()
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
