package experiment

import (
	"reflect"
	"strings"
	"testing"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// tinyBudget keeps unit tests fast; experiment *shape* assertions use
// QuickBudget via the -short-guarded tests below.
func tinyBudget() Budget { return Budget{Warmup: 20_000, Detail: 80_000} }

func TestNewSetupSchemes(t *testing.T) {
	w := workload.MustByName("603.bwaves_s")
	for _, s := range append(AllSchemes(), SchemeNone) {
		setup := NewSetup(s, w, 1)
		if setup.Trace == nil {
			t.Fatalf("%s: nil trace", s)
		}
		if s == SchemeNone && setup.Prefetcher != nil {
			t.Fatalf("none should have no prefetcher")
		}
		if s == SchemePPF && setup.Filter == nil {
			t.Fatalf("ppf should carry a filter")
		}
		if s != SchemePPF && setup.Filter != nil {
			t.Fatalf("%s should not carry a filter", s)
		}
	}
}

// TestNewSetupZeroWorkload is the regression test for the ppfsim crash:
// cmd/ppfsim builds setups with a zero workload and supplies its own
// trace reader afterwards, which used to panic inside NewReader.
func TestNewSetupZeroWorkload(t *testing.T) {
	setup := NewSetup(SchemePPF, workload.Workload{}, 1)
	if setup.Trace != nil {
		t.Fatal("zero workload should leave Trace nil for the caller")
	}
	if setup.Prefetcher == nil || setup.Filter == nil {
		t.Fatal("scheme wiring should not depend on the workload")
	}
}

func TestNewSetupPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSetup("bogus", workload.MustByName("603.bwaves_s"), 1)
}

// TestParametricSchemes: each parametric name passes CheckScheme and
// builds, through NewSetup, exactly the machine the experiments built by
// hand before their machines had names; and CheckScheme refuses every
// near-miss spelling, so one machine has one name and one cell key.
func TestParametricSchemes(t *testing.T) {
	noCacheLine := ppf.DefaultConfig()
	noCacheLine.Features = ppf.DefaultFeatures()[1:]
	taus := ppf.DefaultConfig()
	taus.TauHi, taus.TauLo = 4, -10
	aggressive := prefetch.NewSPP(prefetch.AggressiveSPPConfig())
	bop2 := prefetch.NewBOP(prefetch.BOPConfig{Degree: 2})
	for _, tc := range []struct {
		name   Scheme
		pf     prefetch.Prefetcher
		filter *ppf.Filter
	}{
		{"ppf[drop=CacheLine]", aggressive, ppf.New(noCacheLine)},
		{PPFVariant(4, -10), aggressive, ppf.New(taus)},
		{"next-line[degree=4]", prefetch.NewNextLine(4), nil},
		{"stride[degree=4]", prefetch.NewStride(4), nil},
		{"bop[degree=2]", bop2, nil},
		{"bop[degree=2,filter=ppf]", bop2, ppf.New(ppf.DefaultConfig())},
		{"da-ampm[filter=ppf]", prefetch.NewAMPM(prefetch.DefaultAMPMConfig()), ppf.New(ppf.DefaultConfig())},
		{"spp[depth=9]", prefetch.NewSPP(prefetch.SPPConfig{
			PrefetchThreshold: 1, FillThreshold: 90, MaxDepth: 9, MaxCandidates: 13, ForcedDepth: 9,
		}), nil},
	} {
		if err := CheckScheme(tc.name); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		setup := NewSetup(tc.name, workload.Workload{}, 1)
		if !reflect.DeepEqual(setup.Prefetcher, tc.pf) || !reflect.DeepEqual(setup.Filter, tc.filter) {
			t.Errorf("%s built another machine", tc.name)
		}
	}
	if got := PPFVariant(4, -10); got != "ppf[tau_hi=4,tau_lo=-10]" {
		t.Errorf("PPFVariant renders %q; stored threshold cells need ppf[tau_hi=4,tau_lo=-10]", got)
	}
	for _, near := range []Scheme{
		"ppf[drop=cacheline]",      // feature names are case-sensitive
		"spp[depth=07]",            // leading zero
		"bop[degree=+2]",           // sign
		"bop[filter=ppf,degree=2]", // keys out of order
		"bop[degree=2,degree=2]",   // repeated key
		"ppf[theta=40]",            // unknown key
		"ppf[tau_hi=4]",            // tau_hi without tau_lo
		"ppf[filter=ppf]",          // ppf already filters
		"spp[filter=ppf]",          // no study filters plain SPP
		"none[filter=ppf]",         // nothing to filter
		"da-ampm[filter=spp]",      // ppf is the only filter
		"next-line[filter=ppf]",    // next-line needs a degree
		"bop[degree=0]", "bop[degree=65]", "spp[depth=-1]",
		"da-ampm[]", "da-ampm[filter=ppf", "[degree=2]", "bogus[filter=ppf]",
	} {
		if err := CheckScheme(near); err == nil {
			t.Errorf("CheckScheme accepted %q", near)
		}
	}
}

func TestExecRun(t *testing.T) {
	w := workload.MustByName("648.exchange2_s")
	r := Exec{}.Run(NewCellSpec(sim.DefaultConfig(1), SchemeSPP, w, 1, tinyBudget()))
	if r.PerCore[0].IPC <= 0 {
		t.Fatal("no IPC measured")
	}
}

func TestTablesRender(t *testing.T) {
	if !strings.Contains(Table1(), "256-entry ROB") {
		t.Error("Table1 missing ROB row")
	}
	if !strings.Contains(Table2(), "85") {
		t.Error("Table2 missing total")
	}
	if !strings.Contains(Table3(), "322240 bits = 39.34 KB") {
		t.Errorf("Table3 total mismatch:\n%s", Table3())
	}
}

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Figure1(Serial(), tinyBudget())
	if len(r.Points) != 9 || r.Points[0].Depth != 7 || r.Points[8].Depth != 15 {
		t.Fatalf("depth sweep wrong: %+v", r.Points)
	}
	first, last := r.Points[0], r.Points[8]
	if first.IPC != 1 || first.TotalPF != 1 || first.GoodPF != 1 {
		t.Fatal("not normalised to depth 7")
	}
	// The paper's headline: total prefetches grow faster than useful ones.
	if last.TotalPF <= last.GoodPF {
		t.Errorf("total x%.2f should outgrow useful x%.2f", last.TotalPF, last.GoodPF)
	}
	if !strings.Contains(r.Render(), "depth") {
		t.Error("render empty")
	}
}

func TestFigure9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := speedupStudy(Serial(), sim.DefaultConfig(1),
		sortedCopy(workload.SPEC2017MemIntensive())[:4],
		[]Scheme{SchemeSPP, SchemePPF}, tinyBudget())
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BaseIPC <= 0 || row.Speedup[SchemeSPP] <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
	if r.GeomeanIntense[SchemeSPP] <= 0.5 {
		t.Fatalf("implausible SPP geomean %v", r.GeomeanIntense[SchemeSPP])
	}
}

func TestMulticoreQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Multicore(Serial(), 2, 2, workload.SPEC2017MemIntensive(), tinyBudget())
	for _, s := range r.Schemes {
		if len(r.PerMix[s]) != 2 {
			t.Fatalf("%s has %d mixes", s, len(r.PerMix[s]))
		}
		if r.Geomean[s] <= 0 {
			t.Fatalf("%s geomean %v", s, r.Geomean[s])
		}
	}
	if !strings.Contains(r.Render(), "GEOMEAN") {
		t.Error("render")
	}
}

func TestCorrAccumulator(t *testing.T) {
	acc := newCorrAccumulator(2)
	// Feature 0 perfectly tracks the outcome, feature 1 is constant.
	for i := 0; i < 100; i++ {
		out := 1
		w0 := int8(10)
		if i%2 == 0 {
			out = -1
			w0 = -10
		}
		acc.add([]int8{w0, 3}, out)
	}
	if p := acc.pearson(0); p < 0.99 {
		t.Fatalf("perfect feature Pearson %v", p)
	}
	if p := acc.pearson(1); p != 0 {
		t.Fatalf("constant feature Pearson %v", p)
	}
}

func TestRenderTableAlignment(t *testing.T) {
	var sb strings.Builder
	renderTable(&sb, []string{"a", "long-header"}, [][]string{{"xx", "y"}})
	out := sb.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "xx") {
		t.Fatalf("table output %q", out)
	}
}

func TestPickDeterministic(t *testing.T) {
	ws := workload.SPEC2017MemIntensive()
	a := pick(ws, 3, 1)
	b := pick(ws, 3, 1)
	if a.Name != b.Name {
		t.Fatal("pick not deterministic")
	}
	// Different mixes select different workloads at least sometimes.
	diff := false
	for m := 0; m < 10; m++ {
		if pick(ws, m, 0).Name != a.Name {
			diff = true
		}
	}
	if !diff {
		t.Fatal("pick always returns the same workload")
	}
}

func TestFmtPct(t *testing.T) {
	if fmtPct(1.1) != "+10.00%" {
		t.Fatalf("fmtPct(1.1) = %q", fmtPct(1.1))
	}
	if fmtPct(0.9) != "-10.00%" {
		t.Fatalf("fmtPct(0.9) = %q", fmtPct(0.9))
	}
}

func TestFigure10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Figure10(Serial(), tinyBudget())
	for _, s := range r.Schemes {
		if r.L2Coverage[s] < -1 || r.L2Coverage[s] > 1 {
			t.Fatalf("%s coverage out of range: %v", s, r.L2Coverage[s])
		}
	}
	// SPP-class prefetching must cover a meaningful share of L2 misses.
	if r.L2Coverage[SchemeSPP] < 0.05 {
		t.Fatalf("SPP L2 coverage %.2f implausibly low", r.L2Coverage[SchemeSPP])
	}
	if !strings.Contains(r.Render(), "coverage") {
		t.Fatal("render")
	}
}

func TestConstrainedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Constrained(Serial(), Budget{Warmup: 10_000, Detail: 40_000})
	if len(r.SmallLLC.Rows) != 11 || len(r.LowBandwidth.Rows) != 11 {
		t.Fatalf("rows %d/%d, want 11 mem-intensive apps each",
			len(r.SmallLLC.Rows), len(r.LowBandwidth.Rows))
	}
	if !strings.Contains(r.Render(), "small LLC") {
		t.Fatal("render")
	}
}

func TestGeneralityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Generality(Serial(), Budget{Warmup: 10_000, Detail: 40_000})
	if len(r.Rows) != 14 {
		t.Fatalf("%d rows, want 14 (7 engines x filtered/unfiltered)", len(r.Rows))
	}
	if !strings.Contains(r.Render(), "next-line") {
		t.Fatal("render")
	}
}

func TestFigure6And7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	b := Budget{Warmup: 5_000, Detail: 30_000}
	f6 := Figure6(Serial(), b)
	if f6.ConfXorPage.Total == 0 {
		t.Fatal("no trained ConfXorPage weights")
	}
	f7 := Figure7(Serial(), b)
	if len(f7.Correlations) != 10 { // 9 final + LastSignature
		t.Fatalf("%d correlations", len(f7.Correlations))
	}
	for _, c := range f7.Correlations {
		if c.Pearson < -1.001 || c.Pearson > 1.001 {
			t.Fatalf("%s Pearson %v out of range", c.Name, c.Pearson)
		}
	}
	if !strings.Contains(f6.Render(), "weight") || !strings.Contains(f7.Render(), "Pearson") {
		t.Fatal("render")
	}
}
