package experiment

import (
	"strings"
	"testing"

	ppf "repro/internal/core"
)

// Smoke tests for the thin experiment wrappers not covered elsewhere.
// They run at very small budgets: the goal is exercising the wiring and
// render paths, not statistical significance (the full-budget runs live
// in cmd/experiments and results_full.txt).

func microBudget() Budget { return Budget{Warmup: 3_000, Detail: 15_000} }

func TestFigure11WrappersRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Figure11(Serial(), 1, microBudget())
	if r.Cores != 4 || len(r.PerMix[SchemePPF]) != 1 {
		t.Fatalf("fig11 wrapper broken: %+v", r)
	}
	rr := Figure11Random(Serial(), 1, microBudget())
	if rr.Cores != 4 {
		t.Fatal("fig11rand wrapper broken")
	}
}

func TestFigure12WrapperRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Figure12(Serial(), 1, microBudget())
	if r.Cores != 8 {
		t.Fatal("fig12 wrapper broken")
	}
	if !strings.Contains(r.Render(), "8-core") {
		t.Fatal("render")
	}
}

func TestFigure13Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Figure13(Serial(), microBudget())
	if len(r.SPEC2006.Rows) != 29 {
		t.Fatalf("2006 rows %d", len(r.SPEC2006.Rows))
	}
	if len(r.Cloud.PerMix[SchemePPF]) != 4 {
		t.Fatalf("cloud mixes %d", len(r.Cloud.PerMix[SchemePPF]))
	}
	out := r.Render()
	if !strings.Contains(out, "CloudSuite") || !strings.Contains(out, "SPEC CPU 2006") {
		t.Fatal("render")
	}
}

func TestFigure8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Figure8(Serial(), microBudget())
	if len(r.Features) != 3 || len(r.PerTrace[0]) != 20 {
		t.Fatalf("fig8 shape: %d features, %d traces", len(r.Features), len(r.PerTrace[0]))
	}
	for _, xs := range r.PerTrace {
		for _, x := range xs {
			if x < 0 || x > 1.001 {
				t.Fatalf("|Pearson| %v out of range", x)
			}
		}
	}
	if !strings.Contains(r.Render(), "Pearson") {
		t.Fatal("render")
	}
}

func TestAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Ablation(Serial(), microBudget())
	// 9 leave-one-out rows plus the single-threshold variant.
	if len(r.Rows) != len(ppf.DefaultFeatures())+1 {
		t.Fatalf("%d ablation rows", len(r.Rows))
	}
	if r.Baseline <= 0 || r.SPP <= 0 {
		t.Fatal("missing reference points")
	}
	if !strings.Contains(r.Render(), "full PPF") {
		t.Fatal("render")
	}
}

func TestThresholdSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := ThresholdSweep(Serial(), microBudget())
	if len(r.Points) != 12 {
		t.Fatalf("%d sweep points", len(r.Points))
	}
	if r.Best.Geomean <= 0 {
		t.Fatal("no best point")
	}
	for _, p := range r.Points {
		if p.TauLo >= p.TauHi {
			t.Fatalf("inverted thresholds in sweep: %+v", p)
		}
	}
	if !strings.Contains(r.Render(), "best") {
		t.Fatal("render")
	}
}

func TestCandidateFeaturePoolIsValid(t *testing.T) {
	feats := ppf.CandidateFeatures()
	if len(feats) != 23 {
		t.Fatalf("candidate pool %d, want 23 (paper §5.5)", len(feats))
	}
	seen := map[string]bool{}
	in := ppf.FeatureInput{
		Addr: 0x12345680, PC: 0x400444, PCHist: [3]uint64{1, 2, 3},
		Depth: 3, Signature: 0x5A5, Confidence: 42, Delta: -2,
	}
	for _, f := range feats {
		if seen[f.Name] {
			t.Fatalf("duplicate candidate %q", f.Name)
		}
		seen[f.Name] = true
		if f.TableSize <= 0 {
			t.Fatalf("%s has no table", f.Name)
		}
	}
	cfg := ppf.DefaultConfig()
	cfg.Features = feats
	ppf.New(cfg).Decide(&in) // New rejects an unknown kind; Decide must not panic
}

func TestStabilityRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := Stability(Serial(), []uint64{1, 2}, microBudget())
	if len(r.Seeds) != 2 || len(r.PPFvsSPP) != 2 {
		t.Fatalf("stability shape %+v", r)
	}
	for _, v := range r.PPFvsSPP {
		if v <= 0 {
			t.Fatalf("non-positive ratio %v", v)
		}
	}
	if !strings.Contains(r.Render(), "seed") {
		t.Fatal("render")
	}
}
