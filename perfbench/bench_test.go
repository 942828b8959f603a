package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/prefetch"
)

// The wrapper must keep the simulator on its burst path: sim.NewSystem
// asserts prefetch.BatchProducer on whatever prefetcher it is handed.
var _ prefetch.BatchProducer = (*timedProducer)(nil)

// TestTracedMatchesUntraced runs every reference cell untraced and traced
// and requires identical digests, so tracing changes no simulated
// statistic. It also pins the two ways a wrapper can silently change the
// run: falling off the batch path, and SPP's lookahead depth reading 0
// through the wrapper.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, c := range referenceCells() {
		plain, err := runCell(c, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runCell(c, true)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s, untraced %s", c.label, traced.digest, plain.digest)
		}
		for i, cr := range traced.probes.readers {
			if cr.n < c.budget.Warmup+c.budget.Detail {
				t.Errorf("%s core %d: counted %d trace instructions, fewer than simulated", c.label, i, cr.n)
			}
		}
		for i, tp := range traced.probes.producers {
			if tp.scalarTriggers != 0 || tp.triggers == 0 {
				t.Errorf("%s core %d: %d scalar and %d batch triggers; the wrapper must keep the batch path",
					c.label, i, tp.scalarTriggers, tp.triggers)
			}
			if d := plain.result.PerCore[i].AvgLookaheadDepth; d == 0 {
				t.Errorf("%s core %d: untraced SPP lookahead depth is 0", c.label, i)
			}
		}
		if c.scheme == "none" && len(traced.probes.producers) != 0 {
			t.Errorf("%s: no-prefetch cell got a prefetch probe", c.label)
		}
	}
}

// TestReferenceDigests checks the stored reference digests still hold.
func TestReferenceDigests(t *testing.T) {
	res := newResult()
	if err := checkReference(res, referenceCells()); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted != len(referenceCells()) {
		t.Fatalf("%d of %d reference cells differ from expected.json", res.failed, res.attempted)
	}
}

func tinyRun(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, seconds: time.Millisecond, trace: trace, workdir: t.TempDir()}
}

// TestSimLayersNest runs traced passes over the reference cells. In every
// pass the named layer times must fit inside the traced wall time (the
// residual is not negative), and in every producer the sink's time must fit
// inside the trigger's, so the nested timers are consistent.
func TestSimLayersNest(t *testing.T) {
	for range 3 {
		p, err := runSimPass(referenceCells(), true)
		if err != nil {
			t.Fatal(err)
		}
		if r := p.residualNs(); r < 0 {
			t.Errorf("residual %d ns is negative: wall %d ns, trigger self %d, issue %d, trace %d",
				r, p.wall.Nanoseconds(), p.selfNs, p.sinkNs, p.traceNs)
		}
		for _, run := range p.runs {
			for i, tp := range run.probes.producers {
				if tp.sinkNs > tp.totalNs {
					t.Errorf("core %d: %d ns in the sink exceeds %d ns in OnDemandBatch", i, tp.sinkNs, tp.totalNs)
				}
			}
		}
		if p.evicts == 0 || p.evictsUsed > p.evicts {
			t.Errorf("%d filter-training evictions, %d of them used", p.evicts, p.evictsUsed)
		}
	}
}

// TestSimWorkloadLayers runs one traced pass of ppf-1c and mix4-nopf: the
// residual must be positive, and the prefetch and filter layers must read
// 0 with no prefetcher and not 0 under PPF.
func TestSimWorkloadLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two full passes")
	}
	for _, w := range []string{"ppf-1c", "mix4-nopf"} {
		res := newResult()
		if err := workloads[w](tinyRun(t, true), res); err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Fatalf("%s: %d of %d checks failed", w, res.failed, res.attempted)
		}
		v := res.values
		if v["sim.residual_ns"] <= 0 {
			t.Errorf("%s: residual %.0f ns is not positive", w, v["sim.residual_ns"])
		}
		if w == "mix4-nopf" {
			for _, m := range []string{"prefetch.candidates", "core.inferences", "sim.issue_ns", "prefetch.triggers", "prefetch.evicts"} {
				if v[m] != 0 {
					t.Errorf("mix4-nopf: %s = %g, want 0", m, v[m])
				}
			}
		} else {
			for _, m := range []string{"prefetch.candidates", "core.inferences", "sim.issue_ns", "prefetch.evicts", "prefetch.evict_used_frac"} {
				if v[m] == 0 {
					t.Errorf("ppf-1c: %s reads 0", m)
				}
			}
		}
	}
}

// TestServeVerdictsMatchLocalSession drives a short served phase, traced
// and untraced, and requires every batch to match the local replay.
func TestServeVerdictsMatchLocalSession(t *testing.T) {
	res := newResult()
	cfg := tinyRun(t, true)
	cfg.seconds = 200 * time.Millisecond
	if err := runPPFD2Stream(cfg, res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d batches failed", res.failed, res.attempted)
	}
	v := res.values
	if v["serve.batches"] == 0 || v["serve.bytes_in_per_batch"] == 0 || v["engine.apply_us_per_batch"] <= 0 {
		t.Errorf("serve layer not measured: %v", v)
	}
}

// TestEventMix answers a served stream from a local session and checks
// it keeps the per-trigger ratios it was calibrated to, and that every
// eviction hits a block an earlier verdict issued.
func TestEventMix(t *testing.T) {
	g := newEventStream(1, 0)
	sess := engine.New(core.DefaultConfig())
	batch := make([]engine.Event, serveBatch)
	var kinds [4]float64
	var used float64
	issued := map[uint64]bool{}
	for range 4096 {
		g.fill(batch)
		ds := sess.ApplyBatch(batch, nil)
		g.answered(batch, ds)
		j := 0
		for _, ev := range batch {
			kinds[ev.Kind]++
			switch ev.Kind {
			case engine.KindCandidate:
				if ds[j] != core.Drop {
					issued[ev.Input.Addr] = true
				}
				j++
			case engine.KindEvict:
				if !issued[ev.Input.Addr] {
					t.Fatalf("eviction of %#x, which no verdict issued", ev.Input.Addr)
				}
				if ev.Used {
					used++
				}
			}
		}
	}
	triggers := kinds[engine.KindDemand]
	if d := triggers - kinds[engine.KindLoadPC]; d < 0 || d > 1 {
		t.Errorf("%g demands but %g load-PC events; want one of each per trigger", triggers, kinds[engine.KindLoadPC])
	}
	if c := kinds[engine.KindCandidate] / triggers; math.Abs(c-candidatesPerTrigger) > 0.5 {
		t.Errorf("%.2f candidates per trigger, want %d", c, candidatesPerTrigger)
	}
	if e := kinds[engine.KindEvict] / triggers; math.Abs(e-evictsPerTriggerPerMil/1000.0) > 0.05 {
		t.Errorf("%.3f evictions per trigger, want %.3f", e, evictsPerTriggerPerMil/1000.0)
	}
	if u := used / kinds[engine.KindEvict]; math.Abs(u-evictUsedPerMil/1000.0) > 0.05 {
		t.Errorf("%.3f of evictions used, want %.3f", u, evictUsedPerMil/1000.0)
	}
}

// TestRTTHistQuantiles checks the histogram against exact quantiles of
// the same samples, within its bucket width.
func TestRTTHistQuantiles(t *testing.T) {
	var h rttHist
	r := rng{s: 3}
	var xs []float64
	for range 100_000 {
		d := time.Duration(20_000 + r.intn(5_000_000)*r.intn(3)/2)
		h.add(d)
		xs = append(xs, float64(d)/1e3)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got, want := h.quantileUs(q), quantile(xs, q)
		if math.Abs(got-want) > want/64 {
			t.Errorf("q%.2f: histogram %.3f us, exact %.3f us", q, got, want)
		}
	}
	if got, want := h.meanUs(), mean(xs); math.Abs(got-want) > 1e-6*want {
		t.Errorf("mean %.3f us, want %.3f us", got, want)
	}
}

// TestSweepTables runs one sweep pass pair against the stored tables.
func TestSweepTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 130 cells")
	}
	res := newResult()
	if err := runSweepTau(tinyRun(t, true), res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d checks failed", res.failed, res.attempted)
	}
	if res.values["simstore.bytes_written"] == 0 || res.values["runner.cells"] != 65 {
		t.Errorf("store or runner layer not measured: %v", res.values)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// benchmark definition at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), perfbench %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
