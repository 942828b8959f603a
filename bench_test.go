package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (run the full-budget versions via cmd/experiments; these use
// reduced budgets so `go test -bench=.` completes in minutes), plus
// microbenchmarks of the performance-critical components.
//
// Figure/table mapping (see DESIGN.md §5):
//
//	BenchmarkFigure1       — aggressive fixed-depth SPP motivation sweep
//	BenchmarkTable2Table3  — storage accounting
//	BenchmarkFigure6to8    — feature analysis (weights + Pearson factors)
//	BenchmarkFigure9       — single-core SPEC CPU 2017 speedups
//	BenchmarkFigure10      — cache-miss coverage
//	BenchmarkFigure11      — 4-core memory-intensive mixes
//	BenchmarkFigure12      — 8-core memory-intensive mixes
//	BenchmarkFigure13      — cross-validation (CloudSuite + SPEC 2006)
//	BenchmarkConstrained   — §6.3 small-LLC / low-bandwidth variants
//	BenchmarkAblation      — PPF design-choice ablations
//	BenchmarkGenerality    — §3.2 PPF over other prefetchers

import (
	"testing"

	"repro/internal/branch"
	ppf "repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/kernelbench"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchBudget keeps each figure benchmark to a few seconds per iteration.
func benchBudget() experiment.Budget {
	return experiment.Budget{Warmup: 30_000, Detail: 120_000}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure1(experiment.Serial(), benchBudget())
		if len(r.Points) != 9 {
			b.Fatal("bad sweep")
		}
	}
}

func BenchmarkTable2Table3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiment.Table2()) == 0 || len(experiment.Table3()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure6to8(b *testing.B) {
	bud := experiment.Budget{Warmup: 10_000, Detail: 50_000}
	for i := 0; i < b.N; i++ {
		_ = experiment.Figure6(experiment.Serial(), bud)
		r7 := experiment.Figure7(experiment.Serial(), bud)
		if len(r7.Correlations) == 0 {
			b.Fatal("no correlations")
		}
		_ = experiment.Figure8(experiment.Serial(), bud)
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure9(experiment.Serial(), benchBudget())
		if len(r.Rows) != 20 {
			b.Fatal("suite incomplete")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure10(experiment.Serial(), benchBudget())
		if len(r.L2Coverage) == 0 {
			b.Fatal("no coverage data")
		}
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure11(experiment.Serial(), 3, benchBudget())
		if r.Cores != 4 {
			b.Fatal("bad core count")
		}
	}
}

func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Figure12(experiment.Serial(), 2, benchBudget())
		if r.Cores != 8 {
			b.Fatal("bad core count")
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	bud := experiment.Budget{Warmup: 10_000, Detail: 50_000}
	for i := 0; i < b.N; i++ {
		r := experiment.Figure13(experiment.Serial(), bud)
		if len(r.SPEC2006.Rows) != 29 {
			b.Fatal("2006 suite incomplete")
		}
	}
}

func BenchmarkConstrained(b *testing.B) {
	bud := experiment.Budget{Warmup: 10_000, Detail: 60_000}
	for i := 0; i < b.N; i++ {
		r := experiment.Constrained(experiment.Serial(), bud)
		if len(r.SmallLLC.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	bud := experiment.Budget{Warmup: 10_000, Detail: 40_000}
	for i := 0; i < b.N; i++ {
		r := experiment.Ablation(experiment.Serial(), bud)
		if len(r.Rows) == 0 {
			b.Fatal("no ablations")
		}
	}
}

func BenchmarkSelection(b *testing.B) {
	bud := experiment.Budget{Warmup: 10_000, Detail: 40_000}
	for i := 0; i < b.N; i++ {
		r := experiment.Selection(experiment.Serial(), bud)
		if len(r.Names) != 23 {
			b.Fatal("bad candidate pool")
		}
	}
}

func BenchmarkGenerality(b *testing.B) {
	bud := experiment.Budget{Warmup: 10_000, Detail: 60_000}
	for i := 0; i < b.N; i++ {
		r := experiment.Generality(experiment.Serial(), bud)
		if len(r.Rows) != 14 {
			b.Fatal("bad generality rows")
		}
	}
}

// --- Microbenchmarks -------------------------------------------------

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Instructions simulated per second on a representative workload.
	w := workload.MustByName("621.wrf_s")
	sys, err := sim.NewSystem(sim.DefaultConfig(1), []sim.CoreSetup{{
		Trace:      w.NewReader(1),
		Prefetcher: prefetch.NewSPP(prefetch.DefaultSPPConfig()),
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.Run(0, uint64(b.N))
	b.ReportMetric(float64(b.N), "instructions")
}

func BenchmarkTraceGenerator(b *testing.B) {
	rd := workload.MustByName("603.bwaves_s").NewReader(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rd.Next(); !ok {
			b.Fatal("generator ended")
		}
	}
}

func BenchmarkSPPOnDemand(b *testing.B) {
	s := prefetch.NewSPP(prefetch.DefaultSPPConfig())
	emit := func(prefetch.Candidate) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%4096) << 6
		s.OnDemand(prefetch.Access{PC: 0x400, Addr: addr}, emit)
	}
}

func BenchmarkFilterDecide(b *testing.B) {
	f := ppf.New(ppf.DefaultConfig())
	in := ppf.FeatureInput{
		Addr: 0x123456780, PC: 0x400123,
		PCHist: [3]uint64{1, 2, 3}, Depth: 3, Signature: 0xABC,
		Confidence: 60, Delta: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Addr += 64
		f.Decide(&in)
	}
}

func BenchmarkFilterTrainCycle(b *testing.B) {
	f := ppf.New(ppf.DefaultConfig())
	in := ppf.FeatureInput{Addr: 0x1000000, PC: 0x400123, Confidence: 60, Delta: 1, Depth: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Addr += 64
		f.RecordIssue(&in, ppf.FillL2)
		f.OnDemand(in.Addr)
	}
}

func BenchmarkKernelFilterDecideTrain(b *testing.B) {
	kernelbench.FilterDecideTrain(b)
}

func BenchmarkKernelCacheReadHit(b *testing.B) {
	kernelbench.CacheReadHit(b)
}

func BenchmarkKernelCacheReadMiss(b *testing.B) {
	kernelbench.CacheReadMiss(b)
}

func BenchmarkKernelCacheReadMiss256(b *testing.B) {
	kernelbench.CacheReadMiss256(b)
}

func BenchmarkKernelCachePrefetchSaturated(b *testing.B) {
	kernelbench.CachePrefetchSaturated(b)
}

func BenchmarkKernelSPPTrigger(b *testing.B) {
	kernelbench.SPPTrigger(b)
}

func BenchmarkKernelSPPLookaheadOnly(b *testing.B) {
	kernelbench.SPPLookaheadOnly(b)
}

func BenchmarkBranchPredictor(b *testing.B) {
	p := branch.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(uint64(0x400000+(i%64)*4), i%3 == 0)
	}
}

func BenchmarkTraceIO(b *testing.B) {
	insts := trace.Collect(workload.MustByName("625.x264_s").NewReader(1), 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink countingWriter
		w, _ := trace.NewWriter(&sink)
		for _, in := range insts {
			_ = w.Write(in)
		}
		_ = w.Flush()
	}
	b.SetBytes(int64(len(insts) * 24))
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}
