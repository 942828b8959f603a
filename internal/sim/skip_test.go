package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workload"
)

// skipScheme builds one fresh per-core setup for the named scheme.
// Prefetcher and filter state is stateful, so the legacy and skipping
// systems under comparison must each get their own instances.
func skipScheme(t *testing.T, scheme string, w workload.Workload, seed uint64) CoreSetup {
	t.Helper()
	setup := CoreSetup{Trace: w.NewReader(seed)}
	switch scheme {
	case "none":
	case "spp":
		setup.Prefetcher = prefetch.NewSPP(prefetch.DefaultSPPConfig())
	case "ppf":
		setup.Prefetcher = prefetch.NewSPP(prefetch.AggressiveSPPConfig())
		setup.Filter = ppf.New(ppf.DefaultConfig())
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	return setup
}

// buildPair constructs two identical systems over the same (workloads,
// scheme, seed) cell: one forced onto the legacy +1 loop, one on the
// event-horizon skipping loop.
func buildPair(t *testing.T, scheme string, names []string, seed uint64) (legacy, skip *System) {
	t.Helper()
	cfg := DefaultConfig(len(names))
	mk := func() *System {
		setups := make([]CoreSetup, len(names))
		for i, n := range names {
			setups[i] = skipScheme(t, scheme, workload.MustByName(n), seed+uint64(i))
		}
		sys, err := NewSystem(cfg, setups)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	legacy, skip = mk(), mk()
	legacy.SetLegacyLoop(true)
	return legacy, skip
}

// TestSkipEquivalence is the cycle-skipping golden: across core counts,
// schemes and seeds, the event-horizon loop must produce a sim.Result
// byte-identical to the legacy one-cycle-at-a-time loop — including the
// stall-cycle counters it reconstructs for skipped cycles.
func TestSkipEquivalence(t *testing.T) {
	// Mixed-character workloads so multicore cores finish at different
	// cycles: mcf (pointer chasing, DRAM-bound) finishes long after
	// leela (cache-resident), exercising the "finished cores keep
	// contending" path in both loops.
	mixes := map[int][]string{
		1: {"605.mcf_s"},
		4: {"605.mcf_s", "603.bwaves_s", "641.leela_s", "620.omnetpp_s"},
		8: {"605.mcf_s", "603.bwaves_s", "641.leela_s", "620.omnetpp_s",
			"649.fotonik3d_s", "619.lbm_s", "648.exchange2_s", "623.xalancbmk_s"},
	}
	for _, cores := range []int{1, 4, 8} {
		for _, scheme := range []string{"none", "spp", "ppf"} {
			for _, seed := range []uint64{1, 2, 3} {
				name := fmt.Sprintf("%dcore/%s/seed%d", cores, scheme, seed)
				t.Run(name, func(t *testing.T) {
					warmup, detail := uint64(5_000), uint64(40_000)
					if cores == 8 {
						detail = 20_000
					}
					legacy, skip := buildPair(t, scheme, mixes[cores], seed)
					rl := legacy.Run(warmup, detail)
					rs := skip.Run(warmup, detail)
					if !reflect.DeepEqual(rl, rs) {
						t.Fatalf("legacy and skipping loops diverged\nlegacy: %+v\nskip:   %+v", rl, rs)
					}
					if skip.ticks > legacy.ticks {
						t.Fatalf("skipping loop executed more tick rounds (%d) than legacy (%d)",
							skip.ticks, legacy.ticks)
					}
				})
			}
		}
	}
}

// TestMulticoreResultGolden pins multi-core results absolutely. The
// skip-equivalence cases compare the run loop only with its own
// due-every-cycle policy, so a change both share would pass them; these
// digests of EncodeResult were recorded before runUntil ticked only the
// cores that can act.
func TestMulticoreResultGolden(t *testing.T) {
	mix4 := []string{"605.mcf_s", "603.bwaves_s", "641.leela_s", "620.omnetpp_s"}
	mix8 := append(append([]string(nil), mix4...),
		"649.fotonik3d_s", "619.lbm_s", "648.exchange2_s", "623.xalancbmk_s")
	for _, tc := range []struct {
		name, scheme   string
		names          []string
		seed           uint64
		warmup, detail uint64
		want           string
	}{
		{"4core/none", "none", mix4, 1, 5_000, 40_000, "a2aa94a619b1817bdc5237e189e28bdfe6fa488a1431eefe69ba5c78a91fec96"},
		{"4core/ppf", "ppf", mix4, 2, 5_000, 40_000, "b17b62156215362e8cfd3703b318c777de62839bd27316aa8cd7a5840196a402"},
		{"8core/none", "none", mix8, 3, 5_000, 20_000, "d414c9a8fd1cc6caf526c3ba8ae03c0070dd513df1f81b312ab6cc4900abb0d3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, sys := buildPair(t, tc.scheme, tc.names, tc.seed)
			res := sys.Run(tc.warmup, tc.detail)
			blob, err := EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("result digest %s, want %s (cycles %d)", got, tc.want, res.Cycles)
			}
		})
	}
}

// TestSkipActuallySkips pins the optimization itself: on DRAM-bound
// single-core runs the event-horizon loop must execute materially fewer
// tick rounds than cycles elapsed, otherwise the fast path has silently
// degenerated to the +1 loop. The bwaves cases are the layer
// benchmark's sim cell (seed 1, 200k warmup, 1M detail), where the
// skipping loop runs 21% of the legacy tick rounds with no prefetching
// and 28% under SPP; a tick count pins that gap where the wall-time
// rates, whose run-to-run spread is wider, cannot.
func TestSkipActuallySkips(t *testing.T) {
	cases := []struct {
		name, scheme, workload string
		warmup, detail         uint64
		// minSkip is the least legacy/skip tick ratio accepted.
		minSkip uint64
	}{
		{"mcf/none", "none", "605.mcf_s", 5_000, 40_000, 2},
		{"bwaves/none", "none", "603.bwaves_s", 200_000, 1_000_000, 3},
		{"bwaves/spp", "spp", "603.bwaves_s", 200_000, 1_000_000, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			legacy, skip := buildPair(t, tc.scheme, []string{tc.workload}, 1)
			rl := legacy.Run(tc.warmup, tc.detail)
			rs := skip.Run(tc.warmup, tc.detail)
			if !reflect.DeepEqual(rl, rs) {
				t.Fatalf("legacy and skipping loops diverged\nlegacy: %+v\nskip:   %+v", rl, rs)
			}
			if legacy.ticks != legacy.cycle {
				t.Fatalf("legacy loop should tick every cycle: %d ticks over %d cycles",
					legacy.ticks, legacy.cycle)
			}
			if skip.ticks*tc.minSkip > legacy.ticks {
				t.Fatalf("expected at most 1/%d of the legacy tick rounds, ticked %d of %d",
					tc.minSkip, skip.ticks, legacy.ticks)
			}
			t.Logf("ticked %d of %d legacy rounds", skip.ticks, legacy.ticks)
		})
	}
}

// TestFinishedCoresKeepContending verifies the multicore path where a
// fast core crosses its target early: it must keep issuing memory
// traffic (at unskipped cycles) until the slow core finishes, in both
// loops identically.
func TestFinishedCoresKeepContending(t *testing.T) {
	legacy, skip := buildPair(t, "spp", []string{"648.exchange2_s", "605.mcf_s", "641.leela_s", "603.bwaves_s"}, 7)
	rl := legacy.Run(2_000, 25_000)
	rs := skip.Run(2_000, 25_000)
	if !reflect.DeepEqual(rl, rs) {
		t.Fatalf("finished-core contention diverged\nlegacy: %+v\nskip:   %+v", rl, rs)
	}
	// The fast cache-resident cores must have recorded earlier finish
	// cycles than the DRAM-bound one — i.e. the contention window exists.
	var minFinish, maxFinish uint64 = ^uint64(0), 0
	for _, c := range skip.cores {
		if c.finishCycle < minFinish {
			minFinish = c.finishCycle
		}
		if c.finishCycle > maxFinish {
			maxFinish = c.finishCycle
		}
	}
	if minFinish == maxFinish {
		t.Fatal("test workloads finished simultaneously; contention window not exercised")
	}
}

// TestSkipEquivalenceTraceRunsOut covers a core whose trace ends
// mid-run beside three endless generators: core 0 reads 6,000 mcf
// instructions and stops fetching long before the others finish. Its
// idle stretch exercises skipTo's traceDone branch and the stall flush
// when runUntil returns, and both loops must agree on every counter,
// core 0's stall cycles and finish cycle included.
func TestSkipEquivalenceTraceRunsOut(t *testing.T) {
	const warmup, detail = 2_000, 30_000
	insts := trace.Collect(workload.MustByName("605.mcf_s").NewReader(1), 6_000)
	mk := func(legacy bool) *System {
		setups := []CoreSetup{{Trace: trace.NewSliceReader(insts)}}
		for i, n := range []string{"603.bwaves_s", "641.leela_s", "620.omnetpp_s"} {
			setups = append(setups, skipScheme(t, "spp", workload.MustByName(n), uint64(i+2)))
		}
		sys, err := NewSystem(DefaultConfig(4), setups)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetLegacyLoop(legacy)
		return sys
	}
	legacy, skip := mk(true), mk(false)
	rl := legacy.Run(warmup, detail)
	rs := skip.Run(warmup, detail)
	if !reflect.DeepEqual(rl, rs) {
		t.Fatalf("legacy and skipping loops diverged\nlegacy: %+v\nskip:   %+v", rl, rs)
	}
	for i := range skip.cores {
		if l, s := legacy.cores[i].finishCycle, skip.cores[i].finishCycle; l != s {
			t.Fatalf("core %d finish cycle: legacy %d, skip %d", i, l, s)
		}
	}
	if c0 := rs.PerCore[0]; c0.Instructions >= detail || c0.Cycles >= rs.Cycles {
		t.Fatalf("core 0 should run out of trace first: %d instructions over %d of %d cycles",
			c0.Instructions, c0.Cycles, rs.Cycles)
	}
}
