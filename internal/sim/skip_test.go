package sim

import (
	"fmt"
	"reflect"
	"testing"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
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
