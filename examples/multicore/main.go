// Multicore contention study: run a 4-core mix of memory-intensive
// workloads and show how PPF's filtering protects the shared LLC and DRAM
// bus — the effect behind the paper's Figure 11 (PPF's multi-core edge is
// larger than its single-core edge).
//
//	go run ./examples/multicore
package main

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	names := []string{"603.bwaves_s", "605.mcf_s", "619.lbm_s", "623.xalancbmk_s"}
	var cores []experiment.CoreSpec
	for i, n := range names {
		w := workload.MustByName(n)
		cores = append(cores, experiment.CoreSpec{Suite: w.Suite, Workload: w.Name, Seed: uint64(i + 1)})
	}

	baseIPC := make([]float64, len(names))
	for _, s := range []experiment.Scheme{experiment.SchemeNone, experiment.SchemeSPP, experiment.SchemePPF} {
		// One 4-core machine sharing an LLC and DRAM: the same cell the
		// experiments key, store and lease.
		res := experiment.Exec{}.Run(experiment.CellSpec{
			Config: sim.DefaultConfig(len(names)),
			Scheme: s,
			Cores:  cores,
			Budget: experiment.Budget{Warmup: 100_000, Detail: 400_000},
		})

		fmt.Printf("== %s ==\n", s)
		sum := 0.0
		for i, c := range res.PerCore {
			rel := ""
			if s == experiment.SchemeNone {
				baseIPC[i] = c.IPC
			} else if baseIPC[i] > 0 {
				rel = fmt.Sprintf("  (%+.1f%%)", 100*(c.IPC/baseIPC[i]-1))
			}
			fmt.Printf("  core %d %-16s IPC %.3f%s\n", i, names[i], c.IPC, rel)
			sum += c.IPC
		}
		fmt.Printf("  IPC sum %.3f | LLC misses %d | DRAM: %d demand + %d prefetch reads, %d row misses\n\n",
			sum, res.LLC.DemandMisses, res.DRAM.Reads, res.DRAM.PrefetchReads, res.DRAM.RowMisses)
	}
}
