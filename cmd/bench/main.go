// Command bench measures every layer the repository records a speed
// for and writes the rows as one envelope, BENCH_layers.json (schema
// internal/stats.Bench):
//
//   - kernel: the seven per-access micro-kernels, ns/op and allocs/op
//     (internal/kernelbench);
//   - sim: single-core Figure 9 cells end to end, simulated
//     instructions per second (internal/kernelbench);
//   - serve: ppfd decisions per second at 1, 8 and 64 streams against
//     an in-process server (serve.RunLoad);
//   - sweep: the threshold sweep's cells per second through a loopback
//     fleet of 1, 2 and 4 workers, cold and warm (sweepfab.Bench).
//
// Usage:
//
//	bench -out BENCH_layers.json
//	bench -baseline BENCH_layers.json -out BENCH_layers.smoke.json
//
// Every layer runs five times, interleaved, and each row keeps its best
// value: co-tenant noise only ever slows a run, so best-of-N converges
// on the true cost where a median swings with the host's load. Every
// run also checks what the producers guarantee (store hits and misses,
// the fleet's single-flight, no shed serve client); a violation exits 1
// naming its row.
//
// -baseline gates the run against an earlier envelope (stats.Gate):
// every baseline row is compared with the run's row of the same layer,
// name, params and unit, in the row's direction, against its layer's
// bound. A row slower than that, or a baseline row the run did not
// produce, exits 1. The output is written before the gate fires, so a
// failing run still leaves its measurements behind.
//
// To time one kernel while working on it, use the root wrappers, e.g.
// `go test -run '^$' -bench BenchmarkKernelSPPTrigger .`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/kernelbench"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/sweepfab"
)

// runs is how many times every row is measured; it reports the best.
const runs = 5

// layers are the row producers, in run order.
var layers = []struct {
	name string
	rows func() ([]stats.Row, error)
}{
	{stats.LayerKernel, func() ([]stats.Row, error) { return kernelbench.KernelRows(), nil }},
	{stats.LayerSim, kernelbench.SimRows},
	{stats.LayerServe, func() ([]stats.Row, error) { return serve.RunLoad("") }},
	{stats.LayerSweep, sweepfab.Bench},
}

func main() {
	out := flag.String("out", "BENCH_layers.json", "output path for the envelope")
	baseline := flag.String("baseline", "", "envelope to gate this run against (e.g. the committed BENCH_layers.json)")
	flag.Parse()
	if err := run(*out, *baseline); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(out, baseline string) error {
	// The baseline is read first, so a bad path fails before the runs.
	var base stats.Bench
	if baseline != "" {
		var err error
		if base, err = stats.ReadBench(baseline); err != nil {
			return err
		}
	}
	cur := stats.NewBench(runs)
	for i := 1; i <= runs; i++ {
		for _, l := range layers {
			fmt.Fprintf(os.Stderr, "run %d/%d: %s\n", i, runs, l.name)
			rows, err := l.rows()
			if err != nil {
				return err
			}
			for _, r := range rows {
				cur.Add(r)
			}
		}
	}
	failed := 0
	for _, c := range stats.Gate(base, cur) {
		printCheck(c)
		if c.Fail {
			failed++
		}
	}
	if err := cur.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d row(s) failed the gate against %s", failed, baseline)
	}
	return nil
}

// printCheck prints one row, with its baseline value and change when
// the baseline has it.
func printCheck(c stats.Check) {
	fmt.Printf("%-6s %-24s %-48s %-11s", c.Layer, c.Name, c.Params, c.Unit)
	switch {
	case c.Missing:
		fmt.Printf(" %12.4g -> missing from the run  FAIL\n", c.Base)
	case !c.HasBase:
		fmt.Printf(" %12s    %12.4g\n", "", c.Value)
	default:
		change := ""
		if c.Base != 0 {
			change = fmt.Sprintf("%+7.1f%%", (c.Value-c.Base)/c.Base*100)
		}
		verdict := ""
		if c.Fail {
			verdict = fmt.Sprintf("  FAIL: %s is better, bound %.0f%%", c.Better, c.Bound*100)
		}
		fmt.Printf(" %12.4g -> %12.4g %8s%s\n", c.Base, c.Value, change, verdict)
	}
}
