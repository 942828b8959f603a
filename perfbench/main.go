// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock budget, checks every output it
// produced against a reference, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// no instrumentation in the measured code. With --trace 1 they are the
// per-layer metrics: counts from an untraced pass, times from a separate
// traced pass, and the tracing overhead between the two. Layers are timed
// from outside, by wrapping the interfaces the simulator, the store and
// the server already accept (trace.Reader, prefetch.BatchProducer and its
// BatchSink, simstore.Backend, net.Listener). README.md lists the
// workloads and which end-to-end metric each layer metric moves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload. Each workload defines its unit of work and its operation; see
// README.md.
var endToEnd = []metricDef{
	{"work_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"trace.insts", "count"},
	{"trace.ns_per_inst", "ns"},
	{"prefetch.triggers", "count"},
	{"prefetch.candidates", "count"},
	{"prefetch.issued", "count"},
	{"prefetch.evicts", "count"},
	{"prefetch.evict_used_frac", "ratio"},
	{"prefetch.accuracy", "ratio"},
	{"prefetch.trigger_self_ns", "ns"},
	{"core.inferences", "count"},
	{"core.accept_rate", "ratio"},
	{"core.trains", "count"},
	{"core.boundary_rate", "ratio"},
	{"sim.issue_ns", "ns"},
	{"sim.cycles", "count"},
	{"sim.ipc", "ratio"},
	{"sim.rob_stall_cycles", "count"},
	{"sim.fetch_stall_cycles", "count"},
	{"branch.mpki", "ratio"},
	{"sim.wall_ns", "ns"},
	{"sim.residual_ns", "ns"},
	{"cache.l1d.misses", "count"},
	{"cache.l2.accesses", "count"},
	{"cache.l2.misses", "count"},
	{"cache.l2.prefetch_fills", "count"},
	{"cache.l2.mshr_full_stalls", "count"},
	{"cache.llc.misses", "count"},
	{"cache.llc.avg_miss_cycles", "cycles"},
	{"dram.reads", "count"},
	{"dram.prefetch_reads", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"dram.bus_util", "ratio"},
	{"serve.batches", "count"},
	{"serve.bytes_in_per_batch", "B"},
	{"serve.bytes_out_per_batch", "B"},
	{"serve.rtt_samples", "count"},
	{"serve.wire_us_per_batch", "us"},
	{"serve.sheds", "count"},
	{"serve.errors", "count"},
	{"engine.apply_us_per_batch", "us"},
	{"runner.cells", "count"},
	{"runner.memo_hits", "count"},
	{"runner.memo_misses", "count"},
	{"runner.cold_cells_per_s", "1/s"},
	{"runner.resume_cells_per_s", "1/s"},
	{"simstore.save_ns", "ns"},
	{"simstore.load_ns", "ns"},
	{"simstore.bytes_written", "B"},
	{"simstore.bytes_read", "B"},
	{"simstore.result_hits", "count"},
	{"simstore.result_misses", "count"},
	{"simstore.snapshot_hits", "count"},
	{"simstore.snapshot_misses", "count"},
	{"simstore.corrupt", "count"},
	{"setup.ns", "ns"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
}

// setupsPerPass is how many set-ups the pass-based workloads time before
// each pass. Set-up takes micro- to milliseconds and the shared host has
// slow spells seconds long, so setup_s is the median of many samples
// spread over the whole run rather than taken in one burst.
const setupsPerPass = 4

// workloadFunc runs one workload and fills res.
type workloadFunc func(cfg runConfig, res *result) error

// workloads maps the names BENCHMARK.json lists to the functions that run them.
var workloads = map[string]workloadFunc{
	"ppf-1c":       runPPF1C,
	"mix4-nopf":    runMix4NoPF,
	"ppfd-2stream": runPPFD2Stream,
	"sweep-tau":    runSweepTau,
}

// result accumulates a run's checks and metrics.
type result struct {
	attempted, failed int
	values            map[string]float64
	// notes are human-readable lines printed before the JSON result:
	// the workload's own named figures (Minstr/s, decisions/s, ...).
	notes []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

// check records one checked output.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// checkN records n checked outputs of which failed failed.
func (r *result) checkN(n, failed int, format string, args ...any) {
	r.attempted += n
	r.failed += failed
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed: "+format+"\n", append([]any{failed, n}, args...)...)
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report renders the metrics of the mode that ran. A metric the
// workload did not set reads 0; non-finite values (a ratio over an empty
// base) also read 0, so the output is always valid JSON.
func (r *result) report(defs []metricDef) reportOut {
	out := reportOut{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out
}

func main() {
	name := flag.String("workload", "", "workload to run: ppf-1c, mix4-nopf, ppfd-2stream or sweep-tau")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds to measure for")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build/run", "working directory for sweep stores")
	writeExpected := flag.String("write-expected", "", "regenerate the reference outputs into this file and exit")
	flag.Parse()

	if *writeExpected != "" {
		if err := regenerateExpected(*writeExpected); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		workdir: *workdir,
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, cfg.seed, *seconds, *traceFlag)
	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	res := newResult()
	if err := run(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.set("peak_rss_mb", peakRSSMB())

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, n := range res.notes {
		fmt.Println("# " + n)
	}
	out := res.report(defs)
	for _, d := range defs {
		fmt.Printf("%-28s %16.6g %s\n", d.name, out.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("# checks: %d attempted, %d failed (failed_frac %.6g)\n",
		res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
