// Command experiments regenerates the PPF paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig1,fig9 [-quick] [-j 8] [-progress]
//	experiments -run all
//
// Each experiment prints the same rows/series the paper reports, with the
// paper's published values quoted for comparison. EXPERIMENTS.md records a
// full paper-vs-measured log.
//
// Sweeps fan out over a bounded worker pool (-j, default GOMAXPROCS).
// Results are deterministic at any -j: every sweep enumerates its
// (scheme, workload, seed) cells in a fixed order and gathers by cell,
// so the rendered tables are byte-identical whether -j is 1 or 64.
// -progress streams live done/total/ETA lines to stderr, and ends each
// sweep with a summary of its jobs' wall times.
//
// Distributed mode spreads the same sweeps over a fleet:
//
//	ppfstored -addr :9401 -dir shared-store          # shared result store
//	experiments -run thresholds -coordinate :9402 -storeurl http://host:9401
//	experiments -worker host:9402 -storeurl http://host:9401   # on each box
//
// The coordinator runs the experiments normally; its run cache submits
// each cell missing from the shared store once, the cell is leased to
// one worker at a time over a length-prefixed TCP protocol
// (internal/sweepfab), and the result is fetched back once published.
// Idle workers block on a lease request until a cell is queued. Tables
// are byte-identical to a local -j N run at any fleet size. -storeurl
// alone (no -coordinate/-worker) reads and writes the remote store
// directly; combined with -cachedir it layers the local disk store in
// front as a read-through/write-through tier.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/simstore"
	"repro/internal/sweepfab"
)

type runner struct {
	name string
	desc string
	// run executes the experiment, returning the rendered report and the
	// raw result value (marshalled when -json is set).
	run func(x experiment.Exec, b experiment.Budget) (string, any)
}

// wrap adapts a typed experiment function to the runner signature.
func wrap[T interface{ Render() string }](f func(experiment.Exec, experiment.Budget) T) func(experiment.Exec, experiment.Budget) (string, any) {
	return func(x experiment.Exec, b experiment.Budget) (string, any) {
		r := f(x, b)
		return r.Render(), r
	}
}

func runners(mixes int) []runner {
	text := func(f func() string) func(experiment.Exec, experiment.Budget) (string, any) {
		return func(experiment.Exec, experiment.Budget) (string, any) {
			out := f()
			return out, out
		}
	}
	return []runner{
		{"table1", "simulation parameters", text(experiment.Table1)},
		{"table2", "prefetch-table entry bits", text(experiment.Table2)},
		{"table3", "storage overhead", text(experiment.Table3)},
		{"fig1", "aggressive fixed-depth SPP motivation", wrap(experiment.Figure1)},
		{"fig6", "trained-weight distributions", wrap(experiment.Figure6)},
		{"fig7", "global Pearson factor per feature", wrap(experiment.Figure7)},
		{"fig8", "per-trace Pearson spread", wrap(experiment.Figure8)},
		{"fig9", "single-core SPEC CPU 2017 speedups", wrap(experiment.Figure9)},
		{"fig10", "cache-miss coverage", wrap(experiment.Figure10)},
		{"fig11", "4-core memory-intensive mixes", wrap(func(x experiment.Exec, b experiment.Budget) experiment.MulticoreResult {
			return experiment.Figure11(x, mixes, b)
		})},
		{"fig11rand", "4-core fully random mixes", wrap(func(x experiment.Exec, b experiment.Budget) experiment.MulticoreResult {
			return experiment.Figure11Random(x, mixes, b)
		})},
		{"fig12", "8-core memory-intensive mixes", wrap(func(x experiment.Exec, b experiment.Budget) experiment.MulticoreResult {
			return experiment.Figure12(x, mixes, b)
		})},
		{"fig13", "cross-validation (CloudSuite + SPEC 2006)", wrap(experiment.Figure13)},
		{"constrained", "small-LLC and low-bandwidth variants (§6.3)", wrap(experiment.Constrained)},
		{"ablation", "PPF design-choice ablations", wrap(experiment.Ablation)},
		{"generality", "PPF over next-line and stride (§3.2)", wrap(experiment.Generality)},
		{"selection", "23-candidate feature-selection procedure (§5.5)", wrap(experiment.Selection)},
		{"thresholds", "PPF threshold calibration sweep", wrap(experiment.ThresholdSweep)},
		{"adversarial", "fuzz-derived filter-hostile regression corpus", wrap(experiment.Adversarial)},
		{"stability", "seed-robustness of the headline result", wrap(func(x experiment.Exec, b experiment.Budget) experiment.StabilityResult {
			return experiment.Stability(x, []uint64{1, 2, 3}, b)
		})},
	}
}

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "comma-separated experiment names, or 'all'")
	quick := flag.Bool("quick", false, "use the short simulation budget")
	mixes := flag.Int("mixes", 12, "number of multi-core mixes (paper uses 100)")
	warmup := flag.Uint64("warmup", 0, "override warmup instructions")
	detail := flag.Uint64("detail", 0, "override detailed instructions")
	jobs := flag.Int("j", 0, "max parallel simulation jobs (0 = GOMAXPROCS); any value yields identical tables")
	nocache := flag.Bool("nocache", false, "disable the run cache and the disk store (same tables, more wall-clock)")
	cachedir := flag.String("cachedir", ".simcache", "persistent sim-store directory ('' = in-memory cache only)")
	progress := flag.Bool("progress", false, "stream sweep progress/ETA and each sweep's job-time summary to stderr")
	jsonDir := flag.String("json", "", "also write each result as JSON into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile after the selected experiments to this file")
	storeURL := flag.String("storeurl", "", "remote PPFS store base URL (a ppfstored instance); with -cachedir, the local store tiers in front of it")
	coordinate := flag.String("coordinate", "", "listen address for fleet workers: lease store-missed cells to them instead of simulating locally (requires a shared store)")
	workerMode := flag.String("worker", "", "run as a fleet worker against the coordinator at this address (requires a shared store; ignores -run)")
	workerName := flag.String("workername", "", "worker label in coordinator logs (default: hostname)")
	leaseTimeout := flag.Duration("leasetimeout", 5*time.Minute, "coordinator lease lifetime before a cell requeues (size to the slowest expected cell; must be positive)")
	flag.Parse()

	if *leaseTimeout <= 0 {
		fmt.Fprintf(os.Stderr, "-leasetimeout must be positive, got %s\n", *leaseTimeout)
		os.Exit(2)
	}

	if *workerMode != "" {
		os.Exit(runFleetWorker(*workerMode, *workerName, *storeURL, *cachedir, *nocache))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *cpuProfile, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating %s: %v\n", *memProfile, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing heap profile: %v\n", err)
			}
		}()
	}

	rs := runners(*mixes)
	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, r := range rs {
			fmt.Printf("  %-12s %s\n", r.name, r.desc)
		}
		fmt.Println("\nrun with: experiments -run fig9   (or -run all)")
		return
	}

	b := experiment.DefaultBudget()
	if *quick {
		b = experiment.QuickBudget()
	}
	if *warmup > 0 {
		b.Warmup = *warmup
	}
	if *detail > 0 {
		b.Detail = *detail
	}

	want := map[string]bool{}
	for _, n := range strings.Split(*run, ",") {
		want[strings.TrimSpace(n)] = true
	}
	byName := map[string]runner{}
	var names []string
	for _, r := range rs {
		byName[r.name] = r
		names = append(names, r.name)
	}
	sort.Strings(names)

	var selected []runner
	if want["all"] {
		selected = rs
	} else {
		for _, n := range strings.Split(*run, ",") {
			n = strings.TrimSpace(n)
			r, ok := byName[n]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", n, strings.Join(names, ", "))
				os.Exit(2)
			}
			selected = append(selected, r)
		}
	}

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *jsonDir, err)
			os.Exit(1)
		}
	}
	// One run cache shared across every selected experiment: identical
	// (config, scheme, workload, seed, budget) cells — e.g. the fig9/fig10
	// matrix, or the no-prefetch baselines the ablation, generality and
	// threshold studies have in common — simulate once per invocation.
	// With -cachedir (the default), the cache is additionally backed by a
	// persistent content-addressed store, so cells survive across
	// invocations: stored results replay for free and cells sharing a
	// warmup prefix resume from post-warmup machine snapshots. Tables are
	// byte-identical with or without either layer (-nocache to compare).
	var cache *experiment.RunCache
	if !*nocache {
		cache = experiment.NewRunCache()
		if st, err := openStore(*cachedir, *storeURL); err != nil {
			fmt.Fprintf(os.Stderr, "opening sim store: %v (continuing without it)\n", err)
		} else if st != nil {
			cache.AttachStore(st)
		}
	}
	// Coordinator mode: store-missed cells are leased to fleet workers
	// instead of simulating in this process; everything else — budgets,
	// enumeration order, rendering — is untouched, which is why the
	// tables stay byte-identical at any fleet size.
	var coord *sweepfab.Coordinator
	if *coordinate != "" {
		if cache == nil || cache.Store() == nil {
			fmt.Fprintln(os.Stderr, "-coordinate needs a shared store (-storeurl and/or -cachedir) and the run cache enabled")
			os.Exit(2)
		}
		coord = sweepfab.NewCoordinator(sweepfab.Config{Store: cache.Store(), LeaseTimeout: *leaseTimeout})
		lis, err := net.Listen("tcp", *coordinate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coordinator listen %s: %v\n", *coordinate, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "coordinating fleet on %s (lease timeout %s)\n", lis.Addr(), *leaseTimeout)
		go coord.Serve(lis)
		coord.AttachTo(cache)
	}
	for _, r := range selected {
		x := experiment.Exec{Workers: *jobs, Cache: cache}
		if *progress {
			x.Progress = os.Stderr
		}
		start := time.Now() //ppflint:allow determinism wall time is operator feedback, not report data
		fmt.Printf("==== %s: %s ====\n", r.name, r.desc)
		rendered, data := r.run(x, b)
		wall := time.Since(start) //ppflint:allow determinism wall time is operator feedback, not report data
		fmt.Println(rendered)
		fmt.Printf("(%s in %.1fs)\n\n", r.name, wall.Seconds())
		if *jsonDir != "" {
			blob, err := json.MarshalIndent(data, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "marshal %s: %v\n", r.name, err)
				continue
			}
			path := filepath.Join(*jsonDir, r.name+".json")
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			}
		}
	}
	if coord != nil {
		coord.Close() // workers blocked on a lease receive shutdown
		c := coord.Board().Counters()
		fmt.Printf("fleet: %d cell(s) submitted to workers (%d completion(s), %d requeue(s), %d failure(s))\n",
			c.Submitted, c.Completions, c.Requeues, c.Failures)
	}
	if cache != nil {
		fmt.Println(cache.ReportLine())
	} else {
		fmt.Println("run cache: disabled (-nocache)")
	}
}

// openStore assembles the store backend from the -cachedir/-storeurl
// pair: local disk, remote HTTP, or the local store tiered in front of
// the remote one.
func openStore(cachedir, storeURL string) (simstore.Backend, error) {
	if storeURL == "" && cachedir == "" {
		return nil, nil
	}
	if storeURL == "" {
		return simstore.Open(cachedir)
	}
	remote := simstore.NewRemote(storeURL)
	if cachedir == "" {
		return remote, nil
	}
	local, err := simstore.Open(cachedir)
	if err != nil {
		return nil, err
	}
	return simstore.NewTiered(local, remote), nil
}

// runFleetWorker is -worker mode: lease cells from the coordinator and
// run them through a run cache whose save path publishes every result
// (and warmup snapshot) to the shared store.
func runFleetWorker(addr, name, storeURL, cachedir string, nocache bool) int {
	if nocache {
		fmt.Fprintln(os.Stderr, "-worker needs the run cache (its save path is how results publish); drop -nocache")
		return 2
	}
	if storeURL == "" {
		fmt.Fprintln(os.Stderr, "-worker needs -storeurl: the shared store is how results reach the coordinator")
		return 2
	}
	if name == "" {
		name, _ = os.Hostname()
	}
	st, err := openStore(cachedir, storeURL)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opening sim store: %v\n", err)
		return 1
	}
	rc := experiment.NewRunCache()
	rc.AttachStore(st)
	fmt.Fprintf(os.Stderr, "worker %s: leasing cells from %s, publishing to %s\n", name, addr, storeURL)
	ws, err := sweepfab.RunWorker(addr, sweepfab.WorkerConfig{Name: name, Exec: experiment.Exec{Cache: rc}})
	fmt.Fprintf(os.Stderr, "worker %s: ran %d cell(s) (%d failed, %d stale)\n",
		name, ws.Cells, ws.Failed, ws.StaleLeases)
	fmt.Fprintln(os.Stderr, rc.ReportLine())
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker %s: %v\n", name, err)
		return 1
	}
	return 0
}
