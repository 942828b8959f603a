// Command ppfsim runs one simulation: a named workload or a trace file
// under a chosen prefetching scheme, printing IPC, cache, prefetch and
// filter statistics.
//
// Trace files may be the repo's native binary format (tracegen's .ppft)
// or ChampSim-compatible instruction traces, optionally gzip- or
// bzip2-compressed; the format and compression are sniffed from the
// file's leading bytes, so captured external traces run unmodified:
//
//	ppfsim -workload 603.bwaves_s -scheme ppf
//	ppfsim -trace bwaves.ppft -scheme spp -detail 2000000
//	ppfsim -trace 605.mcf_s.champsim.gz -scheme ppf
//	ppfsim -workload 605.mcf_s -scheme ppf -cores 4
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// checkedReader pairs a trace stream with an integrity check consulted
// after the simulation drains it: trace files can be truncated or
// corrupt mid-stream, and that must surface as a diagnostic, not as a
// silently shorter run.
type checkedReader struct {
	trace.Reader
	check func() error
}

// openTrace opens a trace file, sniffs its compression and format, and
// returns a reader over its instructions. The native format is
// identified by its "PPFT" magic; everything else is read as ChampSim
// records.
func openTrace(path string) (*checkedReader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	dec, err := tracefile.Decompress(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	br := bufio.NewReaderSize(dec, 1<<16)
	head, err := br.Peek(4)
	if err != nil && err != io.EOF {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	// The native format's header is the little-endian uint32 0x50504654
	// ("PPFT"), i.e. the bytes "TFPP" on disk.
	if len(head) == 4 && binary.LittleEndian.Uint32(head) == 0x50504654 {
		tr, err := trace.NewFileReader(br)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return &checkedReader{Reader: tr, check: tr.Err}, f, nil
	}
	ad := tracefile.NewAdapter(tracefile.NewReader(br))
	return &checkedReader{Reader: ad, check: ad.Err}, f, nil
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload name (see -listworkloads)")
	traceFile := fs.String("trace", "", "trace file, native .ppft or ChampSim format, optionally gzipped (alternative to -workload)")
	scheme := fs.String("scheme", "ppf", fmt.Sprintf("one of %v, or ppf[tau_hi=N,tau_lo=M]", experiment.NamedSchemes()))
	cores := fs.Int("cores", 1, "number of cores (the workload runs on every core)")
	warmup := fs.Uint64("warmup", 200_000, "warmup instructions per core")
	detail := fs.Uint64("detail", 1_000_000, "detailed instructions per core")
	seed := fs.Uint64("seed", 1, "workload seed")
	listWL := fs.Bool("listworkloads", false, "list workload names and exit")
	compare := fs.Bool("compare", false, "run every scheme on the workload and print a comparison")
	verbose := fs.Bool("v", false, "print the full per-cache counter breakdown")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, format+"\n", args...)
		return 1
	}

	if *listWL {
		for _, w := range workload.All() {
			mark := " "
			if w.MemoryIntensive {
				mark = "*"
			}
			fmt.Fprintf(stdout, "%s %-20s (%s)\n", mark, w.Name, w.Suite)
		}
		fmt.Fprintln(stdout, "\n* = memory-intensive (LLC MPKI > 1 subset)")
		return 0
	}

	if *compare {
		if *wl == "" {
			return fatalf("-compare requires -workload")
		}
		w, ok := workload.ByName(*wl)
		if !ok {
			return fatalf("unknown workload %q (try -listworkloads)", *wl)
		}
		runComparison(stdout, w, *seed, *warmup, *detail)
		return 0
	}

	if err := experiment.CheckScheme(experiment.Scheme(*scheme)); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	cfg := sim.DefaultConfig(*cores)
	setups := make([]sim.CoreSetup, *cores)
	var checks []*checkedReader
	for c := range setups {
		var rd trace.Reader
		switch {
		case *traceFile != "":
			cr, closer, err := openTrace(*traceFile)
			if err != nil {
				return fatalf("open trace: %v", err)
			}
			defer closer.Close()
			checks = append(checks, cr)
			rd = cr
		case *wl != "":
			w, ok := workload.ByName(*wl)
			if !ok {
				return fatalf("unknown workload %q (try -listworkloads)", *wl)
			}
			rd = w.NewReader(*seed + uint64(c))
		default:
			return fatalf("one of -workload or -trace is required")
		}
		setup := experiment.NewSetup(experiment.Scheme(*scheme), workload.Workload{}, 0)
		setup.Trace = rd
		setups[c] = setup
	}

	sys, err := sim.NewSystem(cfg, setups)
	if err != nil {
		return fatalf("configuring system: %v", err)
	}
	res := sys.Run(*warmup, *detail)

	// A malformed trace file surfaces here: the simulator treats the
	// stream's end as end-of-trace either way, so the integrity check is
	// what distinguishes a clean EOF from mid-record corruption.
	for i, cr := range checks {
		if err := cr.check(); err != nil {
			return fatalf("ppfsim: trace %s (core %d): %v", *traceFile, i, err)
		}
	}

	fmt.Fprintln(stdout, cfg.Describe())
	fmt.Fprintf(stdout, "\nScheme: %s | warmup %d + detail %d instructions/core\n\n", *scheme, *warmup, *detail)
	for i, c := range res.PerCore {
		fmt.Fprintf(stdout, "core %d: IPC %.4f (%d instructions, %d cycles)\n", i, c.IPC, c.Instructions, c.Cycles)
		fmt.Fprintf(stdout, "  L1D: %.2f demand MPKI, %d misses\n", c.L1D.DemandMPKI(c.Instructions), c.L1D.DemandMisses)
		fmt.Fprintf(stdout, "  L2 : %.2f demand MPKI, %d misses, prefetch fills %d (accuracy %.1f%%)\n",
			c.L2.DemandMPKI(c.Instructions), c.L2.DemandMisses, c.L2.PrefetchFills, 100*c.L2.Accuracy())
		if *verbose {
			fmt.Fprintf(stdout, "  L1D detail: %v\n", c.L1D)
			fmt.Fprintf(stdout, "  L2  detail: %v\n", c.L2)
			robPct, fePct := 0.0, 0.0
			if c.Cycles > 0 {
				robPct = 100 * float64(c.ROBStallCycles) / float64(c.Cycles)
				fePct = 100 * float64(c.FetchStallCycles) / float64(c.Cycles)
			}
			fmt.Fprintf(stdout, "  stalls: ROB-full %d cycles (%.1f%%), front-end %d cycles (%.1f%%)\n",
				c.ROBStallCycles, robPct, c.FetchStallCycles, fePct)
		}
		fmt.Fprintf(stdout, "  branch MPKI %.2f\n", c.BranchMPKI)
		if c.Candidates > 0 {
			fmt.Fprintf(stdout, "  prefetcher: %d candidates, %d issued, %d useful", c.Candidates, c.PrefetchesIssued, c.PrefetchesUseful)
			if c.AvgLookaheadDepth > 0 {
				fmt.Fprintf(stdout, ", avg lookahead depth %.2f", c.AvgLookaheadDepth)
			}
			fmt.Fprintln(stdout)
		}
		if c.Filter != nil {
			f := c.Filter
			fmt.Fprintf(stdout, "  PPF: %d inferences -> %d L2 / %d LLC / %d dropped / %d squashed (issue rate %.1f%%)\n",
				f.Inferences, f.IssuedL2, f.IssuedLLC, f.Dropped, f.Squashed, 100*f.IssueRate())
			fmt.Fprintf(stdout, "       training: %d positive, %d negative, %d false negatives recovered\n",
				f.TrainPositive, f.TrainNegative, f.FalseNegatives)
			fmt.Fprintf(stdout, "       tables: %d useful prefetches confirmed, %d unused-prefetch evictions\n",
				f.UsefulIssued, f.EvictUnused)
			fmt.Fprintf(stdout, "       thrash: %d near-threshold inferences (%.1f%%)\n",
				f.Boundary, 100*f.BoundaryRate())
		}
	}
	fmt.Fprintf(stdout, "\nLLC: %d demand misses, %d prefetch fills\n", res.LLC.DemandMisses, res.LLC.PrefetchFills)
	if *verbose {
		fmt.Fprintf(stdout, "LLC detail: %v\n", res.LLC)
	}
	fmt.Fprintf(stdout, "DRAM: %d demand reads, %d prefetch reads, %d promoted, %d writes, %d row hits / %d row misses\n",
		res.DRAM.Reads, res.DRAM.PrefetchReads, res.DRAM.PromotedReads, res.DRAM.Writes,
		res.DRAM.RowHits, res.DRAM.RowMisses)
	return 0
}

// runComparison runs every named scheme on one workload and prints a
// table.
func runComparison(stdout io.Writer, w workload.Workload, seed, warmup, detail uint64) {
	fmt.Fprintf(stdout, "%-10s %8s %9s %10s %10s %10s\n",
		"scheme", "IPC", "speedup", "L2 MPKI", "pf issued", "pf useful")
	var baseIPC float64
	for _, s := range experiment.NamedSchemes() {
		res := experiment.Exec{}.RunSingle(sim.DefaultConfig(1), s, w, seed,
			experiment.Budget{Warmup: warmup, Detail: detail})
		c := res.PerCore[0]
		rel := "—"
		if s == experiment.SchemeNone {
			baseIPC = c.IPC
		} else if baseIPC > 0 {
			rel = fmt.Sprintf("%+.1f%%", 100*(c.IPC/baseIPC-1))
		}
		fmt.Fprintf(stdout, "%-10s %8.3f %9s %10.2f %10d %10d\n",
			s, c.IPC, rel, c.L2.DemandMPKI(c.Instructions), c.PrefetchesIssued, c.PrefetchesUseful)
	}
}
