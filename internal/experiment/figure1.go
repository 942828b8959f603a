package experiment

import (
	"fmt"
	"strings"

	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Figure1Point is one lookahead-depth sample of the motivation study.
type Figure1Point struct {
	Depth int
	// IPC, TotalPF and GoodPF are normalised to the first depth, exactly
	// as the paper's Figure 1 plots them.
	IPC     float64
	TotalPF float64
	GoodPF  float64
}

// Figure1Result reproduces the paper's motivation figure: SPP with its
// confidence throttling disabled and the lookahead forced to a fixed
// depth from 7 to 15 on 603.bwaves_s. Total prefetches grow faster than
// useful prefetches, and IPC eventually degrades.
type Figure1Result struct {
	Workload string
	Points   []Figure1Point
}

// Figure1 runs the forced-depth sweep on the paper's subject workload.
func Figure1(x Exec, b Budget) Figure1Result {
	return figure1On(x, "603.bwaves_s", b)
}

// figure1On runs the sweep on any workload (used to pick a subject whose
// irregularity exposes the over-aggression effect). Each forced depth is
// one independent job; normalisation happens after the gather so the
// series is identical at any worker count.
func figure1On(x Exec, name string, b Budget) Figure1Result {
	w := workload.MustByName(name)
	const minDepth, maxDepth = 7, 15
	results := runJobs(x, "fig1-depth", maxDepth-minDepth+1, func(i int) sim.CoreResult {
		depth := minDepth + i
		spp := prefetch.NewSPP(prefetch.SPPConfig{
			PrefetchThreshold: 1,
			FillThreshold:     90,
			MaxDepth:          depth,
			MaxCandidates:     depth + 4,
			ForcedDepth:       depth,
		})
		return runSetup(sim.CoreSetup{Trace: w.NewReader(1), Prefetcher: spp}, b).PerCore[0]
	})

	res := Figure1Result{Workload: w.Name}
	var baseIPC, basePF, baseGood float64
	for i, c := range results {
		ipc := c.IPC
		// TOTAL_PF counts every prefetch the engine issues, as the paper
		// does (ChampSim counts requests before queue dedup); GOOD_PF is
		// the subset that proved useful.
		total := float64(c.Candidates)
		good := float64(c.PrefetchesUseful)
		if i == 0 {
			baseIPC, basePF, baseGood = ipc, total, good
		}
		res.Points = append(res.Points, Figure1Point{
			Depth:   minDepth + i,
			IPC:     ipc / baseIPC,
			TotalPF: total / basePF,
			GoodPF:  good / baseGood,
		})
	}
	return res
}

// Render prints the normalised series.
func (r Figure1Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1: aggressive fixed-depth SPP on %s (normalised to depth 7)\n", r.Workload)
	header := []string{"depth", "IPC", "TOTAL_PF", "GOOD_PF"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Depth),
			fmt.Sprintf("%.3f", p.IPC),
			fmt.Sprintf("%.3f", p.TotalPF),
			fmt.Sprintf("%.3f", p.GoodPF),
		})
	}
	renderTable(&sb, header, rows)
	last := r.Points[len(r.Points)-1]
	fmt.Fprintf(&sb, "\nAt depth %d: total prefetches x%.2f vs useful x%.2f; IPC %+.1f%% vs depth 7\n",
		last.Depth, last.TotalPF, last.GoodPF, (last.IPC-1)*100)
	sb.WriteString("[paper: total grows faster than useful; IPC degrades ~9% by depth 15.\n")
	sb.WriteString(" this model dedups duplicate suggestions before they consume bandwidth,\n")
	sb.WriteString(" so the request blow-up reproduces while the IPC penalty is muted]\n")
	return sb.String()
}
