package experiment

import (
	"fmt"
	"strings"

	ppf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ThresholdPoint is one (τ_hi, τ_lo) configuration's geomean speedup.
type ThresholdPoint struct {
	TauHi, TauLo int
	Geomean      float64
}

// ThresholdSweepResult documents the calibration of PPF's filter
// thresholds. The paper set its thresholds empirically on SPEC CPU 2017
// without publishing values; this sweep is the equivalent procedure for
// this simulator and is how DefaultConfig's values were chosen.
type ThresholdSweepResult struct {
	Points []ThresholdPoint
	Best   ThresholdPoint
}

// ThresholdSweep evaluates a grid of thresholds over a representative
// subset of the memory-intensive workloads (the full subset at full
// budget is expensive; the ranking is stable on the subset). Baselines
// run as one parallel phase, then every (grid point, workload) cell is
// one job; the grid gathers in its historical enumeration order.
func ThresholdSweep(x Exec, b Budget) ThresholdSweepResult {
	subset := []string{"603.bwaves_s", "619.lbm_s", "605.mcf_s", "623.xalancbmk_s", "649.fotonik3d_s"}
	var ws []workload.Workload
	for _, n := range subset {
		ws = append(ws, workload.MustByName(n))
	}
	baseIPC := baselineIPCs(x, sim.DefaultConfig(1), ws, 1, b)

	var grid []ThresholdPoint
	for _, tauHi := range []int{-12, -4, 4, 12} {
		for _, gap := range []int{8, 14, 22} {
			grid = append(grid, ThresholdPoint{TauHi: tauHi, TauLo: tauHi - gap})
		}
	}
	// Each grid point is an ordinary PPFVariant-schemed cell, so the τ
	// grid flows through the run cache, the disk/remote store and the
	// sweep fabric like every other sweep — this grid is exactly the
	// workload the distributed fabric exists to scale out.
	ipcs := runJobs(x, "thresholds", len(grid)*len(ws), func(i int) float64 {
		pt, w := grid[i/len(ws)], ws[i%len(ws)]
		return x.RunSingle(sim.DefaultConfig(1), PPFVariant(pt.TauHi, pt.TauLo), w, 1, b).PerCore[0].IPC
	})

	var res ThresholdSweepResult
	for gi, pt := range grid {
		pt.Geomean = variantGeomean(ipcs[gi*len(ws):(gi+1)*len(ws)], baseIPC)
		res.Points = append(res.Points, pt)
	}
	res.Best = bestPoint(res.Points)
	return res
}

// bestPoint returns the highest-geomean point, seeded from the first
// point so that the reported best is always a member of the grid — even
// when every point's geomean is non-positive, which used to leave the
// zero-value (0, 0) as "best" and no row marked in the render.
func bestPoint(pts []ThresholdPoint) ThresholdPoint {
	if len(pts) == 0 {
		return ThresholdPoint{}
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Geomean > best.Geomean {
			best = p
		}
	}
	return best
}

// Render prints the sweep grid.
func (r ThresholdSweepResult) Render() string {
	var sb strings.Builder
	sb.WriteString("PPF threshold calibration sweep (geomean speedup, 5-workload subset)\n")
	header := []string{"tau_hi", "tau_lo", "geomean"}
	var rows [][]string
	for _, p := range r.Points {
		mark := ""
		if p == r.Best {
			mark = "  <== best"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%+d", p.TauHi),
			fmt.Sprintf("%+d", p.TauLo),
			fmtPct(p.Geomean) + mark,
		})
	}
	renderTable(&sb, header, rows)
	def := ppf.DefaultConfig()
	fmt.Fprintf(&sb, "\nshipping defaults: tau_hi=%+d tau_lo=%+d (theta_p=%d theta_n=%d)\n",
		def.TauHi, def.TauLo, def.ThetaP, def.ThetaN)
	return sb.String()
}
