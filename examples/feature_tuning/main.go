// Feature-tuning walkthrough (paper §5.5): add a candidate feature to the
// filter, run a workload, and inspect trained-weight statistics and the
// Pearson correlation against the prefetch outcome — the methodology the
// paper used to select its final nine features.
//
//	go run ./examples/feature_tuning
package main

import (
	"fmt"
	"math"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	const warmup, detail = 150_000, 600_000

	// The candidate feature under evaluation: raw lookahead depth alone.
	// (The paper keeps PC⊕Depth instead; depth alone carries less signal.)
	candidate := ppf.FeatureSpec{
		Name:      "DepthOnly",
		TableSize: 128,
		Kind:      ppf.KindDepthOnly,
	}
	feats := append(ppf.DefaultFeatures(), candidate, ppf.LastSignatureFeature())

	cfg := ppf.DefaultConfig()
	cfg.Features = feats
	filter := ppf.New(cfg)

	// Collect (weight, outcome) samples per feature at every training
	// event, then compute Pearson correlations.
	nf := len(feats)
	sumX := make([]float64, nf)
	sumX2 := make([]float64, nf)
	sumXY := make([]float64, nf)
	var sumY, sumY2 float64
	n := 0
	filter.OnTrainEvent = func(ws []int8, outcome int) {
		y := float64(outcome)
		n++
		sumY += y
		sumY2 += y * y
		for i, w := range ws {
			x := float64(w)
			sumX[i] += x
			sumX2[i] += x * x
			sumXY[i] += x * y
		}
	}

	w := workload.MustByName("623.xalancbmk_s")
	sys, err := sim.NewSystem(sim.DefaultConfig(1), []sim.CoreSetup{{
		Trace:      w.NewReader(3),
		Prefetcher: prefetch.NewSPP(prefetch.AggressiveSPPConfig()),
		Filter:     filter,
	}})
	if err != nil {
		panic(err)
	}
	sys.Run(warmup, detail)

	fmt.Printf("workload %s: %d training samples\n\n", w.Name, n)
	fmt.Printf("%-14s %-9s %-12s %s\n", "feature", "Pearson", "|w|<=2 mass", "saturated mass")
	for i, spec := range feats {
		nn := float64(n)
		cov := sumXY[i] - sumX[i]*sumY/nn
		vx := sumX2[i] - sumX[i]*sumX[i]/nn
		vy := sumY2 - sumY*sumY/nn
		p := 0.0
		if vx > 0 && vy > 0 {
			p = cov / math.Sqrt(vx*vy)
		}
		h := stats.NewHistogram(ppf.WeightMin, ppf.WeightMax)
		for _, v := range filter.WeightsOf(i) {
			if v != 0 {
				h.Add(int(v))
			}
		}
		fmt.Printf("%-14s %+8.3f %10.1f%% %10.1f%%\n",
			spec.Name, p, 100*h.MassNear(2), 100*h.SaturationMass())
	}
	fmt.Println("\nLow-|Pearson| features with near-zero weight mass are rejection candidates (paper §5.5).")
}
