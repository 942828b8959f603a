package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FeatureCorrelation holds one feature's Pearson factor against the
// prefetch outcome (the paper's §5.5 metric).
type FeatureCorrelation struct {
	Name    string
	Pearson float64
}

// Figure7Result is the global Pearson's-factor ranking across the final
// feature set, plus the rejected LastSignature feature for comparison.
type Figure7Result struct {
	Correlations []FeatureCorrelation // ascending by |Pearson|, paper order
	// TrainEvents is the number of training examples sampled.
	TrainEvents int
}

// Figure6Result holds trained-weight histograms for the paper's two
// showcase features: the retained Confidence⊕Page and the rejected
// LastSignature.
type Figure6Result struct {
	ConfXorPage   *stats.Histogram
	LastSignature *stats.Histogram
}

// Figure8Result is the per-trace Pearson spread for three low-global-value
// features, showing they still correlate strongly on some traces.
type Figure8Result struct {
	Features []string
	// PerTrace[featureIdx] holds |Pearson| per trace, sorted ascending
	// (the paper sorts traces by contribution).
	PerTrace [][]float64
}

// featureStudyFeatures returns the paper's nine features plus the
// rejected LastSignature candidate, which is trained alongside them so
// Figures 6–7 can show why it was rejected.
func featureStudyFeatures() []ppf.FeatureSpec {
	return append(ppf.DefaultFeatures(), ppf.LastSignatureFeature())
}

// corrAccumulator incrementally accumulates Pearson terms per feature.
type corrAccumulator struct {
	n      int
	sumX   []float64
	sumX2  []float64
	sumXY  []float64
	sumY   float64
	sumY2  float64
	nFeats int
}

func newCorrAccumulator(nFeats int) *corrAccumulator {
	return &corrAccumulator{
		nFeats: nFeats,
		sumX:   make([]float64, nFeats),
		sumX2:  make([]float64, nFeats),
		sumXY:  make([]float64, nFeats),
	}
}

func (a *corrAccumulator) add(weights []int8, outcome int) {
	y := float64(outcome)
	a.n++
	a.sumY += y
	a.sumY2 += y * y
	for i, w := range weights {
		x := float64(w)
		a.sumX[i] += x
		a.sumX2[i] += x * x
		a.sumXY[i] += x * y
	}
}

// merge folds another accumulator's sums into a. Parallel feature
// studies accumulate per workload and merge in workload order, so the
// totals are independent of worker scheduling.
func (a *corrAccumulator) merge(o *corrAccumulator) {
	a.n += o.n
	a.sumY += o.sumY
	a.sumY2 += o.sumY2
	for i := 0; i < a.nFeats; i++ {
		a.sumX[i] += o.sumX[i]
		a.sumX2[i] += o.sumX2[i]
		a.sumXY[i] += o.sumXY[i]
	}
}

func (a *corrAccumulator) pearson(i int) float64 {
	n := float64(a.n)
	if n == 0 {
		return 0
	}
	cov := a.sumXY[i] - a.sumX[i]*a.sumY/n
	vx := a.sumX2[i] - a.sumX[i]*a.sumX[i]/n
	vy := a.sumY2 - a.sumY*a.sumY/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// runFeatureStudy simulates one workload under SPP with a PPF filter over
// feats, handing every training example to onTrain (nil: none); it
// returns the filter for weight dumps.
func runFeatureStudy(w workload.Workload, b Budget, feats []ppf.FeatureSpec, onTrain func(weights []int8, outcome int)) *ppf.Filter {
	cfg := ppf.DefaultConfig()
	cfg.Features = feats
	filter := ppf.New(cfg)
	filter.OnTrainEvent = onTrain
	runSetup(sim.CoreSetup{
		Trace:      w.NewReader(1),
		Prefetcher: prefetch.NewSPP(prefetch.AggressiveSPPConfig()),
		Filter:     filter,
	}, b)
	return filter
}

// Figure7 computes the global Pearson factor of every feature over the
// full SPEC CPU 2017-like suite. Each workload trains against its own
// accumulator in one job; the partial sums merge in workload order.
func Figure7(x Exec, b Budget) Figure7Result {
	feats := featureStudyFeatures()
	ws := sortedCopy(workload.SPEC2017())
	accs := runJobs(x, "fig7", len(ws), func(i int) *corrAccumulator {
		acc := newCorrAccumulator(len(feats))
		runFeatureStudy(ws[i], b, feats, acc.add)
		return acc
	})
	acc := newCorrAccumulator(len(feats))
	for _, a := range accs {
		acc.merge(a)
	}
	res := Figure7Result{TrainEvents: acc.n}
	for i, spec := range feats {
		res.Correlations = append(res.Correlations, FeatureCorrelation{
			Name:    spec.Name,
			Pearson: acc.pearson(i),
		})
	}
	sort.Slice(res.Correlations, func(i, j int) bool {
		return abs64(res.Correlations[i].Pearson) < abs64(res.Correlations[j].Pearson)
	})
	return res
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render prints the Figure 7 ranking.
func (r Figure7Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: global Pearson factor per feature (%d training samples)\n", r.TrainEvents)
	header := []string{"feature", "Pearson"}
	var rows [][]string
	for _, c := range r.Correlations {
		rows = append(rows, []string{c.Name, fmt.Sprintf("%+.3f", c.Pearson)})
	}
	renderTable(&sb, header, rows)
	sb.WriteString("[paper: ConfXorPage highest ≈ 0.90; 5 of 9 features |P| > 0.6;\n")
	sb.WriteString(" LastSignature was rejected for weak correlation]\n")
	return sb.String()
}

// Figure6 dumps trained-weight histograms for ConfXorPage and
// LastSignature over the memory-intensive subset. One training job per
// workload; the integer histograms accumulate in workload order.
func Figure6(x Exec, b Budget) Figure6Result {
	feats := featureStudyFeatures()
	confIdx, lastIdx := -1, -1
	for i, spec := range feats {
		switch spec.Name {
		case "ConfXorPage":
			confIdx = i
		case "LastSignature":
			lastIdx = i
		}
	}
	res := Figure6Result{
		ConfXorPage:   stats.NewHistogram(ppf.WeightMin, ppf.WeightMax),
		LastSignature: stats.NewHistogram(ppf.WeightMin, ppf.WeightMax),
	}
	ws := workload.SPEC2017MemIntensive()
	filters := runJobs(x, "fig6", len(ws), func(i int) *ppf.Filter {
		return runFeatureStudy(ws[i], b, feats, nil)
	})
	for _, f := range filters {
		for _, v := range f.WeightsOf(confIdx) {
			if v != 0 {
				res.ConfXorPage.Add(int(v))
			}
		}
		for _, v := range f.WeightsOf(lastIdx) {
			if v != 0 {
				res.LastSignature.Add(int(v))
			}
		}
	}
	return res
}

// Render prints the two weight distributions side by side.
func (r Figure6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: distribution of trained non-zero weights\n")
	header := []string{"weight", "ConfXorPage", "LastSignature"}
	var rows [][]string
	for v := ppf.WeightMin; v <= ppf.WeightMax; v++ {
		rows = append(rows, []string{
			fmt.Sprintf("%+d", v),
			fmt.Sprintf("%5.1f%%", 100*r.ConfXorPage.Fraction(v)),
			fmt.Sprintf("%5.1f%%", 100*r.LastSignature.Fraction(v)),
		})
	}
	renderTable(&sb, header, rows)
	fmt.Fprintf(&sb, "\nmass within |w|<=2: ConfXorPage %.1f%%, LastSignature %.1f%%\n",
		100*r.ConfXorPage.MassNear(2), 100*r.LastSignature.MassNear(2))
	fmt.Fprintf(&sb, "mass at saturation:  ConfXorPage %.1f%%, LastSignature %.1f%%\n",
		100*r.ConfXorPage.SaturationMass(), 100*r.LastSignature.SaturationMass())
	sb.WriteString("[paper: ConfXorPage weights polarise toward the extremes;\n")
	sb.WriteString(" LastSignature weights bunch around zero]\n")
	return sb.String()
}

// Figure8 computes the per-trace Pearson spread for the three features
// the paper examines (PC⊕Delta, Signature⊕Delta, PC⊕Depth). Each trace
// already trains a private accumulator, so workloads parallelise with no
// merging at all.
func Figure8(x Exec, b Budget) Figure8Result {
	target := []string{"PCXorDelta", "SigXorDelta", "PCXorDepth"}
	feats := featureStudyFeatures()
	idx := map[string]int{}
	for i, spec := range feats {
		idx[spec.Name] = i
	}
	res := Figure8Result{Features: target, PerTrace: make([][]float64, len(target))}
	ws := sortedCopy(workload.SPEC2017())
	perWorkload := runJobs(x, "fig8", len(ws), func(i int) []float64 {
		acc := newCorrAccumulator(len(feats))
		runFeatureStudy(ws[i], b, feats, acc.add)
		vals := make([]float64, len(target))
		for t, name := range target {
			vals[t] = abs64(acc.pearson(idx[name]))
		}
		return vals
	})
	for _, vals := range perWorkload {
		for t := range target {
			res.PerTrace[t] = append(res.PerTrace[t], vals[t])
		}
	}
	for t := range res.PerTrace {
		sort.Float64s(res.PerTrace[t])
	}
	return res
}

// Render prints per-trace correlation spreads.
func (r Figure8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 8: |Pearson| per trace (sorted ascending per feature)\n")
	header := []string{"feature", "min", "p25", "median", "p75", "max", "traces |P|>0.5"}
	var rows [][]string
	for i, name := range r.Features {
		xs := r.PerTrace[i]
		over := 0
		for _, x := range xs {
			if x > 0.5 {
				over++
			}
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2f", stats.Percentile(xs, 0)),
			fmt.Sprintf("%.2f", stats.Percentile(xs, 25)),
			fmt.Sprintf("%.2f", stats.Percentile(xs, 50)),
			fmt.Sprintf("%.2f", stats.Percentile(xs, 75)),
			fmt.Sprintf("%.2f", stats.Percentile(xs, 100)),
			fmt.Sprintf("%d/%d", over, len(xs)),
		})
	}
	renderTable(&sb, header, rows)
	sb.WriteString("[paper: features weak globally still exceed |P| 0.5 on many traces]\n")
	return sb.String()
}
