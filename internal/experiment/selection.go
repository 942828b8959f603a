package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	ppf "repro/internal/core"
	"repro/internal/workload"
)

// SelectionResult reproduces the paper's §5.5 feature-selection procedure:
// start from the 23-feature candidate pool, measure each feature's global
// Pearson factor against the prefetch outcome, build the cross-correlation
// matrix between features, and prune redundant (cross-correlation > 0.9)
// and uninformative (weak global and per-trace correlation) candidates.
type SelectionResult struct {
	Names []string
	// Global is each candidate's Pearson factor vs the outcome.
	Global []float64
	// Cross is the candidate cross-correlation matrix (|r| values).
	Cross [][]float64
	// Kept is the surviving feature set after pruning.
	Kept []string
	// Dropped maps each removed feature to the reason.
	Dropped map[string]string
	// Samples is the number of training events observed.
	Samples int
}

// selectionAccumulator extends the outcome correlation with pairwise
// feature-feature sums for the cross-correlation matrix.
type selectionAccumulator struct {
	*corrAccumulator
	sumXiXj [][]float64
}

func newSelectionAccumulator(n int) *selectionAccumulator {
	sa := &selectionAccumulator{corrAccumulator: newCorrAccumulator(n)}
	sa.sumXiXj = make([][]float64, n)
	for i := range sa.sumXiXj {
		sa.sumXiXj[i] = make([]float64, n)
	}
	return sa
}

func (sa *selectionAccumulator) add(weights []int8, outcome int) {
	sa.corrAccumulator.add(weights, outcome)
	for i := range weights {
		xi := float64(weights[i])
		row := sa.sumXiXj[i]
		for j := i; j < len(weights); j++ {
			row[j] += xi * float64(weights[j])
		}
	}
}

// merge folds another accumulator's sums into sa (see
// corrAccumulator.merge; workload-ordered merging keeps the totals
// independent of worker scheduling).
func (sa *selectionAccumulator) merge(o *selectionAccumulator) {
	sa.corrAccumulator.merge(o.corrAccumulator)
	for i := range sa.sumXiXj {
		for j := range sa.sumXiXj[i] {
			sa.sumXiXj[i][j] += o.sumXiXj[i][j]
		}
	}
}

// cross returns |Pearson| between features i and j.
func (sa *selectionAccumulator) cross(i, j int) float64 {
	if j < i {
		i, j = j, i
	}
	n := float64(sa.n)
	if n == 0 {
		return 0
	}
	cov := sa.sumXiXj[i][j] - sa.sumX[i]*sa.sumX[j]/n
	vi := sa.sumX2[i] - sa.sumX[i]*sa.sumX[i]/n
	vj := sa.sumX2[j] - sa.sumX[j]*sa.sumX[j]/n
	if vi <= 0 || vj <= 0 {
		return 0
	}
	return math.Abs(cov / math.Sqrt(vi*vj))
}

// Selection runs the candidate pool over the memory-intensive subset and
// applies the paper's pruning rules. Each workload trains into a private
// accumulator in one job; the partial sums merge in workload order.
func Selection(x Exec, b Budget) SelectionResult {
	feats := ppf.CandidateFeatures()
	ws := sortedCopy(workload.SPEC2017MemIntensive())
	accs := runJobs(x, "selection", len(ws), func(i int) *selectionAccumulator {
		acc := newSelectionAccumulator(len(feats))
		runFeatureStudy(ws[i], b, feats, acc.add)
		return acc
	})
	acc := newSelectionAccumulator(len(feats))
	for _, a := range accs {
		acc.merge(a)
	}

	res := SelectionResult{Samples: acc.n, Dropped: map[string]string{}}
	for i, spec := range feats {
		res.Names = append(res.Names, spec.Name)
		res.Global = append(res.Global, acc.pearson(i))
	}
	res.Cross = make([][]float64, len(feats))
	for i := range feats {
		res.Cross[i] = make([]float64, len(feats))
		for j := range feats {
			res.Cross[i][j] = acc.cross(i, j)
		}
	}

	// Pruning, per the paper:
	//  1. Drop features whose global correlation with the outcome is
	//     negligible ("didn't provide much useful correlation").
	//  2. For pairs with cross-correlation > 0.9, keep the member with
	//     the stronger outcome correlation ("eliminated redundant
	//     features, using guidance from Global and per-trace Pearson").
	const weakThreshold = 0.05
	const redundantThreshold = 0.9
	dropped := make([]bool, len(feats))
	for i := range feats {
		if math.Abs(res.Global[i]) < weakThreshold {
			dropped[i] = true
			res.Dropped[feats[i].Name] = "weak outcome correlation"
		}
	}
	// Order candidate pairs by descending cross-correlation so the most
	// redundant pairs resolve first.
	type pair struct {
		i, j int
		r    float64
	}
	var pairs []pair
	for i := 0; i < len(feats); i++ {
		for j := i + 1; j < len(feats); j++ {
			if res.Cross[i][j] > redundantThreshold {
				pairs = append(pairs, pair{i, j, res.Cross[i][j]})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].r > pairs[b].r })
	for _, p := range pairs {
		if dropped[p.i] || dropped[p.j] {
			continue
		}
		loser := p.i
		if math.Abs(res.Global[p.i]) >= math.Abs(res.Global[p.j]) {
			loser = p.j
		}
		dropped[loser] = true
		winner := p.i + p.j - loser
		res.Dropped[feats[loser].Name] = fmt.Sprintf(
			"redundant with %s (cross-corr %.2f)", feats[winner].Name, p.r)
	}
	for i, spec := range feats {
		if !dropped[i] {
			res.Kept = append(res.Kept, spec.Name)
		}
	}
	return res
}

// Render prints the selection study.
func (r SelectionResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Feature selection (§5.5): %d candidates, %d training samples\n",
		len(r.Names), r.Samples)
	header := []string{"feature", "global Pearson", "verdict"}
	var rows [][]string
	idx := make([]int, len(r.Names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(r.Global[idx[a]]) > math.Abs(r.Global[idx[b]])
	})
	for _, i := range idx {
		verdict := "KEEP"
		if why, ok := r.Dropped[r.Names[i]]; ok {
			verdict = "drop: " + why
		}
		rows = append(rows, []string{
			r.Names[i],
			fmt.Sprintf("%+.3f", r.Global[i]),
			verdict,
		})
	}
	renderTable(&sb, header, rows)
	fmt.Fprintf(&sb, "\nkept %d of %d candidates\n", len(r.Kept), len(r.Names))
	sb.WriteString("[paper: started from 23 candidates, pruned to 9 via global/per-trace\n")
	sb.WriteString(" Pearson factors and the 23x23 cross-correlation matrix]\n")
	return sb.String()
}
