package experiment

import (
	"fmt"
	"strings"

	"repro/internal/advfuzz"
	"repro/internal/sim"
)

// AdversarialRow is one fuzz-derived regression workload's behaviour
// under the three differential schemes.
type AdversarialRow struct {
	Name string
	Note string
	// BaseIPC is the no-prefetch IPC; SPP and PPF are speedups over it.
	BaseIPC float64
	SPP     float64
	PPF     float64
	// Accuracy is L2 prefetch accuracy under ppf (0..1).
	Accuracy float64
	// IssueRate is the fraction of PPF inferences issued anywhere.
	IssueRate float64
	// BoundaryRate is the fraction of inferences whose perceptron sum
	// landed within the thrash margin of τ_hi or τ_lo.
	BoundaryRate float64
	// PollutionPKI is unused-prefetch evictions per detailed
	// kilo-instruction under ppf.
	PollutionPKI float64
}

// AdversarialResult is the fuzz-derived regression table: the committed
// advfuzz corpus run under none/spp/ppf.
type AdversarialResult struct {
	Rows []AdversarialRow
}

// adversarialSchemes is the differential scheme set the corpus was
// fuzzed against.
var adversarialSchemes = []Scheme{SchemeSPP, SchemePPF}

// Adversarial runs the committed adversarial corpus — filter-hostile
// workloads found by cmd/advfuzz and pinned as regressions — under the
// baseline, unfiltered-SPP and PPF schemes. The table is the filter's
// worst-case report card: low accuracy, high boundary (thrash) rates
// and heavy pollution are expected here by construction; what must not
// regress is PPF's behaviour relative to unfiltered SPP on its own
// pathological inputs.
func Adversarial(x Exec, b Budget) AdversarialResult {
	specs := advfuzz.Corpus()
	cells := schemeCells(len(specs), adversarialSchemes)
	cfg := sim.DefaultConfig(1)
	results := runJobs(x, "adversarial", len(cells), func(i int) sim.Result {
		c := cells[i]
		return x.Run(NewCellSpec(cfg, c.s, specs[c.wi].Workload(), 1, b))
	})

	var res AdversarialResult
	i := 0
	for _, s := range specs {
		base := results[i]
		i++
		row := AdversarialRow{
			Name:    s.Name,
			Note:    s.Note,
			BaseIPC: base.PerCore[0].IPC,
		}
		for _, scheme := range adversarialSchemes {
			r := results[i]
			i++
			c := r.PerCore[0]
			switch scheme {
			case SchemeSPP:
				row.SPP = c.IPC / row.BaseIPC
			case SchemePPF:
				row.PPF = c.IPC / row.BaseIPC
				row.Accuracy = c.L2.Accuracy()
				if f := c.Filter; f != nil && c.Instructions > 0 {
					row.IssueRate = f.IssueRate()
					row.BoundaryRate = f.BoundaryRate()
					row.PollutionPKI = float64(f.EvictUnused) / (float64(c.Instructions) / 1000)
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render prints the adversarial regression table.
func (r AdversarialResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Adversarial corpus: fuzz-derived filter-hostile workloads (committed regressions)\n")
	header := []string{"workload", "baseIPC", "spp", "ppf", "accuracy", "issue", "boundary", "pollute/ki"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.3f", row.BaseIPC),
			fmtPct(row.SPP),
			fmtPct(row.PPF),
			fmt.Sprintf("%.1f%%", 100*row.Accuracy),
			fmt.Sprintf("%.1f%%", 100*row.IssueRate),
			fmt.Sprintf("%.1f%%", 100*row.BoundaryRate),
			fmt.Sprintf("%.1f", row.PollutionPKI),
		})
	}
	renderTable(&sb, header, rows)
	sb.WriteString("\nfamilies: thrash = near-threshold perceptron sums; storm = pollution floods;\n")
	sb.WriteString("flip = abrupt phase changes; tenants = bursty interleaving; drift = delta churn.\n")
	return sb.String()
}
