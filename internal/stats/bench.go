package stats

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// The layers of BENCH_layers.json. Each has its own gate bound.
const (
	LayerKernel = "kernel"
	LayerSim    = "sim"
	LayerServe  = "serve"
	LayerSweep  = "sweep"
)

// The directions a row's value improves in.
const (
	Lower  = "lower"
	Higher = "higher"
)

// layerBound returns the largest slowdown Gate lets a row of layer
// through, as a fraction of its baseline value (0.25 passes a kernel up
// to 1.25x slower), or 0 for an unknown layer. The sim, serve and sweep
// bound sits above the largest best-of-5 max/min spread of unchanged
// code on a shared 2-vCPU host (up to 1.62x) and below 1, so a 2x
// slowdown fails; EXPERIMENTS.md has the measurements.
func layerBound(layer string) float64 {
	switch layer {
	case LayerKernel:
		return 0.25
	case LayerSim, LayerServe, LayerSweep:
		return 0.8
	}
	return 0
}

// Row is one measured value of BENCH_layers.json.
type Row struct {
	// Layer is one of the Layer constants.
	Layer string `json:"layer"`
	// Name and Params identify what was measured; Params holds the
	// inputs, so a row measured at other inputs is a different row.
	Name   string `json:"name"`
	Params string `json:"params"`
	// Unit names what Value counts; Better is Lower or Higher.
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
}

// rowKey identifies a row across runs. The unit is part of it because a
// kernel has an ns/op and an allocs/op row under one name.
type rowKey struct{ layer, name, params, unit string }

func (r Row) key() rowKey { return rowKey{r.Layer, r.Name, r.Params, r.Unit} }

// beats reports whether r's value is better than o's in r's direction.
func (r Row) beats(o Row) bool {
	if r.Better == Higher {
		return r.Value > o.Value
	}
	return r.Value < o.Value
}

// Bench is the schema of BENCH_layers.json: a host header written once,
// then one row per measured value, each the best of Count runs.
type Bench struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"nproc"`
	Count     int    `json:"count"`
	Rows      []Row  `json:"rows"`
}

// NewBench returns an empty envelope stamped with this host and the
// number of runs each row will be the best of.
func NewBench(count int) Bench {
	return Bench{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Count:     count,
	}
}

// Add records one measurement: the first of a row appends it, and a
// later one replaces the kept value when it is better, so after N runs
// each row holds its best of N.
func (b *Bench) Add(r Row) {
	for i := range b.Rows {
		if b.Rows[i].key() == r.key() {
			if r.beats(b.Rows[i]) {
				b.Rows[i].Value = r.Value
			}
			return
		}
	}
	b.Rows = append(b.Rows, r)
}

// WriteFile marshals the envelope as indented JSON to path.
func (b Bench) WriteFile(path string) error {
	blob, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadBench loads an envelope written by WriteFile, the baseline side of
// Gate. A row with an unknown layer or direction is an error, since the
// gate could not judge it.
func ReadBench(path string) (Bench, error) {
	var b Bench
	blob, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range b.Rows {
		if layerBound(r.Layer) == 0 || (r.Better != Lower && r.Better != Higher) {
			return b, fmt.Errorf("%s: row %s %s %q: unknown layer or direction %q", path, r.Layer, r.Name, r.Params, r.Better)
		}
	}
	return b, nil
}

// Check is Gate's verdict on one row.
type Check struct {
	// Row is the run's row, or the baseline's when the run lacks it.
	Row
	// HasBase is false for a run row the baseline does not have, which
	// is informational; Base is then 0.
	HasBase bool
	Base    float64
	// Missing marks a baseline row the run did not produce.
	Missing bool
	// Bound is the row's layer bound; Fail is set for a missing row and
	// for a row slower than Base by more than Bound.
	Bound float64
	Fail  bool
}

// Gate compares every row of cur with the baseline row of the same
// layer, name, params and unit, in the row's direction, against its
// layer's bound. It returns one Check per run row, in run order, then
// one per baseline row the run lacks, which fails: a renamed or dropped
// row must not leave the gate unnoticed.
func Gate(base, cur Bench) []Check {
	baseBy := make(map[rowKey]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseBy[r.key()] = r
	}
	var checks []Check
	for _, r := range cur.Rows {
		c := Check{Row: r, Bound: layerBound(r.Layer)}
		if b, ok := baseBy[r.key()]; ok {
			c.HasBase, c.Base = true, b.Value
			if r.Better == Higher {
				c.Fail = b.Value > r.Value*(1+c.Bound)
			} else {
				c.Fail = r.Value > b.Value*(1+c.Bound)
			}
			delete(baseBy, r.key())
		}
		checks = append(checks, c)
	}
	for _, r := range base.Rows {
		if _, ok := baseBy[r.key()]; ok {
			checks = append(checks, Check{Row: r, HasBase: true, Base: r.Value, Missing: true, Bound: layerBound(r.Layer), Fail: true})
		}
	}
	return checks
}
