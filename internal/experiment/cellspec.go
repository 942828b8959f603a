package experiment

import (
	"encoding/json"
	"fmt"

	"repro/internal/advfuzz"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CellSpec is the wire-portable description of one single-machine
// simulation cell: everything a remote worker needs to reproduce the
// exact run a local Exec would perform. sim.Config is a plain value
// struct (ints, strings, bools), so the JSON round trip is exact and
// the reconstructed spec's Key() — which renders the config through
// CanonicalKey — matches the coordinator's byte for byte. Workloads
// travel by (suite, name) identity: streams are pure functions of
// identity and seed, which is the same property the run cache's
// cellKey already relies on.
type CellSpec struct {
	Config   sim.Config     `json:"config"`
	Scheme   Scheme         `json:"scheme"`
	Suite    workload.Suite `json:"suite"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Budget   Budget         `json:"budget"`
}

// NewCellSpec captures a cell's identity from the run cache's
// parameters.
func NewCellSpec(cfg sim.Config, s Scheme, w workload.Workload, seed uint64, b Budget) CellSpec {
	return CellSpec{Config: cfg, Scheme: s, Suite: w.Suite, Workload: w.Name, Seed: seed, Budget: b}
}

// Key returns the cell's canonical store key — identical to the key
// the run cache computes for the same cell, so the coordinator, every
// worker's run cache, and the shared store all agree on cell identity.
func (c CellSpec) Key() string {
	w := workload.Workload{Name: c.Workload, Suite: c.Suite}
	return cellKey(c.Config, c.Scheme, w, c.Seed, c.Budget)
}

// Encode renders the spec for the wire.
func (c CellSpec) Encode() ([]byte, error) {
	return json.Marshal(c)
}

// DecodeCellSpec parses a wire spec.
func DecodeCellSpec(data []byte) (CellSpec, error) {
	var c CellSpec
	if err := json.Unmarshal(data, &c); err != nil {
		return CellSpec{}, fmt.Errorf("experiment: decoding cell spec: %w", err)
	}
	return c, nil
}

// Resolve reconstructs the full workload from the spec's identity. The
// named suites resolve through the registry; adversarial cells resolve
// against the embedded fuzz corpus (their streams are pure functions of
// the committed spec genome plus seed, so every fleet member rebuilds
// the identical stream).
func (c CellSpec) Resolve() (workload.Workload, error) {
	if c.Suite == workload.AdversarialSuite {
		for _, s := range advfuzz.Corpus() {
			if w := s.Workload(); w.Name == c.Workload {
				return w, nil
			}
		}
		return workload.Workload{}, fmt.Errorf("experiment: adversarial workload %q not in the embedded corpus", c.Workload)
	}
	w, ok := workload.ByName(c.Workload)
	if !ok {
		return workload.Workload{}, fmt.Errorf("experiment: unknown workload %q", c.Workload)
	}
	if w.Suite != c.Suite {
		return workload.Workload{}, fmt.Errorf("experiment: workload %q is in suite %s, spec says %s", c.Workload, w.Suite, c.Suite)
	}
	return w, nil
}

// Run simulates the cell through the given Exec — the unchanged cached
// single-cell path, so a worker publishing to a shared store persists
// the result and warmup snapshot exactly as a local run would.
func (c CellSpec) Run(x Exec) (sim.Result, error) {
	w, err := c.Resolve()
	if err != nil {
		return sim.Result{}, err
	}
	// Validate the scheme before simulating: NewSetup panics on unknown
	// schemes (experiment configs are statically valid), but a spec that
	// crossed a version skew between coordinator and worker is an input,
	// not a bug.
	if err := checkScheme(c.Scheme); err != nil {
		return sim.Result{}, err
	}
	return x.runSingle(c.Config, c.Scheme, w, c.Seed, c.Budget), nil
}

// checkScheme reports whether s names a known (possibly parametric)
// scheme without building its state.
func checkScheme(s Scheme) error {
	switch s {
	case SchemeNone, SchemeBOP, SchemeAMPM, SchemeSPP, SchemePPF,
		SchemeVLDP, SchemeSMS, SchemeSandbox:
		return nil
	}
	if _, _, ok := parsePPFVariant(s); ok {
		return nil
	}
	return fmt.Errorf("experiment: unknown scheme %q", s)
}
