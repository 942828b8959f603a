package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/advfuzz"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CellSpec is the wire-portable description of one simulation cell: an
// N-core machine, the scheme every core runs, each core's workload and
// seed, and the budget. It is everything a remote worker needs to
// reproduce the exact run a local Exec would perform. sim.Config is a
// plain value struct (ints, strings, bools), so the JSON round trip is
// exact and the reconstructed spec's Key() — which renders the config
// through CanonicalKey — matches the coordinator's byte for byte.
// Workloads travel by (suite, name) identity: streams are pure functions
// of identity and seed.
type CellSpec struct {
	Config sim.Config `json:"config"`
	Scheme Scheme     `json:"scheme"`
	// Cores holds core c's workload and seed at index c; a valid spec
	// has exactly Config.Cores of them.
	Cores  []CoreSpec `json:"cores"`
	Budget Budget     `json:"budget"`
}

// CoreSpec is one core's workload identity and trace seed.
type CoreSpec struct {
	Suite    workload.Suite `json:"suite"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
}

// coreSpec identifies w run with seed.
func coreSpec(w workload.Workload, seed uint64) CoreSpec {
	return CoreSpec{Suite: w.Suite, Workload: w.Name, Seed: seed}
}

// NewCellSpec returns the spec of a 1-core cell: w under s with seed.
func NewCellSpec(cfg sim.Config, s Scheme, w workload.Workload, seed uint64, b Budget) CellSpec {
	return CellSpec{Config: cfg, Scheme: s, Cores: []CoreSpec{coreSpec(w, seed)}, Budget: b}
}

// Key returns the cell's canonical store key: the warmup prefix plus the
// detail budget. The coordinator, every worker's run cache, and the
// shared store all agree on cell identity through it.
func (c CellSpec) Key() string {
	return c.warmupKey() + fmt.Sprintf("|detail=%d", c.Budget.Detail)
}

// warmupKey canonically identifies a cell's warmup prefix: everything
// that determines the machine state at the warmup/detail boundary.
// Cells that differ only in detail budget share it, and with it the
// stored post-warmup snapshot. Each core adds its |suite/name|seed=N,
// so a 1-core key reads <config>|<scheme>|<suite>/<name>|seed=N|warmup=W,
// and since the config renders its core count, no N-core key equals a
// 1-core one.
func (c CellSpec) warmupKey() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s", c.Config.CanonicalKey(), c.Scheme)
	for _, k := range c.Cores {
		fmt.Fprintf(&sb, "|%s/%s|seed=%d", k.Suite, k.Workload, k.Seed)
	}
	fmt.Fprintf(&sb, "|warmup=%d", c.Budget.Warmup)
	return sb.String()
}

// Encode renders the spec for the wire.
func (c CellSpec) Encode() ([]byte, error) {
	return json.Marshal(c)
}

// DecodeCellSpec parses a wire spec and checks that this build can
// simulate it. A field this build does not know, a config the simulator
// rejects, a core count that does not match the workloads, or a
// workload or scheme this build lacks is an error: a spec from another
// build fails instead of running as some other machine.
func DecodeCellSpec(data []byte) (CellSpec, error) {
	var c CellSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return CellSpec{}, fmt.Errorf("experiment: decoding cell spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return CellSpec{}, errors.New("experiment: decoding cell spec: data after the spec")
	}
	if err := c.Config.Validate(); err != nil {
		return CellSpec{}, fmt.Errorf("experiment: cell spec: %w", err)
	}
	if len(c.Cores) != c.Config.Cores {
		return CellSpec{}, fmt.Errorf("experiment: cell spec has %d core workloads for %d cores", len(c.Cores), c.Config.Cores)
	}
	for _, k := range c.Cores {
		if _, err := k.resolve(); err != nil {
			return CellSpec{}, err
		}
	}
	if err := CheckScheme(c.Scheme); err != nil {
		return CellSpec{}, err
	}
	return c, nil
}

// resolve reconstructs the full workload from the core's identity. The
// named suites resolve through the registry; adversarial cells resolve
// against the embedded fuzz corpus (their streams are pure functions of
// the committed spec genome plus seed, so every fleet member rebuilds
// the identical stream).
func (k CoreSpec) resolve() (workload.Workload, error) {
	if k.Suite == workload.AdversarialSuite {
		for _, s := range advfuzz.Corpus() {
			if w := s.Workload(); w.Name == k.Workload {
				return w, nil
			}
		}
		return workload.Workload{}, fmt.Errorf("experiment: adversarial workload %q not in the embedded corpus", k.Workload)
	}
	w, ok := workload.ByName(k.Workload)
	if !ok {
		return workload.Workload{}, fmt.Errorf("experiment: unknown workload %q", k.Workload)
	}
	if w.Suite != k.Suite {
		return workload.Workload{}, fmt.Errorf("experiment: workload %q is in suite %s, spec says %s", k.Workload, w.Suite, k.Suite)
	}
	return w, nil
}

// build constructs the cell's machine, fresh. Experiment configurations
// are statically valid and wire specs are checked when decoded, so an
// error here is a bug and panics.
func (c CellSpec) build() *sim.System {
	setups := make([]sim.CoreSetup, len(c.Cores))
	for i, k := range c.Cores {
		w, err := k.resolve()
		if err != nil {
			panic(err)
		}
		setups[i] = NewSetup(c.Scheme, w, k.Seed)
	}
	sys, err := sim.NewSystem(c.Config, setups)
	if err != nil {
		panic(err)
	}
	return sys
}
