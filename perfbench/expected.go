package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expectedJSON holds the reference outputs every run checks against. It
// is regenerated with
//
//	perfbench --write-expected perfbench/expected.json
//
// and only when a change is meant to alter simulated results.
//
//go:embed expected.json
var expectedJSON []byte

type expectedOutputs struct {
	// Cells maps each reference cell's label to the SHA-256 of its
	// sim.EncodeResult bytes, at referenceSeed and referenceBudget.
	Cells map[string]string `json:"cells"`
	// SweepCold and SweepResume are the rendered threshold-sweep tables
	// of the cold and resume passes. ThresholdSweep fixes its own seed,
	// so they hold at every --seed.
	SweepCold   string `json:"sweep_cold"`
	SweepResume string `json:"sweep_resume"`
	// ResumeSnapshotHits is the store's snapshot hit count after both
	// passes: every cell of the resume pass restores from its snapshot.
	ResumeSnapshotHits uint64 `json:"resume_snapshot_hits"`
}

func loadExpected() (expectedOutputs, error) {
	var exp expectedOutputs
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return exp, fmt.Errorf("parsing expected outputs: %w", err)
	}
	return exp, nil
}

// regenerateExpected recomputes every reference output and writes them
// to path.
func regenerateExpected(path string) error {
	exp := expectedOutputs{Cells: map[string]string{}}
	for _, c := range referenceCells() {
		run, err := runCell(c, false)
		if err != nil {
			return err
		}
		exp.Cells[c.label] = run.digest
	}
	dir, err := os.MkdirTemp(filepath.Dir(path), ".sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := runSweepPass(filepath.Join(dir, "store"), false)
	if err != nil {
		return err
	}
	exp.SweepCold, exp.SweepResume = p.coldTable, p.resumeTable
	exp.ResumeSnapshotHits = p.store.SnapshotHits
	out, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
