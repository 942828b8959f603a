package stats

import (
	"encoding/json"
	"os"
)

// KernelResult is one micro-benchmark row of BENCH_kernel.json.
type KernelResult struct {
	// Name identifies the kernel (e.g. "filter_decide_train").
	Name string `json:"name"`
	// NsPerOp is wall nanoseconds per kernel operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the per-operation heap costs; the
	// hot kernels are expected to hold these at zero.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Iterations is the measured b.N, for judging noise.
	Iterations int64 `json:"iterations"`
}

// KernelBench is the schema of BENCH_kernel.json, the repository's
// kernel-performance trajectory. cmd/bench emits one of these per run;
// successive PRs append comparable snapshots.
type KernelBench struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Count is the number of repetitions each row is the median of
	// (cmd/bench -count); 1 means a single measurement.
	Count   int            `json:"count"`
	Kernels []KernelResult `json:"kernels"`
}

// SimRateRow is one end-to-end measurement of BENCH_sim.json: a fixed
// single-core cell timed wall-clock under a named scheme and run-loop
// variant.
type SimRateRow struct {
	// Name labels the row (e.g. "fig9_ppf_skip").
	Name string `json:"name"`
	// Scheme is the prefetching configuration ("none", "spp", "ppf").
	Scheme string `json:"scheme"`
	// Workload is the simulated benchmark.
	Workload string `json:"workload"`
	// LegacyLoop is true when the row forced the pre-event-horizon
	// one-cycle-at-a-time loop; comparing a scheme's legacy and skip rows
	// isolates the cycle-skipping speedup.
	LegacyLoop bool `json:"legacy_loop"`
	// MemoRuns, when > 1, means the cell was requested that many times
	// through a fresh run cache (one simulation + MemoRuns-1 replays);
	// Instructions then counts the replayed work too, so the row reports
	// the *effective* throughput duplicated suite cells see.
	MemoRuns int `json:"memo_runs,omitempty"`
	// StoreMode, when non-empty, means the cell ran against a persistent
	// sim store in a fresh temporary directory: "cold" is the first
	// invocation (full simulation plus snapshot/result entry writes),
	// "warm" a repeat invocation replaying the stored result. The delta
	// between the paired rows is the store's write overhead and read
	// speedup.
	StoreMode string `json:"store_mode,omitempty"`
	// Store traffic counters for StoreMode rows (absent otherwise).
	StoreResultHits     uint64  `json:"store_result_hits,omitempty"`
	StoreResultMisses   uint64  `json:"store_result_misses,omitempty"`
	StoreSnapshotHits   uint64  `json:"store_snapshot_hits,omitempty"`
	StoreSnapshotMisses uint64  `json:"store_snapshot_misses,omitempty"`
	WarmupInstructions  uint64  `json:"warmup_instructions"`
	DetailInstructions  uint64  `json:"detail_instructions"`
	Instructions        uint64  `json:"instructions"`
	Seconds             float64 `json:"seconds"`
	InstructionsPerSec  float64 `json:"instructions_per_sec"`
}

// SimBench is the schema of BENCH_sim.json: the end-to-end sim-rate
// trajectory, per scheme and run-loop variant (cycle skipping vs the
// legacy loop, plus the memoized effective rate).
type SimBench struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Count is the number of repetitions each row is the median of.
	Count int          `json:"count"`
	Rows  []SimRateRow `json:"rows"`
}

// ServeRow is one load-test measurement of BENCH_serve.json: N
// concurrent client streams driving the decision server flat out.
type ServeRow struct {
	// Streams is the number of concurrent client connections.
	Streams int `json:"streams"`
	// Batch is the events-per-frame batch size each stream used.
	Batch int `json:"batch"`
	// EventsPerStream is the synthetic events each stream sent.
	EventsPerStream int `json:"events_per_stream"`
	// Events and Decisions aggregate across streams; Decisions counts
	// candidate verdicts only (training events return none).
	Events    uint64 `json:"events"`
	Decisions uint64 `json:"decisions"`
	// Seconds is the wall time from first dial to last response.
	Seconds float64 `json:"seconds"`
	// DecisionsPerSec is the headline serving throughput.
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	// EventsPerSec includes training traffic.
	EventsPerSec float64 `json:"events_per_sec"`
	// Sheds counts clients the server dropped under backpressure during
	// the row (expected 0 in a healthy run).
	Sheds uint64 `json:"sheds,omitempty"`
}

// ServeBench is the schema of BENCH_serve.json: the decision-serving
// throughput trajectory emitted by cmd/ppfd -loadtest.
type ServeBench struct {
	GoVersion string     `json:"go_version"`
	GOOS      string     `json:"goos"`
	GOARCH    string     `json:"goarch"`
	Rows      []ServeRow `json:"rows"`
}

// SweepRow is one distributed-sweep measurement of BENCH_sweep.json:
// a fixed experiment grid run through a coordinator and N workers over
// loopback, cold (every cell simulates) or warm (every cell replays
// from the shared store).
type SweepRow struct {
	// Workers is the fleet size.
	Workers int `json:"workers"`
	// Mode is "cold" (fresh store, every cell simulates once fleet-wide)
	// or "warm" (same store, every cell is a remote replay).
	Mode string `json:"mode"`
	// Cells is the number of unique cells in the grid.
	Cells uint64 `json:"cells"`
	// Seconds is the wall time of the sweep; CellsPerSec the headline
	// rate (cold rows should scale with Workers, warm rows measure store
	// round-trip latency).
	Seconds     float64 `json:"seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
	// Lease-board counters proving single-flight: Leases should equal
	// Cells on a clean cold run and be zero on a warm one.
	Leases      uint64 `json:"leases"`
	Completions uint64 `json:"completions"`
	Requeues    uint64 `json:"requeues,omitempty"`
	// WorkerCells sums the cells the workers actually simulated (cold:
	// == Cells, the exactly-once proof; warm: 0).
	WorkerCells uint64 `json:"worker_cells"`
}

// SweepBench is the schema of BENCH_sweep.json: the distributed-sweep
// throughput trajectory emitted by cmd/bench -sweep.
type SweepBench struct {
	GoVersion string     `json:"go_version"`
	GOOS      string     `json:"goos"`
	GOARCH    string     `json:"goarch"`
	Rows      []SweepRow `json:"rows"`
}

// WriteFile marshals the snapshot as indented JSON to path.
func (s SweepBench) WriteFile(path string) error { return writeJSON(path, s) }

// WriteFile marshals the snapshot as indented JSON to path.
func (s ServeBench) WriteFile(path string) error { return writeJSON(path, s) }

// WriteFile marshals the snapshot as indented JSON to path.
func (k KernelBench) WriteFile(path string) error { return writeJSON(path, k) }

// ReadKernelBench loads a previously written BENCH_kernel.json snapshot,
// the baseline side of cmd/bench's -baseline comparison.
func ReadKernelBench(path string) (KernelBench, error) {
	var k KernelBench
	blob, err := os.ReadFile(path)
	if err != nil {
		return k, err
	}
	if err := json.Unmarshal(blob, &k); err != nil {
		return k, err
	}
	return k, nil
}

// WriteFile marshals the snapshot as indented JSON to path.
func (s SimBench) WriteFile(path string) error { return writeJSON(path, s) }

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
