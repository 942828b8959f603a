package advfuzz

import "testing"

// TestStoreReplayOracleBatchPath pins the prefetchers' burst path under
// the store-replay differential oracle: the PPF scheme drives the
// prefetcher through OnDemandBatch and decides each candidate of the
// burst with the filter's Decide and Record calls, so a
// replayed-from-store result diverging from a fresh recomputation would
// catch any nondeterminism in burst production (scratch reuse,
// acceptance feedback).
// Unlike the full corpus sweep this is not skipped under -short: it runs
// two adversarial specs at a small budget so the batch path always has
// oracle coverage in the default test run.
func TestStoreReplayOracleBatchPath(t *testing.T) {
	specs := Corpus()
	if len(specs) < 2 {
		t.Fatalf("corpus has %d specs, want >= 2", len(specs))
	}
	storeDir := t.TempDir()
	var replay Oracle
	for _, o := range Oracles(storeDir) {
		if o.Name == "replay-vs-recompute" {
			replay = o
		}
	}
	if replay.Check == nil {
		t.Fatal("replay-vs-recompute oracle not registered")
	}
	for _, spec := range []Spec{specs[0], specs[len(specs)/2]} {
		if err := replay.Check(spec, SchemePPF, 7, oracleBudget); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}
