package core

import (
	"math/rand"
	"testing"

	"repro/internal/snap"
)

// snapshotBytes encodes the filter's full mutable state; two filters
// with equal bytes have identical weights, record tables, history and
// counters, so byte equality is the strongest equivalence check the
// package offers.
func snapshotBytes(t *testing.T, f *Filter) []byte {
	t.Helper()
	w := snap.NewEncoder()
	f.SnapshotWalk(w)
	b, err := w.Bytes()
	if err != nil {
		t.Fatalf("encoding snapshot: %v", err)
	}
	return b
}

// batchEquivalenceConfigs covers every computeRow dispatch path: the
// unrolled default nine-feature set, the devirtualized kind switch over
// the full candidate pool, and the KindCustom closure fallback.
func batchEquivalenceConfigs() []struct {
	name string
	cfg  Config
} {
	custom := DefaultConfig()
	custom.Features = []FeatureSpec{
		{Name: "custom_blockfold", TableSize: 1024,
			Index: func(in *FeatureInput) uint64 { return in.Addr>>6 ^ in.PC<<7 }},
		LastSignatureFeature(),
	}
	pool := DefaultConfig()
	pool.Features = CandidateFeatures()
	return []struct {
		name string
		cfg  Config
	}{
		{"default_set", DefaultConfig()},
		{"candidate_pool", pool},
		{"custom_closure", custom},
	}
}

// warmFilters drives the same pseudo-random training sequence through
// every filter so the batch/scalar comparison starts from a non-trivial
// learned state.
func warmFilters(rng *rand.Rand, fs ...*Filter) {
	for op := 0; op < 1500; op++ {
		in := randInput(rng)
		k := rng.Intn(4)
		used := rng.Intn(2) == 0
		for _, f := range fs {
			switch k {
			case 0:
				f.OnLoadPC(in.PC)
			case 1:
				f.Filter(&in)
			case 2:
				f.OnDemand(in.Addr)
			case 3:
				f.OnEvict(in.Addr, used)
			}
		}
	}
}

// TestFilterBatchMatchesSequential pins the one-shot burst path, which
// trains mid-burst through the record tables: every chunked burst must
// leave the filter in exactly the state the scalar Filter loop produces,
// byte for byte.
func TestFilterBatchMatchesSequential(t *testing.T) {
	for _, tc := range batchEquivalenceConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			fb, fs := New(tc.cfg), New(tc.cfg)
			warmFilters(rng, fb, fs)
			for round := 0; round < 40; round++ {
				n := 1 + rng.Intn(3*BatchChunk)
				ins := make([]FeatureInput, n)
				for i := range ins {
					ins[i] = randInput(rng)
					// Repeated addresses inside one burst force the
					// record-table overwrite training path to fire
					// between chunk rows.
					if i > 0 && rng.Intn(3) == 0 {
						ins[i].Addr = ins[rng.Intn(i)].Addr
					}
				}
				got := make([]Decision, n)
				fb.FilterBatch(ins, got)
				for i := range ins {
					if want := fs.Filter(&ins[i]); got[i] != want {
						t.Fatalf("round %d: decision[%d] = %v, scalar %v", round, i, got[i], want)
					}
				}
				probe := randInput(rng)
				fb.OnDemand(probe.Addr)
				fs.OnDemand(probe.Addr)
				fb.OnEvict(probe.Addr, round%2 == 0)
				fs.OnEvict(probe.Addr, round%2 == 0)
				if b, s := snapshotBytes(t, fb), snapshotBytes(t, fs); string(b) != string(s) {
					t.Fatalf("round %d (burst %d): batch and scalar snapshots diverge", round, n)
				}
			}
		})
	}
}

// TestFeatureRawMatchesIndex checks the devirtualized kind switch
// against the closure it replaces: for every spec in the candidate pool
// and the default set, featureRaw(kind, in) must equal Index(in) on
// arbitrary inputs — the burst kernel indexes the same weight slots the
// scalar closures would.
func TestFeatureRawMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	specs := append(CandidateFeatures(), DefaultFeatures()...)
	specs = append(specs, LastSignatureFeature())
	for _, spec := range specs {
		if spec.Kind == KindCustom {
			t.Errorf("spec %q declares no built-in kind; burst path would fall back to the closure", spec.Name)
			continue
		}
		for trial := 0; trial < 300; trial++ {
			in := randInput(rng)
			// Widen beyond randInput's bounded space: the raw value must
			// agree on every bit pattern, not just plausible candidates.
			in.Addr = rng.Uint64()
			in.PC = rng.Uint64()
			in.PCHist = [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
			if got, want := featureRaw(spec.Kind, &in), spec.Index(&in); got != want {
				t.Fatalf("%s: featureRaw=%#x Index=%#x for %+v", spec.Name, got, want, in)
			}
		}
	}
}

// TestSnapshotStableAcrossLayout pins the weight-plane encoding: the
// flat plane must serialize as per-feature sub-slices in table order —
// the identical byte stream the former slice-of-slices layout produced —
// and a snapshot must round-trip through a fresh filter byte-for-byte.
func TestSnapshotStableAcrossLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := New(DefaultConfig())
	warmFilters(rng, f)

	// Reconstruct the expected weight section from the public per-table
	// view, exactly as the old layout walked it.
	exp := snap.NewEncoder()
	for i := range f.FeatureNames() {
		exp.Int8s(f.WeightsOf(i))
	}
	want, err := exp.Bytes()
	if err != nil {
		t.Fatalf("encoding expected weight section: %v", err)
	}
	got := snapshotBytes(t, f)
	if len(got) < len(want) || string(got[:len(want)]) != string(want) {
		t.Fatalf("snapshot does not begin with the per-table weight stream (%d-byte prefix)", len(want))
	}

	// Round-trip: a fresh filter restored from the bytes re-encodes to
	// the same bytes and decides identically.
	g := New(DefaultConfig())
	r := snap.NewDecoder(got)
	g.SnapshotWalk(r)
	if err := r.Finish(); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	if b := snapshotBytes(t, g); string(b) != string(got) {
		t.Fatal("round-tripped snapshot re-encodes differently")
	}
	for trial := 0; trial < 200; trial++ {
		in := randInput(rng)
		if df, dg := f.Decide(&in), g.Decide(&in); df != dg {
			t.Fatalf("restored filter decides %v, original %v", dg, df)
		}
	}
}
