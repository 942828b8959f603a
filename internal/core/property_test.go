package core

import (
	"math/rand"
	"testing"
)

// randInput draws a plausible candidate from a bounded space so table
// slots collide often enough to exercise overwrite and training paths.
func randInput(rng *rand.Rand) FeatureInput {
	return FeatureInput{
		Addr:       uint64(rng.Intn(1<<14)) << 6,
		PC:         0x400000 + uint64(rng.Intn(256))*4,
		PCHist:     [3]uint64{uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64))},
		Depth:      rng.Intn(16),
		Signature:  uint16(rng.Intn(1 << 12)),
		Confidence: rng.Intn(101),
		Delta:      rng.Intn(17) - 8,
	}
}

// TestFilterPropertyInvariants drives random operation sequences through
// the filter and checks, throughout, the two structural invariants the
// paper's hardware budget depends on:
//
//  1. every weight stays inside the 5-bit saturating range
//     [WeightMin, WeightMax], regardless of training pressure;
//  2. Sum(in) is exactly the sum of the per-feature weights selected by
//     indexFor — the perceptron has no hidden state beyond its tables.
//
// The default set takes computeRowDefault's straight-line path and the
// 23-feature candidate pool takes the per-kind loop, so the indexFor
// sum checks each against the one-feature-at-a-time reference.
func TestFilterPropertyInvariants(t *testing.T) {
	pool := DefaultConfig()
	pool.Features = CandidateFeatures()
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default_set", DefaultConfig()},
		{"candidate_pool", pool},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				f := New(tc.cfg)
				for op := 0; op < 5000; op++ {
					in := randInput(rng)
					switch rng.Intn(6) {
					case 0:
						f.OnLoadPC(in.PC)
					case 1:
						f.Filter(&in)
					case 2:
						if f.Decide(&in) == Drop {
							f.RecordReject(&in)
						} else {
							f.RecordIssue(&in, FillL2)
						}
					case 3:
						f.RecordIssue(&in, FillL2)
					case 4:
						f.OnDemand(in.Addr)
					case 5:
						f.OnEvict(in.Addr, rng.Intn(2) == 0)
					}
					if op%257 == 0 {
						checkInvariants(t, f, &in)
					}
				}
				checkInvariants(t, f, nil)
			}
		})
	}
}

func checkInvariants(t *testing.T, f *Filter, probe *FeatureInput) {
	t.Helper()
	for i := range f.features {
		for j, w := range f.tableOf(i) {
			if w < WeightMin || w > WeightMax {
				t.Fatalf("feature %d slot %d weight %d outside [%d, %d]",
					i, j, w, WeightMin, WeightMax)
			}
		}
	}
	if probe == nil {
		return
	}
	want := 0
	for i := range f.features {
		want += int(f.tableOf(i)[f.indexFor(i, probe)])
	}
	if got := f.Sum(probe); got != want {
		t.Fatalf("Sum = %d, manual feature-table sum = %d", got, want)
	}
	// Sum is a pure read: a second call must agree.
	if again := f.Sum(probe); again != want {
		t.Fatalf("Sum not stable: %d then %d", want, again)
	}
}

// TestFilterTrainingSaturatesAtThresholds hammers one candidate with
// positive then negative outcomes and checks training stops at the
// theta cutoffs rather than pinning every weight to the rail (the
// paper's anti-overtraining rule).
func TestFilterTrainingSaturatesAtThresholds(t *testing.T) {
	f := New(DefaultConfig())
	in := randInput(rand.New(rand.NewSource(7)))

	for i := 0; i < 100; i++ {
		f.RecordIssue(&in, FillL2)
		f.OnDemand(in.Addr)
	}
	if s := f.Sum(&in); s < f.cfg.ThetaP || s > f.cfg.ThetaP+len(f.features) {
		t.Fatalf("positive training settled at %d, want just past ThetaP=%d", s, f.cfg.ThetaP)
	}

	for i := 0; i < 200; i++ {
		f.RecordIssue(&in, FillL2)
		f.OnEvict(in.Addr, false)
	}
	if s := f.Sum(&in); s > f.cfg.ThetaN || s < f.cfg.ThetaN-len(f.features) {
		t.Fatalf("negative training settled at %d, want just past ThetaN=%d", s, f.cfg.ThetaN)
	}
	checkInvariants(t, f, &in)
}
