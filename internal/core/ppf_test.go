package core

import (
	"testing"
	"testing/quick"
)

func testInput(addr uint64) FeatureInput {
	return FeatureInput{
		Addr:       addr,
		PC:         0x401000,
		PCHist:     [3]uint64{0x400100, 0x400200, 0x400300},
		Depth:      2,
		Signature:  0x123,
		Confidence: 60,
		Delta:      1,
	}
}

// TestNewPreservesZeroThresholds is the regression test for the old
// zero-value sentinel: New used to silently swap an all-zero threshold
// Config for DefaultConfig, making the (0,0,0,0) grid point
// unrepresentable in sweeps and ablations.
func TestNewPreservesZeroThresholds(t *testing.T) {
	f := New(Config{})
	cfg := f.Config()
	if cfg.TauHi != 0 || cfg.TauLo != 0 || cfg.ThetaP != 0 || cfg.ThetaN != 0 {
		t.Fatalf("all-zero thresholds not preserved: %+v", cfg)
	}
	if len(f.FeatureNames()) != 9 {
		t.Fatalf("default feature count = %d, want 9", len(f.FeatureNames()))
	}
	// An untrained filter at (0, 0) thresholds has sum 0 ≥ TauHi: FillL2.
	in := testInput(0x11000)
	if d := f.Decide(&in); d != FillL2 {
		t.Fatalf("untrained zero-threshold decision = %v, want fill-l2", d)
	}
}

func TestDecisionBands(t *testing.T) {
	f := New(Config{TauHi: 5, TauLo: -5, ThetaP: 40, ThetaN: -40})
	in := testInput(0x10000)
	// Untrained sum is 0: between the thresholds → LLC.
	if d := f.Decide(&in); d != FillLLC {
		t.Fatalf("untrained decision = %v, want fill-llc", d)
	}
	// Push the weights positive: becomes FillL2.
	for i := 0; i < 10; i++ {
		f.adjust(&in, +1)
	}
	if d := f.Decide(&in); d != FillL2 {
		t.Fatalf("positive-trained decision = %v, want fill-l2", d)
	}
	// Push negative: Drop.
	for i := 0; i < 20; i++ {
		f.adjust(&in, -1)
	}
	if d := f.Decide(&in); d != Drop {
		t.Fatalf("negative-trained decision = %v, want drop", d)
	}
	// Decide counts inferences and drops only; issue counters move when
	// the prefetch actually issues (RecordIssue).
	s := f.Stats()
	if s.Inferences != 3 || s.Dropped != 1 || s.IssuedLLC != 0 || s.IssuedL2 != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestIssueAccounting checks the decide/record split: only RecordIssue
// moves the issued counters, RecordSquashed accounts accepted-but-
// squashed candidates, and the counters partition the inferences.
func TestIssueAccounting(t *testing.T) {
	f := New(DefaultConfig())
	a, b, c := testInput(0x10000), testInput(0x20000), testInput(0x30000)

	d := f.Decide(&a) // untrained default: FillL2
	if d != FillL2 {
		t.Fatalf("decision %v", d)
	}
	f.RecordIssue(&a, d)

	if d := f.Decide(&b); d == Drop {
		t.Fatalf("decision %v", d)
	} else {
		f.RecordIssue(&b, FillLLC)
	}

	if d := f.Decide(&c); d == Drop {
		t.Fatalf("decision %v", d)
	}
	f.RecordSquashed() // cache squashed it: must not count as issued

	s := f.Stats()
	if s.IssuedL2 != 1 || s.IssuedLLC != 1 || s.Squashed != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.Inferences != s.IssuedL2+s.IssuedLLC+s.Dropped+s.Squashed {
		t.Fatalf("counters do not partition inferences: %+v", s)
	}
	// Squashes dilute the issue rate but never inflate it: 2 of 3.
	if got := s.IssueRate(); got != 2.0/3.0 {
		t.Fatalf("issue rate %v", got)
	}
}

func TestPositiveTrainingOnDemandHit(t *testing.T) {
	f := New(DefaultConfig())
	in := testInput(0x20000)
	f.RecordIssue(&in, FillL2)
	before := f.Sum(&in)
	f.OnDemand(in.Addr) // demand touches the prefetched block
	after := f.Sum(&in)
	if after <= before {
		t.Fatalf("sum did not increase on useful prefetch: %d -> %d", before, after)
	}
	s := f.Stats()
	if s.UsefulIssued != 1 || s.TrainPositive != 1 {
		t.Fatalf("stats %+v", s)
	}
	// The same demand again must not double-count usefulness.
	f.OnDemand(in.Addr)
	if f.Stats().UsefulIssued != 1 {
		t.Fatal("useful counted twice")
	}
}

func TestNegativeTrainingOnEviction(t *testing.T) {
	f := New(DefaultConfig())
	in := testInput(0x30000)
	f.RecordIssue(&in, FillL2)
	before := f.Sum(&in)
	f.OnEvict(in.Addr, false)
	after := f.Sum(&in)
	if after >= before {
		t.Fatalf("sum did not decrease on unused eviction: %d -> %d", before, after)
	}
	if f.Stats().EvictUnused != 1 || f.Stats().TrainNegative != 1 {
		t.Fatalf("stats %+v", f.Stats())
	}
	// Entry invalidated: a second eviction is a no-op.
	f.OnEvict(in.Addr, false)
	if f.Stats().EvictUnused != 1 {
		t.Fatal("eviction trained twice")
	}
}

func TestUsedEvictionDoesNotTrainNegative(t *testing.T) {
	f := New(DefaultConfig())
	in := testInput(0x40000)
	f.RecordIssue(&in, FillL2)
	f.OnDemand(in.Addr) // mark useful
	f.OnEvict(in.Addr, true)
	if f.Stats().TrainNegative != 0 {
		t.Fatal("eviction of a used prefetch must not train negative")
	}
}

func TestFalseNegativeRecovery(t *testing.T) {
	f := New(DefaultConfig())
	in := testInput(0x50000)
	f.RecordReject(&in)
	before := f.Sum(&in)
	f.OnDemand(in.Addr) // the block we rejected was demanded: false negative
	after := f.Sum(&in)
	if after <= before {
		t.Fatalf("reject-table hit did not strengthen weights: %d -> %d", before, after)
	}
	if f.Stats().FalseNegatives != 1 {
		t.Fatalf("stats %+v", f.Stats())
	}
	// Entry consumed.
	f.OnDemand(in.Addr)
	if f.Stats().FalseNegatives != 1 {
		t.Fatal("false negative counted twice")
	}
}

func TestOverwriteUnusedTrainsNegativeOnlyWhenOld(t *testing.T) {
	f := New(DefaultConfig())
	a := testInput(0x60000)
	f.RecordIssue(&a, FillL2)
	// A fast overwrite (same direct-mapped slot: block + 1024 blocks)
	// must NOT train: the entry never had a fair chance to be used.
	b := testInput(0x60000 + 1024*64)
	f.RecordIssue(&b, FillL2)
	if f.Stats().TrainNegative != 0 {
		t.Fatalf("fast overwrite trained negative: %+v", f.Stats())
	}
	// Age the entry by a full table generation of unrelated issues, then
	// overwrite: now it counts as unused-for-a-generation → negative.
	for i := 0; i < 1024; i++ {
		filler := testInput(uint64(0x900000 + i*64))
		f.RecordIssue(&filler, FillL2)
	}
	over := testInput(0x60000 + 2048*64)
	f.RecordIssue(&over, FillL2)
	if f.Stats().EvictUnused == 0 || f.Stats().TrainNegative == 0 {
		t.Fatalf("aged unused entry did not train: %+v", f.Stats())
	}
}

func TestTrainingSaturationThresholds(t *testing.T) {
	f := New(Config{TauHi: -4, TauLo: -18, ThetaP: 10, ThetaN: -10})
	in := testInput(0x70000)
	// Repeated positive training must stop once the sum reaches ThetaP.
	for i := 0; i < 50; i++ {
		f.RecordIssue(&in, FillL2)
		f.OnDemand(in.Addr)
	}
	if got := f.Sum(&in); got < 10 || got > 10+9 {
		// one increment step past the threshold is allowed (9 features)
		t.Fatalf("sum %d escaped ThetaP saturation band", got)
	}
}

func TestWeightSaturationProperty(t *testing.T) {
	f := New(DefaultConfig())
	prop := func(addr uint32, dir bool, reps uint8) bool {
		in := testInput(uint64(addr) << 6)
		d := +1
		if !dir {
			d = -1
		}
		for i := 0; i < int(reps); i++ {
			f.adjust(&in, d)
		}
		for i := range f.features {
			w := f.tableOf(i)[f.indexFor(i, &in)]
			if w < WeightMin || w > WeightMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSumBounds(t *testing.T) {
	// Property: |Sum| is bounded by 16 * numFeatures.
	f := New(DefaultConfig())
	prop := func(addr uint32, pc uint32, depth uint8, conf uint8, delta int8) bool {
		in := FeatureInput{
			Addr:       uint64(addr) << 6,
			PC:         uint64(pc),
			Depth:      int(depth % 24),
			Confidence: int(conf) % 101,
			Delta:      int(delta),
		}
		s := f.Sum(&in)
		lim := 16 * len(f.FeatureNames())
		return s >= -lim && s <= lim
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnLoadPCHistory(t *testing.T) {
	f := New(DefaultConfig())
	f.OnLoadPC(1)
	f.OnLoadPC(2)
	f.OnLoadPC(3)
	if f.PCHist() != [3]uint64{3, 2, 1} {
		t.Fatalf("history %v", f.PCHist())
	}
	f.OnLoadPC(3) // duplicate consecutive PC must not shift
	if f.PCHist() != [3]uint64{3, 2, 1} {
		t.Fatalf("history after dup %v", f.PCHist())
	}
}

func TestFilterConvenienceRecordsTables(t *testing.T) {
	f := New(Config{TauHi: 1000, TauLo: 999, ThetaP: 40, ThetaN: -40}) // everything drops
	in := testInput(0x80000)
	if d := f.Filter(&in); d != Drop {
		t.Fatalf("decision %v", d)
	}
	f.OnDemand(in.Addr)
	if f.Stats().FalseNegatives != 1 {
		t.Fatal("Filter() did not record the reject")
	}

	f2 := New(Config{TauHi: -1000, TauLo: -2000, ThetaP: 40, ThetaN: -40}) // everything L2
	if d := f2.Filter(&in); d != FillL2 {
		t.Fatal("expected fill-l2")
	}
	f2.OnDemand(in.Addr)
	if f2.Stats().UsefulIssued != 1 {
		t.Fatal("Filter() did not record the issue")
	}
}

func TestCustomFeatureSet(t *testing.T) {
	feats := []FeatureSpec{{
		Name:      "AddrOnly",
		TableSize: 64,
		Kind:      KindCacheLine,
	}}
	cfg := DefaultConfig()
	cfg.Features = feats
	f := New(cfg)
	if len(f.FeatureNames()) != 1 || f.FeatureNames()[0] != "AddrOnly" {
		t.Fatal("custom feature set not honoured")
	}
	if len(f.WeightsOf(0)) != 64 {
		t.Fatal("custom table size not honoured")
	}
}

func TestBadFeaturePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec FeatureSpec
	}{
		{"zero table size", FeatureSpec{Name: "bad", TableSize: 0, Kind: KindCacheLine}},
		{"zero kind", FeatureSpec{Name: "bad", TableSize: 64}},
		{"kind past the enumeration", FeatureSpec{Name: "bad", TableSize: 64, Kind: KindLineXorDepth + 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", tc.spec)
				}
			}()
			cfg := DefaultConfig()
			cfg.Features = []FeatureSpec{tc.spec}
			New(cfg)
		})
	}
}

func TestDecisionString(t *testing.T) {
	if Drop.String() != "drop" || FillLLC.String() != "fill-llc" || FillL2.String() != "fill-l2" {
		t.Fatal("decision strings")
	}
	if Decision(9).String() == "" {
		t.Fatal("unknown decision string empty")
	}
}

func TestOnTrainEventObserved(t *testing.T) {
	f := New(DefaultConfig())
	var events []int
	f.OnTrainEvent = func(ws []int8, outcome int) {
		if len(ws) != 9 {
			t.Fatalf("observed %d weights", len(ws))
		}
		events = append(events, outcome)
	}
	in := testInput(0x90000)
	f.RecordIssue(&in, FillL2)
	f.OnDemand(in.Addr) // +1
	in2 := testInput(0xA0000)
	f.RecordIssue(&in2, FillL2)
	f.OnEvict(in2.Addr, false) // -1
	if len(events) != 2 || events[0] != 1 || events[1] != -1 {
		t.Fatalf("events %v", events)
	}
}

func TestIssueRate(t *testing.T) {
	s := Stats{Inferences: 10, IssuedL2: 3, IssuedLLC: 2}
	if s.IssueRate() != 0.5 {
		t.Fatalf("issue rate %v", s.IssueRate())
	}
	var zero Stats
	if zero.IssueRate() != 0 {
		t.Fatal("zero stats issue rate")
	}
}
