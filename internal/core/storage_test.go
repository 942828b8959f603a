package core

import "testing"

func TestPrefetchTableEntryBits(t *testing.T) {
	// Paper Table 2: 85 bits per Prefetch Table entry.
	if PrefetchTableEntryBits != 85 {
		t.Fatalf("PrefetchTableEntryBits = %d, want 85", PrefetchTableEntryBits)
	}
	// Table 3 footnote: the Reject Table omits the useful bit.
	if RejectTableEntryBits != 84 {
		t.Fatalf("RejectTableEntryBits = %d, want 84", RejectTableEntryBits)
	}
}

func TestStorageMatchesTable3(t *testing.T) {
	f := New(DefaultConfig())
	st := f.Storage()
	if st.PerceptronWeightsBits != 113280 {
		t.Fatalf("weights bits = %d, want 113280 (Table 3)", st.PerceptronWeightsBits)
	}
	if st.PrefetchTableBits != 1024*85 {
		t.Fatalf("prefetch table bits = %d", st.PrefetchTableBits)
	}
	if st.RejectTableBits != 1024*84 {
		t.Fatalf("reject table bits = %d", st.RejectTableBits)
	}
	if st.PCTrackerBits != 36 {
		t.Fatalf("pc tracker bits = %d", st.PCTrackerBits)
	}
	want := 113280 + 1024*85 + 1024*84 + 36
	if st.TotalBits() != want {
		t.Fatalf("total = %d, want %d", st.TotalBits(), want)
	}
	if kb := st.TotalKB(); kb < 34 || kb > 36 {
		t.Fatalf("PPF-only budget %.2f KB out of expected band", kb)
	}
}

func TestDefaultFeatureTableSizesMatchTable3(t *testing.T) {
	// Table 3 weights split: 4 x 4096, 2 x 2048, 2 x 1024, 1 x 128.
	counts := map[int]int{}
	for _, spec := range DefaultFeatures() {
		counts[spec.TableSize]++
	}
	want := map[int]int{4096: 4, 2048: 2, 1024: 2, 128: 1}
	for size, n := range want {
		if counts[size] != n {
			t.Fatalf("table size %d: %d features, want %d", size, counts[size], n)
		}
	}
}

func TestFeatureIndexDeterminism(t *testing.T) {
	in := FeatureInput{
		Addr: 0x123456780, PC: 0x400123,
		PCHist: [3]uint64{1, 2, 3}, Depth: 4, Signature: 0xABC,
		Confidence: 55, Delta: -3,
	}
	for _, spec := range DefaultFeatures() {
		a := featureRaw(spec.Kind, &in)
		b := featureRaw(spec.Kind, &in)
		if a != b {
			t.Fatalf("feature %s index not deterministic", spec.Name)
		}
	}
}

func TestFeaturesDistinguishInputs(t *testing.T) {
	// Each feature must respond to at least one of its inputs changing.
	base := FeatureInput{
		Addr: 0x123456780, PC: 0x400123,
		PCHist: [3]uint64{0x10, 0x20, 0x30}, Depth: 4, Signature: 0xABC,
		Confidence: 55, Delta: -3,
	}
	perturb := base
	perturb.Addr += 1 << 13
	perturb.PC += 64
	perturb.PCHist[0] += 64
	perturb.Depth++
	perturb.Signature ^= 0x155
	perturb.Confidence += 11
	perturb.Delta = 7
	for _, spec := range DefaultFeatures() {
		if featureRaw(spec.Kind, &base) == featureRaw(spec.Kind, &perturb) {
			t.Errorf("feature %s ignored a full-input perturbation", spec.Name)
		}
	}
}

func TestLastSignatureFeature(t *testing.T) {
	spec := LastSignatureFeature()
	if spec.Name != "LastSignature" || spec.TableSize <= 0 {
		t.Fatalf("spec %+v", spec)
	}
	a := FeatureInput{Signature: 1}
	b := FeatureInput{Signature: 2}
	if featureRaw(spec.Kind, &a) == featureRaw(spec.Kind, &b) {
		t.Fatal("LastSignature does not depend on the signature")
	}
}

// TestFeatureRawGolden pins featureRaw, the only definition of each
// feature, for every kind in the §5.5 candidate pool on three fixed
// inputs: a negative delta, full-width Addr/PC/PCHist words, and the
// zero input. The literals were captured from the per-feature Index
// closures featureRaw replaced, so they also pin the 14 kinds outside
// computeRowDefault that no decision golden reaches.
func TestFeatureRawGolden(t *testing.T) {
	ins := [3]FeatureInput{
		{Addr: 0x7f3a5c2d9e40, PC: 0x401a2c, PCHist: PCHistory{0x401a10, 0x4019f0, 0x4019c4},
			Depth: 5, Signature: 0x3a5, Confidence: 73, Delta: -7},
		{Addr: 0xfedcba9876543210, PC: 0xffffffffffffffff,
			PCHist: PCHistory{0x8000000000000001, 0xdeadbeefcafef00d, 0xffffffffffffffff},
			Depth:  15, Signature: 0xffff, Confidence: 100, Delta: 31},
		{},
	}
	golden := []struct {
		kind FeatureKind
		want [3]uint64
	}{
		{KindCacheLine, [3]uint64{0x1fce970b679, 0x3fb72ea61d950c8, 0x0}},
		{KindPageAddr, [3]uint64{0x7f3a5c2d9, 0xfedcba9876543, 0x0}},
		{KindPhysAddr, [3]uint64{0x1fce970b6790, 0x3fb72ea61d950c84, 0x0}},
		{KindConfXorPage, [3]uint64{0x7f3a5c290, 0xfedcba9876527, 0x0}},
		{KindPCPath, [3]uint64{0x701099, 0xd0a920881a8087f8, 0x0}},
		{KindSigXorDelta, [3]uint64{0x3aa, 0xffc1, 0x0}},
		{KindPCXorDepth, [3]uint64{0x401a8c, 0xfffffffffffffe1f, 0x0}},
		{KindPCXorDelta, [3]uint64{0x401a54, 0xfffffffffffffe0f, 0x0}},
		{KindConfidence, [3]uint64{0x49, 0x64, 0x0}},
		{KindLastSignature, [3]uint64{0x3a5, 0xffff, 0x0}},
		{KindDepthOnly, [3]uint64{0x5, 0xf, 0x0}},
		{KindDeltaOnly, [3]uint64{0xf, 0x3e, 0x0}},
		{KindPCOnly, [3]uint64{0x401a2c, 0xffffffffffffffff, 0x0}},
		{KindPageOffset, [3]uint64{0x39, 0x8, 0x0}},
		{KindAddrFold, [3]uint64{0x1fce88c5f09, 0x3fb711113333111, 0x0}},
		{KindConfXorDepth, [3]uint64{0x2c9, 0x7e4, 0x0}},
		{KindSigXorPage, [3]uint64{0x7f3a5c17c, 0xfedcba9879abc, 0x0}},
		{KindSigXorDepth, [3]uint64{0x9a5, 0xe1ff, 0x0}},
		{KindPCXorPage, [3]uint64{0x7f3e5d8f5, 0xfff0123456789abc, 0x0}},
		{KindPCXorLine, [3]uint64{0x1fce930ac55, 0xfc048d159e26af37, 0x0}},
		{KindPCPath2, [3]uint64{0x6016e8, 0xef56df77e57f7807, 0x0}},
		{KindConfXorDelta, [3]uint64{0x1a9, 0x7a4, 0x0}},
		{KindLineXorDepth, [3]uint64{0x1fce970a279, 0x3fb72ea61d96cc8, 0x0}},
	}
	pool := CandidateFeatures()
	if len(golden) != len(pool) || len(golden) != int(KindLineXorDepth) {
		t.Fatalf("golden covers %d kinds; pool has %d, enumeration %d", len(golden), len(pool), KindLineXorDepth)
	}
	for i, g := range golden {
		if pool[i].Kind != g.kind {
			t.Errorf("pool[%d] %s has kind %d, golden row %d", i, pool[i].Name, pool[i].Kind, g.kind)
		}
		for j := range ins {
			if got := featureRaw(g.kind, &ins[j]); got != g.want[j] {
				t.Errorf("%s input %d: featureRaw = %#x, want %#x", pool[i].Name, j, got, g.want[j])
			}
		}
	}
}

func TestDeltaCodeInjective(t *testing.T) {
	seen := map[uint64]int{}
	for d := -64; d <= 64; d++ {
		c := deltaCode(d)
		if prev, ok := seen[c]; ok {
			t.Fatalf("deltaCode collision: %d and %d -> %d", prev, d, c)
		}
		seen[c] = d
	}
}
