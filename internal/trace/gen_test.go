package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func basicConfig(seed uint64) GenConfig {
	return GenConfig{
		Seed:                 seed,
		LoadRatio:            0.3,
		StoreRatio:           0.1,
		BranchRatio:          0.1,
		BranchPredictability: 0.95,
		Phases: []Phase{{Mix: []Weighted{
			{P: NewSequentialPattern(0, 1<<20), Weight: 1},
		}}},
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := MustGenerator(basicConfig(42))
	b := MustGenerator(basicConfig(42))
	for i := 0; i < 10_000; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia != ib {
			t.Fatalf("divergence at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := MustGenerator(basicConfig(1))
	b := MustGenerator(basicConfig(2))
	same := 0
	for i := 0; i < 1000; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia == ib {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("seeds 1 and 2 produced %d/1000 identical instructions", same)
	}
}

func TestGeneratorInstructionMix(t *testing.T) {
	g := MustGenerator(basicConfig(7))
	counts := map[Kind]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		in, ok := g.Next()
		if !ok {
			t.Fatal("generator ended")
		}
		counts[in.Kind]++
	}
	check := func(k Kind, want float64) {
		got := float64(counts[k]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%v ratio = %.3f, want ~%.2f", k, got, want)
		}
	}
	check(KindLoad, 0.3)
	check(KindStore, 0.1)
	check(KindBranch, 0.1)
	check(KindALU, 0.5)
}

func TestGeneratorLoadsHaveAddresses(t *testing.T) {
	g := MustGenerator(basicConfig(9))
	for i := 0; i < 10_000; i++ {
		in, _ := g.Next()
		if (in.Kind == KindLoad || in.Kind == KindStore) && in.Addr == 0 {
			t.Fatalf("memory instruction %d has zero address", i)
		}
		if in.PC == 0 {
			t.Fatalf("instruction %d has zero PC", i)
		}
	}
}

func TestGeneratorBlockReuse(t *testing.T) {
	cfg := basicConfig(11)
	cfg.HotLoadRatio = -1 // disable hot loads so only pattern loads appear
	cfg.BlockReuse = 4
	g := MustGenerator(cfg)
	blockCounts := map[uint64]int{}
	for i := 0; i < 50_000; i++ {
		in, _ := g.Next()
		if in.Kind == KindLoad {
			blockCounts[in.Addr>>BlockBits]++
		}
	}
	total, blocks := 0, 0
	for _, c := range blockCounts {
		total += c
		blocks++
	}
	avg := float64(total) / float64(blocks)
	if avg < 3 || avg > 5.5 {
		t.Fatalf("average touches per block = %.2f, want ~4", avg)
	}
}

func TestGeneratorPhases(t *testing.T) {
	seq := NewSequentialPattern(0, 1<<20)
	rnd := NewRandomPattern(1, 1<<20)
	cfg := GenConfig{
		Seed:                 3,
		LoadRatio:            0.5,
		BranchPredictability: 0.9,
		HotLoadRatio:         -1,
		Phases: []Phase{
			{Length: 1000, Mix: []Weighted{{P: seq, Weight: 1}}},
			{Length: 1000, Mix: []Weighted{{P: rnd, Weight: 1}}},
		},
	}
	g := MustGenerator(cfg)
	seg := func(addr uint64) int { return int(addr>>34) - 1 }
	segCount := [2]map[int]int{{}, {}}
	for i := 0; i < 2000; i++ {
		in, _ := g.Next()
		if in.Kind != KindLoad {
			continue
		}
		phase := i / 1000
		segCount[phase][seg(in.Addr)]++
	}
	if segCount[0][1] > 0 {
		t.Errorf("phase 0 used the phase-1 pattern %d times", segCount[0][1])
	}
	if segCount[1][0] > 0 {
		t.Errorf("phase 1 used the phase-0 pattern %d times", segCount[1][0])
	}
}

func TestGeneratorDependencies(t *testing.T) {
	cfg := GenConfig{
		Seed:                 5,
		LoadRatio:            0.4,
		BranchPredictability: 0.9,
		HotLoadRatio:         -1,
		BlockReuse:           1,
		Phases: []Phase{{Mix: []Weighted{
			{P: NewPointerChasePattern(0, 1<<20), Weight: 1},
		}}},
	}
	g := MustGenerator(cfg)
	deps := 0
	loads := 0
	var insts []Inst
	for i := 0; i < 20_000; i++ {
		in, _ := g.Next()
		insts = append(insts, in)
		if in.Kind == KindLoad {
			loads++
			if in.Dep > 0 {
				deps++
				ref := i - int(in.Dep)
				if ref < 0 || insts[ref].Kind != KindLoad {
					t.Fatalf("inst %d Dep=%d does not point at a load", i, in.Dep)
				}
			}
		}
	}
	if deps == 0 {
		t.Fatal("pointer-chase workload produced no dependent loads")
	}
	if float64(deps)/float64(loads) < 0.5 {
		t.Fatalf("only %d/%d loads dependent; pointer chase should dominate", deps, loads)
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	bad := []GenConfig{
		{}, // no phases
		{LoadRatio: 0.7, StoreRatio: 0.4, Phases: []Phase{{Mix: []Weighted{{P: NewRandomPattern(0, 1<<20), Weight: 1}}}}}, // ratios > 1
		{LoadRatio: 0.3, Phases: []Phase{{}}}, // empty mix
		{LoadRatio: 0.3, Phases: []Phase{{Mix: []Weighted{{P: NewRandomPattern(0, 1<<20), Weight: 0}}}}}, // zero weight
	}
	one := func(w float64) []Phase { return []Phase{{Mix: []Weighted{{P: NewRandomPattern(0, 1<<20), Weight: w}}}} }
	nan := math.NaN()
	bad = append(bad,
		GenConfig{LoadRatio: nan, Phases: one(1)},
		GenConfig{StoreRatio: nan, Phases: one(1)},
		GenConfig{BranchRatio: nan, Phases: one(1)},
		GenConfig{LoadRatio: 0.3, Phases: one(nan)},
		GenConfig{StoreStreamRatio: -0.1, Phases: one(1)},
		GenConfig{StoreStreamRatio: 1.5, Phases: one(1)},
		GenConfig{StoreStreamRatio: nan, Phases: one(1)},
		GenConfig{BranchPredictability: -0.1, Phases: one(1)},
		GenConfig{BranchPredictability: 1.5, Phases: one(1)},
		GenConfig{BranchPredictability: nan, Phases: one(1)},
		GenConfig{HotLoadRatio: 1.5, Phases: one(1)},
		GenConfig{HotLoadRatio: nan, Phases: one(1)},
	)
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	// The bounds themselves, and a negative HotLoadRatio (hot loads
	// disabled), stay valid.
	good := []GenConfig{
		{StoreStreamRatio: 1, BranchPredictability: 1, HotLoadRatio: 1, Phases: one(1)},
		{HotLoadRatio: -1, Phases: one(1)},
	}
	for i, cfg := range good {
		if _, err := NewGenerator(cfg); err != nil {
			t.Errorf("config %d rejected: %v", i, err)
		}
	}
}

// TestThresholdMatchesFloatCompare is the property the generator's
// integer draws rest on: for every 53-bit draw v and probability p,
// float64(v)/2^53 < p exactly when v < threshold(p).
func TestThresholdMatchesFloatCompare(t *testing.T) {
	const top = uint64(1) << 53
	check := func(p float64, v uint64) {
		if want, got := float64(v)/(1<<53) < p, v < threshold(p); got != want {
			t.Fatalf("p=%v (%#x) v=%d: threshold %d says %v, float compare says %v",
				p, math.Float64bits(p), v, threshold(p), got, want)
		}
	}
	// near checks the draws around p's threshold and at both ends.
	near := func(p float64) {
		t.Helper()
		th := threshold(p)
		for _, v := range []uint64{0, 1, th - 1, th, th + 1, top - 2, top - 1} {
			if v < top {
				check(p, v)
			}
		}
	}
	for _, p := range []float64{0, math.SmallestNonzeroFloat64, 1.0 / (1 << 53), 0.5, 0.65, 0.7, 0.9, 1, 1.5, -0.1, math.NaN()} {
		near(p)
	}
	for _, k := range []uint64{1, 2, 3, 1 << 20, 1<<52 - 1, 1 << 52, 1<<52 + 1, top - 2, top - 1, top} {
		p := float64(k) / (1 << 53)
		near(p)
		near(math.Nextafter(p, math.Inf(-1)))
		near(math.Nextafter(p, math.Inf(1)))
	}
	if got := threshold(0.7); got != 6305039478318694 {
		t.Fatalf("threshold(0.7) = %d, want 6305039478318694", got)
	}
	r := newRNG(11)
	for i := 0; i < 1_000_000; i++ {
		p := r.Float64()*1.2 - 0.1
		check(p, r.draw())
		if th := threshold(p); th > 0 && th < top {
			check(p, th-1)
			check(p, th)
		}
	}
}

func TestRNGQuality(t *testing.T) {
	r := newRNG(0) // zero seed must be remapped
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Uint64()
		if seen[v] {
			t.Fatalf("duplicate value after %d draws", i)
		}
		seen[v] = true
	}
	// Float64 in [0,1), Intn in range.
	prop := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		f := r.Float64()
		return v >= 0 && v < m && f >= 0 && f < 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	newRNG(1).Intn(0)
}
