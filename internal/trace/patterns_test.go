package trace

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// drive pulls n addresses from a pattern.
func drive(p Pattern, n int, seed uint64) []uint64 {
	r := newRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i], _ = p.next(r)
	}
	return out
}

func TestSequentialPattern(t *testing.T) {
	p := NewSequentialPattern(0, 4*BlockSize)
	addrs := drive(p, 8, 1)
	base := addrs[0]
	for i, a := range addrs {
		want := base + uint64(i%4)*BlockSize
		if a != want {
			t.Fatalf("addr[%d] = %#x, want %#x (wrap every 4 blocks)", i, a, want)
		}
	}
}

func TestStridePattern(t *testing.T) {
	p := NewStridePattern(0, 1<<20, 4)
	addrs := drive(p, 16, 1)
	for i := 1; i < 16; i++ {
		d := int64(addrs[i]) - int64(addrs[i-1])
		if d != 4*BlockSize && addrs[i] >= addrs[i-1] {
			// wrap steps are allowed to differ
			if d > 0 && d != 4*BlockSize {
				t.Fatalf("stride %d at step %d", d, i)
			}
		}
	}
}

func TestDeltaSeqPattern(t *testing.T) {
	p := NewDeltaSeqPattern(0, 16, []int{1, 1, 2})
	addrs := drive(p, 9, 1)
	// Within the first page the block offsets follow 0,1,2,4,5,6,8,...
	wantOffsets := []int{0, 1, 2, 4, 5, 6, 8, 9, 10}
	for i, a := range addrs {
		off := int(a>>BlockBits) & (BlocksPerPage - 1)
		if off != wantOffsets[i] {
			t.Fatalf("offset[%d] = %d, want %d", i, off, wantOffsets[i])
		}
	}
}

func TestDeltaSeqPatternStaysInPageAndAdvances(t *testing.T) {
	p := NewDeltaSeqPattern(0, 4, []int{5})
	pages := map[uint64]bool{}
	for _, a := range drive(p, 200, 1) {
		pages[a>>PageBits] = true
	}
	if len(pages) != 4 {
		t.Fatalf("pattern visited %d pages, want 4", len(pages))
	}
}

func TestPointerChaseDependsAndStaysInBounds(t *testing.T) {
	size := uint64(1 << 16)
	p := NewPointerChasePattern(0, size)
	r := newRNG(1)
	base := segBase(0)
	for i := 0; i < 1000; i++ {
		a, dep := p.next(r)
		if !dep {
			t.Fatal("pointer chase must flag dependency")
		}
		if a < base || a >= base+size {
			t.Fatalf("address %#x out of [%#x, %#x)", a, base, base+size)
		}
	}
}

func TestRegionFootprintPattern(t *testing.T) {
	fp := []int{0, 3, 7}
	p := NewRegionFootprintPattern(0, 8, fp)
	r := newRNG(1)
	for i := 0; i < 300; i++ {
		a, _ := p.next(r)
		off := int(a>>BlockBits) & (BlocksPerPage - 1)
		if off != 0 && off != 3 && off != 7 {
			t.Fatalf("offset %d not in footprint", off)
		}
	}
}

func TestRandomPatternBounds(t *testing.T) {
	size := uint64(1 << 18)
	p := NewRandomPattern(3, size)
	base := segBase(3)
	r := newRNG(1)
	for i := 0; i < 1000; i++ {
		a, dep := p.next(r)
		if dep {
			t.Fatal("random pattern must not flag dependency")
		}
		if a < base || a >= base+size {
			t.Fatalf("address %#x out of bounds", a)
		}
	}
}

func TestHotColdPattern(t *testing.T) {
	hot := uint64(64 * BlockSize)
	cold := uint64(1 << 20)
	p := NewHotColdPattern(0, hot, cold, 0.9)
	base := segBase(0)
	r := newRNG(1)
	hits := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		a, _ := p.next(r)
		if a < base+hot {
			hits++
		} else if a >= base+hot+cold {
			t.Fatalf("address %#x beyond cold region", a)
		}
	}
	frac := float64(hits) / n
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("hot fraction %.3f, want ~0.9", frac)
	}
}

func TestVaryingDeltaPatternInPage(t *testing.T) {
	p := NewVaryingDeltaPattern(0, 32, [][]int{{1}, {2, 1}, {1, 3}}, 0.3)
	r := newRNG(1)
	for i := 0; i < 5000; i++ {
		a, _ := p.next(r)
		off := int(a>>BlockBits) & (BlocksPerPage - 1)
		if off < 0 || off >= BlocksPerPage {
			t.Fatalf("offset %d out of page", off)
		}
	}
}

func TestSegmentsDisjoint(t *testing.T) {
	// Property: patterns in different segments never produce overlapping
	// addresses (given working sets below the segment stride).
	prop := func(s1, s2 uint8) bool {
		a := int(s1 % 32)
		b := int(s2 % 32)
		if a == b {
			return true
		}
		pa := NewRandomPattern(a, 1<<30)
		pb := NewRandomPattern(b, 1<<30)
		r := newRNG(9)
		x, _ := pa.next(r)
		y, _ := pb.next(r)
		return x>>34 != y>>34
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPatternConstructorsPanicOnBadInput(t *testing.T) {
	assertPanics(t, "DeltaSeq empty", func() { NewDeltaSeqPattern(0, 4, nil) })
	assertPanics(t, "Footprint empty", func() { NewRegionFootprintPattern(0, 4, nil) })
	assertPanics(t, "VaryingDelta empty", func() { NewVaryingDeltaPattern(0, 4, nil, 0.1) })
	seqs := [][]int{{1}}
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		assertPanics(t, fmt.Sprintf("HotCold pHot=%v", p), func() { NewHotColdPattern(0, 1<<12, 1<<20, p) })
		assertPanics(t, fmt.Sprintf("VaryingDelta switchP=%v", p), func() { NewVaryingDeltaPattern(0, 4, seqs, p) })
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
