package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/snap"
)

// warmFilter drives a pseudo-random training sequence through f so a
// check starts from a non-trivial learned state.
func warmFilter(rng *rand.Rand, f *Filter) {
	for op := 0; op < 1500; op++ {
		in := randInput(rng)
		k := rng.Intn(4)
		used := rng.Intn(2) == 0
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

// TestSnapshotStableAcrossLayout pins the weight-plane encoding: the
// flat plane must serialize as per-feature sub-slices in table order —
// the identical byte stream the former slice-of-slices layout produced —
// and a snapshot must round-trip through a fresh filter byte-for-byte.
func TestSnapshotStableAcrossLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := New(DefaultConfig())
	warmFilter(rng, f)

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
	got := encodeFilter(t, f)
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
	if b := encodeFilter(t, g); string(b) != string(got) {
		t.Fatal("round-tripped snapshot re-encodes differently")
	}
	for trial := 0; trial < 200; trial++ {
		in := randInput(rng)
		if df, dg := f.Decide(&in), g.Decide(&in); df != dg {
			t.Fatalf("restored filter decides %v, original %v", dg, df)
		}
	}
}

// TestDecodeRejectsRecordIndex builds a filter stream whose record entry
// holds a feature index past that feature's table: restoring it would
// let the next demand to the block index past the weight plane.
func TestDecodeRejectsRecordIndex(t *testing.T) {
	for _, table := range []string{"prefetch", "reject"} {
		f := New(DefaultConfig())
		e := recordEntry{valid: true, tag: 3, decision: FillL2, seq: 1}
		e.idx[f.nf-1] = uint16(f.fmask[f.nf-1]) + 1
		if table == "prefetch" {
			f.prefetchTable[7] = e
		} else {
			e.decision = Drop
			f.rejectTable[7] = e
		}
		dec := snap.NewDecoder(encodeFilter(t, f))
		New(DefaultConfig()).SnapshotWalk(dec)
		if err := dec.Err(); err == nil || !strings.Contains(err.Error(), "record index") {
			t.Errorf("%s table: err = %v, want a record-index error", table, err)
		}
	}
}
