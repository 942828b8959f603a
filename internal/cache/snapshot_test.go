package cache

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/snap"
)

// tinyCfg has 8 lines (4 ways × 2 sets), fewer than one bitmap word, so
// the live bitmap's last word has bits past the last line.
var tinyCfg = Config{Name: "tiny", SizeBytes: 8 * BlockSize, Ways: 4, HitLatency: 1, MSHRs: 4}

// fillTiny fills n distinct blocks, alternating sets, through reads,
// writes and prefetches so flags and owners are not all zero.
func fillTiny(c *Cache, n int) {
	for i := 0; i < n; i++ {
		addr, at := uint64(i)<<BlockBits, uint64(100*i)
		switch i % 3 {
		case 0:
			c.Read(addr, at)
		case 1:
			c.Write(addr, at)
		case 2:
			c.Prefetch(addr, at, true, i%2)
		}
	}
}

func liveLines(c *Cache) int {
	n := 0
	for _, t := range c.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}

func encodeCache(t *testing.T, c *Cache) []byte {
	t.Helper()
	enc := snap.NewEncoder()
	c.SnapshotWalk(enc)
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSparseWalkRoundTrip round-trips an empty, a partly filled and a
// full cache, into a fresh cache and into a full one whose lines all
// differ: decode starts from empty lines, so none of them survives.
func TestSparseWalkRoundTrip(t *testing.T) {
	for _, n := range []int{0, 3, 8} {
		c := MustNew(tinyCfg, &fixedMem{latency: 20})
		fillTiny(c, n)
		if got := liveLines(c); got != n {
			t.Fatalf("filled %d blocks, %d lines live", n, got)
		}
		blob := encodeCache(t, c)
		used := MustNew(tinyCfg, c.next)
		for i := 0; i < 8; i++ {
			used.Write(uint64(i+64)<<BlockBits, uint64(100*i))
		}
		for name, into := range map[string]*Cache{"fresh": MustNew(tinyCfg, c.next), "used": used} {
			dec := snap.NewDecoder(blob)
			into.SnapshotWalk(dec)
			if err := dec.Finish(); err != nil {
				t.Fatalf("%d lines into a %s cache: %v", n, name, err)
			}
			same := slices.Equal(c.tags, into.tags) && slices.Equal(c.lastUse, into.lastUse) &&
				slices.Equal(c.flags, into.flags) && slices.Equal(c.owner, into.owner)
			if !same || !bytes.Equal(encodeCache(t, into), blob) {
				t.Fatalf("%d lines into a %s cache: restored state differs", n, name)
			}
		}
	}
}

// TestSparseWalkRejects decodes hand-built line streams into the tiny
// cache: each must latch its own error, not run out of input.
func TestSparseWalkRejects(t *testing.T) {
	line := func(live, tag uint64) []byte {
		w := snap.NewEncoder()
		w.Uint64(&live)
		var lastUse uint64 = 1
		var flags uint8
		var owner int16 = -1
		w.Uint64(&tag)
		w.Uint64(&lastUse)
		w.Uint8(&flags)
		w.Int16(&owner)
		b, _ := w.Bytes()
		return b
	}
	for name, c := range map[string]struct {
		stream []byte
		want   string
	}{
		"live bit past the last line":  {line(1<<8, 0), "past the last of 8 lines"},
		"live line holding invalidTag": {line(1, invalidTag), "holds tag 0xffffffffffffffff"},
		"tag in the wrong set":         {line(1, 1), "line 0 (set 0) holds tag 0x1"},
	} {
		dec := snap.NewDecoder(c.stream)
		MustNew(tinyCfg, &fixedMem{}).SnapshotWalk(dec)
		err := dec.Err()
		if err == nil || errors.Is(err, snap.ErrTruncated) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, c.want)
		}
	}
}
