package cache

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/snap"
)

// refMSHR is the plain-array MSHR file the index replaced: every
// reserve and in-flight lookup scans all slots. It is the reference
// model TestMSHRIndexMatchesReference drives in lockstep with a real
// Cache.
type refMSHR struct {
	block      []uint64
	done       []uint64
	low        []bool
	maxDone    uint64
	fullStalls uint64
}

func newRefMSHR(n int) *refMSHR {
	r := &refMSHR{
		block: make([]uint64, n),
		done:  make([]uint64, n),
		low:   make([]bool, n),
	}
	for i := range r.block {
		r.block[i] = invalidTag
	}
	return r
}

func (c *refMSHR) pendingFill(block, at uint64) (int, bool) {
	if at >= c.maxDone {
		return -1, false
	}
	for i, b := range c.block {
		if b == block {
			if c.done[i] <= at {
				c.block[i] = invalidTag
				return -1, false
			}
			return i, true
		}
	}
	return -1, false
}

func (c *refMSHR) reserveMSHR(at uint64) (idx int, start uint64) {
	if at >= c.maxDone {
		return 0, at
	}
	freeIdx := -1
	var minDone uint64 = ^uint64(0)
	minIdx := 0
	prefIdx := -1
	var prefMin uint64 = ^uint64(0)
	for i, b := range c.block {
		if b != invalidTag && c.done[i] <= at {
			c.block[i] = invalidTag
			b = invalidTag
		}
		if b == invalidTag {
			if freeIdx < 0 {
				freeIdx = i
			}
			continue
		}
		if c.done[i] < minDone {
			minDone = c.done[i]
			minIdx = i
		}
		if c.low[i] && c.done[i] < prefMin {
			prefMin = c.done[i]
			prefIdx = i
		}
	}
	if freeIdx >= 0 {
		return freeIdx, at
	}
	if prefIdx >= 0 {
		c.block[prefIdx] = invalidTag
		return prefIdx, at
	}
	c.fullStalls++
	c.block[minIdx] = invalidTag
	return minIdx, minDone
}

func (c *refMSHR) commitMSHR(idx int, block, done uint64) {
	c.block[idx] = block
	c.done[idx] = done
	c.low[idx] = false
	if done > c.maxDone {
		c.maxDone = done
	}
}

func (c *refMSHR) commitMSHRPrefetch(idx int, block, done uint64) {
	c.block[idx] = block
	c.done[idx] = done
	c.low[idx] = true
	if done > c.maxDone {
		c.maxDone = done
	}
}

func (c *refMSHR) reserveMSHRPrefetch(at uint64) (idx int, ok bool) {
	if at >= c.maxDone {
		return 0, true
	}
	free := 0
	freeIdx := -1
	for i, b := range c.block {
		if b != invalidTag && c.done[i] <= at {
			c.block[i] = invalidTag
			b = invalidTag
		}
		if b == invalidTag {
			free++
			if freeIdx < 0 {
				freeIdx = i
			}
		}
	}
	if freeIdx < 0 || free <= len(c.block)/4 {
		return 0, false
	}
	return freeIdx, true
}

// promote is the demand-merge write of Cache.access and PromoteRead.
func (c *refMSHR) promote(i int, promoted uint64) {
	if promoted < c.done[i] {
		c.done[i] = promoted
	}
	c.low[i] = false
}

// TestSnapshotKeepsMSHRBound: a snapshot round trip must not change
// what the MSHR file answers next. A promotion moves prefetch X's
// completion earlier without lowering the file's completion bound, so
// a bound recomputed on decode from the occupied slots (90 here, not
// 100) would send the reserve at 95 down the quiescent fast path,
// leaving demand Y's expired slot set where the uninterrupted cache
// sweeps it, and the lookup of Y at 85 would then find it in flight.
func TestSnapshotKeepsMSHRBound(t *testing.T) {
	cfg := Config{Name: "mshr", SizeBytes: 4 << 10, Ways: 4, HitLatency: 2, MSHRs: 8}
	const x, y, z = 0x40, 0x80, 0xc0
	live := MustNew(cfg, &fixedMem{latency: 100})
	px, _ := live.reserveMSHRPrefetch(0)
	live.commitMSHRPrefetch(px, x, 100)
	dy, _ := live.reserveMSHR(0)
	live.commitMSHR(dy, y, 90)
	live.promoteMSHR(px, 80)

	resumed := snapshotRoundTrip(t, live, cfg)
	for _, c := range []*Cache{live, resumed} {
		i, start := c.reserveMSHR(95)
		c.commitMSHR(i, z, start+100)
	}
	li, lok := live.pendingFill(y, 85)
	ri, rok := resumed.pendingFill(y, 85)
	if li != ri || lok != rok {
		t.Fatalf("pendingFill(y, 85): uninterrupted (%d, %v), round-tripped (%d, %v)", li, lok, ri, rok)
	}
	if !slices.Equal(live.mshrBlock, resumed.mshrBlock) || !slices.Equal(live.mshrDone, resumed.mshrDone) {
		t.Fatalf("slot arrays diverge after the round trip\nuninterrupted %v %v\nround-tripped %v %v",
			live.mshrBlock, live.mshrDone, resumed.mshrBlock, resumed.mshrDone)
	}
}

// TestMSHRIndexMatchesReference drives the indexed MSHR file and the
// scanning reference model with one seeded random sequence of reserves,
// commits, in-flight lookups and promotions, and requires identical
// return values, full-stall counts and slot arrays after every call.
// Blocks come from a small pool, so one block sits in several slots
// (first-match order matters), and the cycle steps backwards as well as
// forwards, so lazily swept slots become visible again. Every few
// thousand calls the cache is round-tripped through its snapshot walk,
// which must rebuild the index and change no answer, so the reference
// model carries on untouched.
func TestMSHRIndexMatchesReference(t *testing.T) {
	for _, slots := range []int{8, 48, 256} {
		for seed := int64(1); seed <= 4; seed++ {
			checkMSHRAgainstReference(t, slots, seed, 20_000)
		}
	}
}

func checkMSHRAgainstReference(t *testing.T, slots int, seed int64, steps int) {
	t.Helper()
	cfg := Config{Name: "mshr", SizeBytes: 4 << 10, Ways: 4, HitLatency: 2, MSHRs: slots}
	c := MustNew(cfg, &fixedMem{latency: 100})
	ref := newRefMSHR(slots)
	rng := rand.New(rand.NewSource(seed))
	pool := int64(slots/2 + 3)
	at := uint64(100_000)
	stride := 1
	for step := 0; step < steps; step++ {
		// Phases long enough to fill the file: saturating (the clock
		// barely moves), busy, and draining; a phase may open with a
		// jump that leaves every slot expired.
		if step%(4*slots+200) == 0 {
			stride = []int{4, 16, 64}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				at += uint64(rng.Intn(8 * slots))
			}
		}
		if rng.Intn(16) == 0 {
			at -= uint64(rng.Intn(100)) // back past recent completions
		} else {
			at += uint64(rng.Intn(stride))
		}
		block := uint64(rng.Int63n(pool))
		done := at + 1 + uint64(rng.Intn(4*slots+100))
		var op string
		switch k := rng.Intn(10); {
		case k < 3:
			op = "reserve"
			gi, gs := c.reserveMSHR(at)
			wi, ws := ref.reserveMSHR(at)
			if gi != wi || gs != ws {
				t.Fatalf("slots=%d seed=%d step %d: reserveMSHR(%d) = (%d, %d), want (%d, %d)",
					slots, seed, step, at, gi, gs, wi, ws)
			}
			if rng.Intn(8) != 0 {
				c.commitMSHR(gi, block, max(done, gs+1))
				ref.commitMSHR(wi, block, max(done, ws+1))
			}
		case k < 6:
			op = "reservePrefetch"
			gi, gok := c.reserveMSHRPrefetch(at)
			wi, wok := ref.reserveMSHRPrefetch(at)
			if gi != wi || gok != wok {
				t.Fatalf("slots=%d seed=%d step %d: reserveMSHRPrefetch(%d) = (%d, %v), want (%d, %v)",
					slots, seed, step, at, gi, gok, wi, wok)
			}
			if gok && rng.Intn(8) != 0 {
				c.commitMSHRPrefetch(gi, block, done)
				ref.commitMSHRPrefetch(wi, block, done)
			}
		default:
			op = "pendingFill"
			if rng.Intn(4) == 0 {
				// Mostly absent blocks, some sharing a filter bucket
				// with an occupied slot.
				block = uint64(rng.Int63n(int64(8 * slots)))
			}
			gi, gok := c.pendingFill(block, at)
			wi, wok := ref.pendingFill(block, at)
			if gi != wi || gok != wok {
				t.Fatalf("slots=%d seed=%d step %d: pendingFill(%#x, %d) = (%d, %v), want (%d, %v)",
					slots, seed, step, block, at, gi, gok, wi, wok)
			}
			if gok && c.mshrLow[gi] && rng.Intn(2) == 0 {
				op = "promote"
				// The promoted estimate may be later than the pending
				// completion (no change) or, unlike any real level's, at
				// or before the promoting access (the slot expires).
				promoted := at - 50 + uint64(rng.Int63n(int64(2*(c.mshrDone[gi]-at)+50)))
				c.promoteMSHR(gi, min(c.mshrDone[gi], promoted))
				ref.promote(wi, promoted)
			}
		}
		if c.stats.MSHRFullStalls != ref.fullStalls {
			t.Fatalf("slots=%d seed=%d step %d (%s): MSHRFullStalls = %d, want %d",
				slots, seed, step, op, c.stats.MSHRFullStalls, ref.fullStalls)
		}
		if !slices.Equal(c.mshrBlock, ref.block) || !slices.Equal(c.mshrDone, ref.done) ||
			!slices.Equal(c.mshrLow, ref.low) {
			t.Fatalf("slots=%d seed=%d step %d (%s): slot arrays diverge\n got block %v done %v low %v\nwant block %v done %v low %v",
				slots, seed, step, op, c.mshrBlock, c.mshrDone, c.mshrLow, ref.block, ref.done, ref.low)
		}
		checkMSHRIndex(t, c)
		if step%(steps/4) == steps/8 {
			c = snapshotRoundTrip(t, c, cfg)
		}
	}
}

// checkMSHRIndex verifies the index invariants against the slot arrays:
// the live bitset and count mark exactly the occupied slots, every
// filter bucket counts exactly its occupied slots, and the completion
// bounds bracket every occupied slot's completion.
func checkMSHRIndex(t *testing.T, c *Cache) {
	t.Helper()
	used := 0
	filter := make([]uint32, len(c.mshrFilter))
	for i, b := range c.mshrBlock {
		live := c.mshrLive[i>>6]&(1<<(i&63)) != 0
		if live != (b != invalidTag) {
			t.Fatalf("slot %d: live bit %v, block %#x", i, live, b)
		}
		if !live {
			continue
		}
		used++
		filter[c.mshrBucket(b)]++
		if d := c.mshrDone[i]; d < c.mshrMinDone || d > c.mshrMaxDone {
			t.Fatalf("slot %d: done %d outside bounds [%d, %d]", i, d, c.mshrMinDone, c.mshrMaxDone)
		}
	}
	if used != c.mshrUsed || !slices.Equal(filter, c.mshrFilter) {
		t.Fatalf("index counts: used %d (recount %d), filter matches recount: %v",
			c.mshrUsed, used, slices.Equal(filter, c.mshrFilter))
	}
}

// snapshotRoundTrip encodes c and decodes it into a fresh cache of the
// same geometry.
func snapshotRoundTrip(t *testing.T, c *Cache, cfg Config) *Cache {
	t.Helper()
	enc := snap.NewEncoder()
	c.SnapshotWalk(enc)
	blob, err := enc.Bytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out := MustNew(cfg, c.next)
	dec := snap.NewDecoder(blob)
	out.SnapshotWalk(dec)
	if err := dec.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}
