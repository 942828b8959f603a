package sim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	ppf "repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fuzzSystem builds the small fixed system every snapshot-fuzz
// iteration restores into.
func fuzzSystem(tb testing.TB) *System {
	tb.Helper()
	setup := CoreSetup{Trace: workload.MustByName("605.mcf_s").NewReader(1)}
	sys, err := NewSystem(DefaultConfig(1), []CoreSetup{setup})
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// fuzzSnapshot produces valid snapshot bytes from a short warmup.
func fuzzSnapshot(tb testing.TB) []byte {
	tb.Helper()
	sys := fuzzSystem(tb)
	sys.RunWarmup(2_000)
	blob, err := sys.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzRestore feeds arbitrary bytes to System.Restore: corruption in
// any byte — envelope or payload — must surface as an error, never a
// panic, an unbounded trace replay, or a silently-garbage machine. A
// restore that succeeds must leave the system able to run.
func FuzzRestore(f *testing.F) {
	valid := fuzzSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // payload bit flip: CRC must catch it
	f.Add(flipped)
	hdr := append(valid[:24:24], valid[len(valid)-4:]...) // header and checksum, no payload
	f.Add(hdr)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		sys := fuzzSystem(t)
		if err := sys.Restore(data); err != nil {
			if !bytes.Equal(data, valid) {
				return
			}
			t.Fatalf("valid snapshot failed to restore: %v", err)
		}
		// The envelope checksum admitted the blob; the machine must be
		// runnable. Keep the budget tiny — this executes per fuzz input.
		res := sys.RunDetail(1_000)
		if res.PerCore[0].Instructions == 0 {
			t.Fatal("restored system retired nothing")
		}
	})
}

// walkable is a component with a snapshot walk.
type walkable interface{ SnapshotWalk(*snap.Walker) }

// flatMem is a constant-latency level under the fuzzed L2.
type flatMem struct{}

func (flatMem) Read(_, at uint64) uint64 { return at + 200 }
func (flatMem) Write(uint64, uint64)     {}

// walkTargets returns fresh components to decode into: an L2-sized
// cache, SPP, BOP and the PPF filter.
func walkTargets() []walkable {
	return []walkable{
		cache.MustNew(DefaultConfig(1).L2, flatMem{}),
		prefetch.NewSPP(prefetch.AggressiveSPPConfig()),
		prefetch.NewBOP(prefetch.DefaultBOPConfig()),
		ppf.New(ppf.DefaultConfig()),
	}
}

// FuzzSnapshotWalk feeds unsealed walker streams to the component
// decoders: behind a snapshot's checksum, mutated machine blobs almost
// never reach them. Every input is decoded into each of walkTargets, and
// each component that decodes cleanly is driven with the first loads of
// the trace its seed warmed on, which must not panic. The seeds are the
// streams of those components in warmed PPF and BOP machines. Whole
// machines are left out: a fuzzed instCount would make Restore's trace
// replay run without end.
func FuzzSnapshotWalk(f *testing.F) {
	var addrs []uint64
	var seeds [][]byte
	for r := workload.MustByName("605.mcf_s").NewReader(1); len(addrs) < 64; {
		if in, _ := r.Next(); in.Kind == trace.KindLoad {
			addrs = append(addrs, in.Addr)
		}
	}
	for _, setup := range []CoreSetup{
		{Prefetcher: prefetch.NewSPP(prefetch.AggressiveSPPConfig()), Filter: ppf.New(ppf.DefaultConfig())},
		{Prefetcher: prefetch.NewBOP(prefetch.DefaultBOPConfig())},
	} {
		setup.Trace = workload.MustByName("605.mcf_s").NewReader(1)
		sys, err := NewSystem(DefaultConfig(1), []CoreSetup{setup})
		if err != nil {
			f.Fatal(err)
		}
		sys.RunWarmup(20_000)
		c := sys.cores[0]
		parts := []walkable{c.l2, c.pf.(walkable)}
		if c.filter != nil {
			parts = append(parts, c.filter)
		}
		for _, part := range parts {
			w := snap.NewEncoder()
			part.SnapshotWalk(w)
			b, err := w.Bytes()
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, b)
			f.Add(b)
		}
	}
	accept := func(prefetch.Candidate) bool { return true }
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded := 0
		for _, part := range walkTargets() {
			w := snap.NewDecoder(data)
			part.SnapshotWalk(w)
			if w.Finish() != nil {
				continue
			}
			decoded++
			for i, a := range addrs {
				at := uint64(100 * i)
				switch p := part.(type) {
				case *cache.Cache:
					p.Read(a, at)
					p.Prefetch(a+cache.BlockSize, at, true, 0)
				case prefetch.Prefetcher:
					p.OnDemand(prefetch.Access{PC: 0x400000, Addr: a, Cycle: at}, accept)
				case *ppf.Filter:
					in := ppf.FeatureInput{Addr: a + cache.BlockSize, PC: 0x400000, Depth: 1, Confidence: 50, Delta: 1}
					p.Filter(&in)
					p.OnDemand(a)
					p.OnEvict(a, false)
				}
			}
		}
		if decoded == 0 && slices.ContainsFunc(seeds, func(b []byte) bool { return bytes.Equal(b, data) }) {
			t.Fatal("a seed stream decoded into none of the components")
		}
	})
}

// FuzzDecodeResult feeds arbitrary bytes to the Result codec used by
// the disk-backed run cache: any input must either decode to a Result
// or error — no panics and no corrupt-length allocation bombs.
func FuzzDecodeResult(f *testing.F) {
	sys := fuzzSystem(f)
	res := sys.Run(1_000, 4_000)
	blob, err := EncodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)-7]) // truncated
	huge := append([]byte(nil), blob...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F // implausible PerCore count
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		if len(r.PerCore) > 1024 {
			t.Fatalf("decoded %d PerCore entries past the cap", len(r.PerCore))
		}
		// A decodable Result must re-encode without error.
		if _, err := EncodeResult(r); err != nil {
			t.Fatalf("re-encode of decoded result failed: %v", err)
		}
	})
}

// TestRestoreRejectsCorruption pins the envelope diagnostics without
// the fuzz engine: every class of corruption reports ErrBadSnapshot.
func TestRestoreRejectsCorruption(t *testing.T) {
	valid := fuzzSnapshot(t)
	cases := map[string]func([]byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"short-header": func(b []byte) []byte { return b[:10] },
		"bad-magic":    func(b []byte) []byte { c := clone(b); c[0] ^= 0xFF; return c },
		"bad-version":  func(b []byte) []byte { c := clone(b); c[4] = 99; return c },
		"short-body":   func(b []byte) []byte { return b[:len(b)-3] },
		"bit-flip":     func(b []byte) []byte { c := clone(b); c[len(c)/2] ^= 1; return c },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			sys := fuzzSystem(t)
			err := sys.Restore(corrupt(valid))
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("corrupted snapshot: got %v, want ErrBadSnapshot", err)
			}
		})
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// TestRestoreRejectsROBCursor snapshots machines whose ROB head or
// count does not fit the ROB: Restore must fail, where it used to
// leave a machine whose next retire indexed past the ROB.
func TestRestoreRejectsROBCursor(t *testing.T) {
	for name, bad := range map[string]func(c *Core){
		"head -1":            func(c *Core) { c.robHead = -1 },
		"head past the ROB":  func(c *Core) { c.robHead = len(c.rob) },
		"count -1":           func(c *Core) { c.robCount = -1 },
		"count past the ROB": func(c *Core) { c.robCount = len(c.rob) + 1 },
	} {
		sys := fuzzSystem(t)
		sys.RunWarmup(1_000)
		bad(sys.cores[0])
		blob, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := fuzzSystem(t).Restore(blob); err == nil || !strings.Contains(err.Error(), "ROB head") {
			t.Errorf("%s: Restore err = %v, want a ROB range error", name, err)
		}
	}
}

// TestRestoreSeedsHitTheirBranch keeps the committed FuzzRestore seeds
// aimed at the checks their names give: each must fail Restore with
// that check's error, so a format change that moves a seed onto an
// earlier check (a frame grown past a seed's length, say) shows here.
func TestRestoreSeedsHitTheirBranch(t *testing.T) {
	for name, want := range map[string]string{
		"empty":             "shorter than",
		"bad-magic":         "bad magic",
		"bad-version":       "format version",
		"header-no-payload": "payload length 8",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRestore", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("seed %s: not a one-[]byte fuzz file (%v)", name, err)
		}
		err = fuzzSystem(t).Restore([]byte(data))
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
			t.Errorf("seed %s: err = %v, want ErrBadSnapshot naming %q", name, err, want)
		}
	}
}
