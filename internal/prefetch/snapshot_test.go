package prefetch

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/snap"
)

// checkRejected decodes stream into p, which must latch a range error
// naming want, not run out of input.
func checkRejected(t *testing.T, name string, stream []byte, p Snapshotter, want string) {
	t.Helper()
	dec := snap.NewDecoder(stream)
	p.SnapshotWalk(dec)
	if err := dec.Err(); err == nil || errors.Is(err, snap.ErrTruncated) || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: err = %v, want one naming %q", name, err, want)
	}
}

// TestSPPDecodeRejectsCounters builds SPP streams whose pattern-table
// counters leave their 4-bit range: decode would index past sppCdTab
// (or a later train would), so each must latch an error.
func TestSPPDecodeRejectsCounters(t *testing.T) {
	for name, bad := range map[string]func(s *SPP){
		"cSig 99":                   func(s *SPP) { s.pt[5].cSig = 99 },
		"cSig -1":                   func(s *SPP) { s.pt[5].cSig = -1 },
		"cDelta 16":                 func(s *SPP) { e := &s.pt[5]; e.cSig, e.cDelta[2], e.used[2] = 4, 16, true },
		"cDelta -3":                 func(s *SPP) { e := &s.pt[5]; e.cSig, e.cDelta[0] = 4, -3 },
		"cSig 16 in the last entry": func(s *SPP) { s.pt[len(s.pt)-1].cSig = sppCSigMax + 1 },
	} {
		s := NewSPP(DefaultSPPConfig())
		bad(s)
		checkRejected(t, name, prefetcherSnapshot(t, s), NewSPP(DefaultSPPConfig()), "4-bit range")
	}
}

// TestDecodeRejectsCursors builds BOP, Sandbox and VLDP streams whose
// cursor does not index the table it walks: BOP's round index into its
// offsets, Sandbox's slot under evaluation, and the length of a VLDP
// delta history.
func TestDecodeRejectsCursors(t *testing.T) {
	bop := func(i int) *BOP { b := NewBOP(DefaultBOPConfig()); b.testIdx = i; return b }
	sandbox := func(i int) *Sandbox { s := NewSandbox(DefaultSandboxConfig()); s.current = i; return s }
	vldp := func(n int) *VLDP { v := NewVLDP(DefaultVLDPConfig()); v.dhb[3].numDeltas = n; return v }
	for name, c := range map[string]struct {
		bad, fresh Snapshotter
		want       string
	}{
		"BOP index -1":              {bop(-1), bop(0), "test index"},
		"BOP index past the list":   {bop(len(bop(0).offsets)), bop(0), "test index"},
		"Sandbox slot -1":           {sandbox(-1), sandbox(0), "Sandbox slot"},
		"Sandbox slot past the end": {sandbox(len(sandbox(0).slots)), sandbox(0), "Sandbox slot"},
		"VLDP history -1":           {vldp(-1), vldp(0), "history length"},
		"VLDP history too long":     {vldp(vldpMaxHistory + 1), vldp(0), "history length"},
	} {
		checkRejected(t, name, prefetcherSnapshot(t, c.bad), c.fresh, c.want)
	}
}
