package kernelbench

import (
	"testing"

	"repro/internal/simstore"
)

// TestCheckStore pins the store rows' producer check: a cold request
// must miss both store layers, and a warm one must hit the result.
func TestCheckStore(t *testing.T) {
	cases := []struct {
		mode string
		st   simstore.Stats
		ok   bool
	}{
		{"cold", simstore.Stats{ResultMisses: 1, SnapshotMisses: 1}, true},
		{"cold", simstore.Stats{ResultMisses: 1, SnapshotHits: 1}, false},
		{"cold", simstore.Stats{ResultHits: 1}, false},
		{"warm", simstore.Stats{ResultHits: 1}, true},
		{"warm", simstore.Stats{ResultMisses: 1, SnapshotMisses: 1}, false},
	}
	for _, tc := range cases {
		if err := checkStore(tc.mode, tc.st); (err == nil) != tc.ok {
			t.Errorf("checkStore(%s, %+v) = %v, want ok=%v", tc.mode, tc.st, err, tc.ok)
		}
	}
}
