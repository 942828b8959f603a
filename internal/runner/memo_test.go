package runner

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSingleFlight hammers one key from many goroutines and asserts
// the compute function ran exactly once, everyone saw the same value,
// and hit/miss accounting adds up. Run under -race this is the memo
// cache's concurrency golden.
func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[int]()
	var computes atomic.Uint64
	const callers = 64
	var wg sync.WaitGroup
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _ := m.Do("cell", func() int {
				computes.Add(1)
				return 42
			})
			results[i] = v
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d saw %d, want 42", i, v)
		}
	}
	hits, misses := m.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d / 1", hits, misses, callers-1)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestMemoDistinctKeys checks distinct keys compute independently and a
// repeated key hits.
func TestMemoDistinctKeys(t *testing.T) {
	m := NewMemo[string]()
	for _, k := range []string{"zeta", "alpha", "mid"} {
		k := k
		v, hit := m.Do(k, func() string { return "v:" + k })
		if hit || v != "v:"+k {
			t.Fatalf("Do(%q) = %q, hit=%v", k, v, hit)
		}
	}
	if _, hit := m.Do("alpha", func() string { t.Fatal("recomputed"); return "" }); !hit {
		t.Fatal("second Do(alpha) was not a hit")
	}
}

// TestMemoConcurrentMixedKeys is the -race stress for the real usage
// pattern: many goroutines, overlapping key sets, interleaved hits and
// misses.
func TestMemoConcurrentMixedKeys(t *testing.T) {
	m := NewMemo[uint64]()
	const keys, callers = 8, 32
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("cell-%d", k)
				v, _ := m.Do(key, func() uint64 { return uint64(k) * 10 })
				if v != uint64(k)*10 {
					t.Errorf("Do(%s) = %d, want %d", key, v, k*10)
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := m.Stats()
	if misses != keys {
		t.Fatalf("misses = %d, want %d", misses, keys)
	}
	if hits+misses != keys*callers {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, keys*callers)
	}
}

// TestMemoPanicPropagates pins the poisoning contract: a panicking
// compute re-raises at the computing caller and at later callers of the
// same key, rather than caching a zero value.
func TestMemoPanicPropagates(t *testing.T) {
	m := NewMemo[int]()
	mustPanic := func() (r any) {
		defer func() { r = recover() }()
		m.Do("bad", func() int { panic("sim blew up") })
		return nil
	}
	if r := mustPanic(); r != "sim blew up" {
		t.Fatalf("first caller recovered %v, want panic", r)
	}
	if r := mustPanic(); r != "sim blew up" {
		t.Fatalf("second caller recovered %v, want repeated panic", r)
	}
}
