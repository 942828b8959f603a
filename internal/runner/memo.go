package runner

import (
	"fmt"
	"sync"
)

// Memo is a concurrency-safe, content-keyed result cache with
// single-flight semantics: for each key the compute function runs
// exactly once, concurrent callers for the same key block until the
// first caller's computation finishes, and every caller observes the
// same stored value. It is the engine behind the experiment package's
// run cache — identical (config, scheme, workload, seed, budget) cells
// requested by different sweeps simulate once per process.
//
// Determinism contract: a Memo never changes what a computation returns,
// only whether it re-executes. Callers must therefore key strictly by
// every input that influences the result; the experiment package builds
// its keys from a canonical rendering of the full simulator
// configuration.
type Memo[V any] struct {
	mu sync.Mutex
	//ppflint:guardedby mu
	entries map[string]*memoEntry[V]
	//ppflint:guardedby mu
	hits uint64
	//ppflint:guardedby mu
	misses uint64
}

// memoEntry is one key's slot. The sync.Once gives single-flight
// execution; panicked remembers a compute panic so waiters re-raise it
// instead of silently observing the zero value.
type memoEntry[V any] struct {
	once     sync.Once
	val      V
	panicked any
}

// NewMemo returns an empty cache.
func NewMemo[V any]() *Memo[V] {
	return &Memo[V]{entries: map[string]*memoEntry[V]{}}
}

// Do returns the cached value for key, computing it with fn on first
// use. The second result reports whether the value was already cached
// (or being computed) when the call arrived: true counts as a hit, false
// as a miss. If fn panics, the panic propagates to every caller of the
// key and the entry stays poisoned — retrying would hide a simulator
// bug behind cache nondeterminism.
func (m *Memo[V]) Do(key string, fn func() V) (V, bool) {
	m.mu.Lock()
	e, hit := m.entries[key]
	if !hit {
		e = &memoEntry[V]{}
		m.entries[key] = e
		m.misses++
	} else {
		m.hits++
	}
	m.mu.Unlock()

	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.panicked = r
				panic(r)
			}
		}()
		e.val = fn()
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.val, hit
}

// Stats returns the cumulative hit and miss counts. A "hit" includes
// callers that arrived while the first computation was still in flight:
// they did not pay for a recompute.
func (m *Memo[V]) Stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// Len reports the number of distinct keys computed or in flight.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// ReportLine renders the one-line hit/miss summary the experiment driver
// prints after a sweep batch.
func (m *Memo[V]) ReportLine() string {
	hits, misses := m.Stats()
	total := hits + misses
	if total == 0 {
		return "0 lookups"
	}
	return fmt.Sprintf("%d hits / %d misses (%.1f%% hit rate, %d unique cells)",
		hits, misses, 100*float64(hits)/float64(total), m.Len())
}
