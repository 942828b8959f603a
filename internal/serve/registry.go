package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
)

// stripeCount shards the session registry so concurrent connects and
// disconnects from unrelated clients never contend on one lock. Power
// of two so the hash folds with a mask.
const stripeCount = 64

// lease is one registry slot: the session plus whether a live
// connection currently owns it. Sessions outlive connections — a client
// that reconnects with the same key resumes its trained filter.
type lease struct {
	//ppflint:guardedby stripe.mu
	sess *engine.Session
	//ppflint:guardedby stripe.mu
	inUse bool
}

// stripe is one shard of the registry.
type stripe struct {
	mu sync.Mutex
	//ppflint:guardedby mu
	sessions map[string]*lease
}

// registry maps session keys to leased engine sessions under striped
// locks. The locks guard only acquire/release; the per-event hot path
// runs lock-free on the owning connection's goroutine.
type registry struct {
	stripes [stripeCount]stripe
}

// stripeFor hashes the key to its stripe (FNV-1a folded to the stripe
// mask; stable and dependency-free).
//
//ppflint:hotpath
func (r *registry) stripeFor(key string) *stripe {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &r.stripes[h&(stripeCount-1)]
}

// acquire leases the session for key, creating it on first sight.
// A key already leased to a live connection fails with wire.ErrSessionBusy:
// sessions are single-goroutine by design, so two connections may never
// drive one concurrently.
func (r *registry) acquire(key string, cfg core.Config) (*engine.Session, error) {
	st := r.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sessions == nil {
		st.sessions = make(map[string]*lease)
	}
	l, ok := st.sessions[key]
	if !ok {
		l = &lease{sess: engine.New(cfg)}
		st.sessions[key] = l
	}
	if l.inUse {
		return nil, wire.ErrSessionBusy
	}
	l.inUse = true
	return l.sess, nil
}

// release returns the lease without discarding the session, so the
// trained filter survives for a reconnect.
func (r *registry) release(key string) {
	st := r.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if l, ok := st.sessions[key]; ok {
		l.inUse = false
	}
}

// count reports the number of registered sessions (live or parked).
func (r *registry) count() int {
	n := 0
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		n += len(st.sessions)
		st.mu.Unlock()
	}
	return n
}
