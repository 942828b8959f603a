// Package guardedby seeds locking violations for the guardedby
// analyzer: annotated fields accessed outside their mutex's critical
// section, and receiver-guarded structs touched from free functions.
package guardedby

import "sync"

// registry mirrors the serve session map's shape: a mutex and the state it
// guards, with both annotation spellings (own-line doc and trailing
// comment).
type registry struct {
	mu sync.Mutex
	//ppflint:guardedby mu
	sessions map[string]int
	hits     uint64 //ppflint:guardedby mu
}

// locked is the canonical correct shape: Lock anywhere in the body
// covers every access (the check is flow-insensitive).
func (r *registry) locked(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits++
	return r.sessions[key]
}

// unlocked is the bug the rule exists for: a convenient helper reading
// the map off-lock.
func (r *registry) unlocked(key string) int {
	return r.sessions[key] // want "field registry.sessions is guarded by mu but unlocked does not lock it"
}

// goroutineLeak locks, but the closure it spawns runs after Unlock: a
// literal is its own scope and must lock for itself.
func (r *registry) goroutineLeak() {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		r.hits++ // want "field registry.hits is guarded by mu but goroutineLeak \\(func literal\\) does not lock it"
	}()
}

// lockedClosure is the fixed shape of the same pattern.
func (r *registry) lockedClosure() {
	go func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.hits++
	}()
}

// purgeLocked asserts its caller holds the lock; the marker seeds the
// analysis instead of a Lock call.
//
//ppflint:locked mu
func (r *registry) purgeLocked() {
	r.sessions = map[string]int{}
}

// newRegistry constructs with a keyed composite literal: construction
// before sharing is not an access.
func newRegistry() *registry {
	return &registry{sessions: map[string]int{}}
}

// rostats pins the RLock spelling against an RWMutex.
type rostats struct {
	mu   sync.RWMutex
	rows []int //ppflint:guardedby mu
}

func (s *rostats) read() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}

func (s *rostats) skipsRLock() int {
	return len(s.rows) // want "field rostats.rows is guarded by mu"
}

// box is guarded by another struct's mutex (the serve lease shape: a
// value owned by the server whose map holds it). The dotted spec documents
// the owner; the final component is the mutex matched at Lock sites.
type box struct {
	n int //ppflint:guardedby registry.mu
}

func useBox(r *registry, b *box) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return b.n
}

func leakBox(b *box) int {
	return b.n // want "field box.n is guarded by registry.mu but leakBox does not lock it"
}

// session is single-goroutine by construction: every field access must
// come from a session method, the way exactly one worker drives an
// engine session.
//
//ppflint:guardedby receiver
type session struct {
	state int
	tick  uint64
}

func (s *session) step() {
	s.state++
	s.tick++
}

// spawn returns a closure defined inside a method: lexical ownership
// still holds, so this is clean.
func (s *session) spawn() func() {
	return func() { s.tick++ }
}

func drive(s *session) {
	s.state = 0 // want "field session.state may only be accessed from session methods"
}

// probe demonstrates the escape hatch for a deliberate exception.
func probe(s *session) int {
	return s.state //ppflint:allow guardedby single-threaded debug probe, documented at the call site
}
