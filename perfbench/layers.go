package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prefetch"
	"repro/internal/simstore"
	"repro/internal/trace"
)

// countingReader counts the instructions the simulator pulls from a
// trace. It reads no clock: a clock read per instruction costs about as
// much as generating the instruction. The trace layer is timed instead by
// draining an identical reader for the same count (see drainNs).
type countingReader struct {
	r trace.Reader
	n uint64
}

func (c *countingReader) Next() (trace.Inst, bool) {
	c.n++
	return c.r.Next()
}

// drainNs times n calls to Next on r, a fresh reader identical to the one
// a countingReader wrapped. Workload generators are pure functions of
// workload and seed, so this replays exactly the simulator's trace work.
func drainNs(r trace.Reader, n uint64) int64 {
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		r.Next()
	}
	return time.Since(start).Nanoseconds()
}

// timedProducer wraps a batch prefetcher to count and time its triggers.
// It implements prefetch.BatchProducer itself: sim.NewSystem picks the
// burst path by asserting that interface, so a wrapper that hid it would
// silently move the simulation onto the scalar OnDemand path.
//
// Time inside OnDemandBatch splits into the sink (the simulator's issue
// path: filter decide/record and the L2 insert) and the rest, the
// prefetcher's own trigger work.
type timedProducer struct {
	inner prefetch.BatchProducer

	triggers, scalarTriggers uint64
	totalNs, sinkNs          int64
	// warmTriggers is triggers at the warmup/detail boundary, so the
	// trigger count can cover the same region as sim.Result's counters.
	warmTriggers uint64

	down prefetch.BatchSink // the simulator's sink for the current trigger
	sink prefetch.BatchSink // p.timedSink, bound once
}

func newTimedProducer(inner prefetch.BatchProducer) *timedProducer {
	p := &timedProducer{inner: inner}
	p.sink = p.timedSink
	return p
}

func (p *timedProducer) Name() string { return p.inner.Name() }

func (p *timedProducer) OnDemandBatch(a prefetch.Access, sink prefetch.BatchSink) {
	p.triggers++
	p.down = sink
	start := time.Now()
	p.inner.OnDemandBatch(a, p.sink)
	p.totalNs += time.Since(start).Nanoseconds()
}

func (p *timedProducer) timedSink(cands []prefetch.Candidate, accepted []bool) {
	start := time.Now()
	p.down(cands, accepted)
	p.sinkNs += time.Since(start).Nanoseconds()
}

// OnDemand forwards the scalar path untimed and counts it, so a test can
// assert the simulator never took it.
func (p *timedProducer) OnDemand(a prefetch.Access, emit prefetch.Emit) {
	p.scalarTriggers++
	p.inner.OnDemand(a, emit)
}

func (p *timedProducer) OnPrefetchUseful(addr uint64) { p.inner.OnPrefetchUseful(addr) }
func (p *timedProducer) OnPrefetchFill(addr uint64)   { p.inner.OnPrefetchFill(addr) }
func (p *timedProducer) Reset()                       { p.inner.Reset() }

// selfNs is the prefetcher's trigger time excluding the sink.
func (p *timedProducer) selfNs() int64 { return p.totalNs - p.sinkNs }

// storeProbe wraps a simstore.Backend. It always records each cell's
// process CPU time, from the run cache's first result lookup for a key to
// the save of that key's result (both passes of a sweep miss the result
// layer, so every cell has both ends). With timeCalls set it also times
// every call and counts payload bytes; that is the traced mode.
type storeProbe struct {
	simstore.Backend
	timeCalls bool

	saveNs, loadNs          atomic.Int64
	bytesWritten, bytesRead atomic.Uint64

	mu      sync.Mutex
	started map[string]time.Duration // process CPU time at the lookup
	cells   []time.Duration
}

func newStoreProbe(b simstore.Backend, timeCalls bool) *storeProbe {
	return &storeProbe{Backend: b, timeCalls: timeCalls, started: map[string]time.Duration{}}
}

func (s *storeProbe) LoadResult(key string) ([]byte, bool) {
	start, cpu := time.Now(), cpuNow()
	s.mu.Lock()
	if _, ok := s.started[key]; !ok {
		s.started[key] = cpu
	}
	s.mu.Unlock()
	b, ok := s.Backend.LoadResult(key)
	s.loaded(start, b, ok)
	return b, ok
}

func (s *storeProbe) SaveResult(key string, payload []byte) error {
	start := time.Now()
	err := s.Backend.SaveResult(key, payload)
	s.saved(start, payload)
	s.mu.Lock()
	if t, ok := s.started[key]; ok {
		s.cells = append(s.cells, cpuNow()-t)
		delete(s.started, key)
	}
	s.mu.Unlock()
	return err
}

func (s *storeProbe) LoadSnapshot(key string) ([]byte, bool) {
	start := time.Now()
	b, ok := s.Backend.LoadSnapshot(key)
	s.loaded(start, b, ok)
	return b, ok
}

func (s *storeProbe) SaveSnapshot(key string, payload []byte) error {
	start := time.Now()
	err := s.Backend.SaveSnapshot(key, payload)
	s.saved(start, payload)
	return err
}

func (s *storeProbe) loaded(start time.Time, b []byte, ok bool) {
	if !s.timeCalls {
		return
	}
	s.loadNs.Add(time.Since(start).Nanoseconds())
	if ok {
		s.bytesRead.Add(uint64(len(b)))
	}
}

func (s *storeProbe) saved(start time.Time, payload []byte) {
	if !s.timeCalls {
		return
	}
	s.saveNs.Add(time.Since(start).Nanoseconds())
	s.bytesWritten.Add(uint64(len(payload)))
}

// takeCells returns the cell CPU times recorded since the last call.
func (s *storeProbe) takeCells() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.cells
	s.cells = nil
	return out
}

// countingListener counts the bytes every accepted connection moves
// through the server's socket.
type countingListener struct {
	net.Listener
	in, out atomic.Uint64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.in.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.out.Add(uint64(n))
	return n, err
}
