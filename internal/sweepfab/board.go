package sweepfab

import (
	"sync"
	"time"
)

// boardCell is one submission's lease-board entry.
type boardCell struct {
	spec []byte
	//ppflint:guardedby mu
	worker string
	//ppflint:guardedby mu
	deadline time.Time
	// done is closed when a lease on the cell completes.
	done chan struct{}
}

// Counters are the board's cumulative event counts, the audit trail of
// the fleet's work. Each submission is leased to one worker at a time
// and completed once, so Completions == Submitted once the sweep ends;
// with no crashed worker and no expired lease Requeues == 0 as well,
// and every submission was simulated exactly once.
type Counters struct {
	// Submitted counts Submit calls, one per store-missed cell the
	// coordinator's run cache asked for (and one per re-run).
	Submitted uint64
	// Leases counts grants; Completions counts completed leases, and
	// Failures those among them whose worker reported a failed run.
	Leases, Completions, Failures uint64
	// Requeues counts leases returned to the queue, Expirations and
	// Disconnects break it down by cause.
	Requeues, Expirations, Disconnects uint64
}

// Board is the coordinator's lease board: a FIFO queue of submitted
// cells, each handed to one worker at a time. It does no deduplication;
// the coordinator's run cache (runner.Memo) already single-flights cell
// keys before they reach Submit. Lease blocks for the next queued cell,
// and Complete/Expire/ReleaseWorker manage the lease lifecycle. Lease
// deadlines come from the clock the board was built with, so expiry is
// testable with a fake clock.
type Board struct {
	mu sync.Mutex
	// queue holds queued cells in submit order: the fleet works cells in
	// the same deterministic order a local run enumerates them.
	//ppflint:guardedby mu
	queue []*boardCell
	// queued is closed, and replaced, whenever a cell joins the queue,
	// waking every blocked Lease.
	//ppflint:guardedby mu
	queued chan struct{}
	//ppflint:guardedby mu
	byLease map[uint64]*boardCell
	//ppflint:guardedby mu
	nextLease uint64
	//ppflint:guardedby mu
	counters Counters
	// leaseTimeout is how long a lease lives without completion before
	// Expire requeues it.
	leaseTimeout time.Duration
	// now is the lease clock.
	now func() time.Time
}

// NewBoard returns an empty board with the given lease timeout, reading
// lease deadlines from now.
func NewBoard(leaseTimeout time.Duration, now func() time.Time) *Board {
	return &Board{
		queued:       make(chan struct{}),
		byLease:      make(map[uint64]*boardCell),
		leaseTimeout: leaseTimeout,
		now:          now,
	}
}

// Submit queues a fresh entry for spec and returns the channel closed
// when a lease on it completes, whether the run succeeded or failed.
func (b *Board) Submit(spec []byte) <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counters.Submitted++
	c := &boardCell{spec: spec, done: make(chan struct{})}
	b.enqueueLocked(c)
	return c.done
}

// Lease grants the oldest queued cell to worker, blocking until a cell
// is queued, and stamps the lease deadline at the grant. ok is false
// when stop closes while nothing is queued.
func (b *Board) Lease(worker string, stop <-chan struct{}) (leaseID uint64, spec []byte, ok bool) {
	for {
		b.mu.Lock()
		if len(b.queue) > 0 {
			break
		}
		queued := b.queued
		b.mu.Unlock()
		select {
		case <-queued:
		case <-stop:
			return 0, nil, false
		}
	}
	defer b.mu.Unlock()
	c := b.queue[0]
	b.queue = b.queue[1:]
	b.nextLease++
	c.worker = worker
	c.deadline = b.now().Add(b.leaseTimeout)
	b.byLease[b.nextLease] = c
	b.counters.Leases++
	return b.nextLease, c.spec, true
}

// Complete resolves a lease and closes its cell's done channel; ok
// false counts a failure, and the coordinator's store recheck then
// decides whether to submit again. Unknown or stale lease ids return
// false — the cell expired and was re-leased, so this worker's report
// is void.
func (b *Board) Complete(leaseID uint64, ok bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, held := b.byLease[leaseID]
	if !held {
		return false
	}
	delete(b.byLease, leaseID)
	if !ok {
		b.counters.Failures++
	}
	b.counters.Completions++
	close(c.done)
	return true
}

// Expire requeues every lease whose deadline has passed. The worker
// holding an expired lease may still be running; its eventual Complete
// is void (stale lease id), and the store's atomic writes make a
// double-publish harmless — both workers write the identical entry.
func (b *Board) Expire() (expired int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	for id, c := range b.byLease {
		if now.After(c.deadline) {
			delete(b.byLease, id)
			b.counters.Expirations++
			b.counters.Requeues++
			b.enqueueLocked(c)
			expired++
		}
	}
	return expired
}

// ReleaseWorker requeues every cell leased to worker (its connection
// dropped, so no completion is coming).
func (b *Board) ReleaseWorker(worker string) (released int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for id, c := range b.byLease {
		if c.worker == worker {
			delete(b.byLease, id)
			b.counters.Disconnects++
			b.counters.Requeues++
			b.enqueueLocked(c)
			released++
		}
	}
	return released
}

// enqueueLocked appends c to the queue and wakes blocked leases.
// Callers hold mu.
//
//ppflint:locked mu
func (b *Board) enqueueLocked(c *boardCell) {
	b.queue = append(b.queue, c)
	close(b.queued)
	b.queued = make(chan struct{})
}

// Counters returns a copy of the cumulative event counts.
func (b *Board) Counters() Counters {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counters
}
