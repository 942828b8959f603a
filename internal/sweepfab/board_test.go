package sweepfab

import (
	"testing"
	"time"
)

// fakeClock is a settable lease clock: lease deadlines are pure
// functions of the times it returns, so expiry is tested without
// sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

// boardEpoch is the fake clock's starting time.
var boardEpoch = time.Unix(1_700_000_000, 0)

// noWait is a closed stop channel: a Lease given it grants a queued cell
// or returns ok false at once, so a board test never blocks on it.
var noWait = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func newTestBoard() (*Board, *fakeClock) {
	clk := &fakeClock{t: boardEpoch}
	return NewBoard(time.Minute, clk.now), clk
}

// TestBoardOneLeaseAtATime: a submission is leased to one worker at a
// time, and its done channel closes when the lease completes, whether
// the run succeeded or failed. A failed run does not requeue: the
// coordinator decides whether to submit again.
func TestBoardOneLeaseAtATime(t *testing.T) {
	b, _ := newTestBoard()
	done := b.Submit([]byte("spec-a"))
	id, spec, ok := b.Lease("w1", noWait)
	if !ok || string(spec) != "spec-a" {
		t.Fatalf("Lease = %d, %q, %v", id, spec, ok)
	}
	if _, _, ok := b.Lease("w2", noWait); ok {
		t.Fatal("a leased cell was leased twice")
	}
	if !b.Complete(id, true) {
		t.Fatal("live lease completion rejected")
	}
	select {
	case <-done:
	default:
		t.Fatal("done channel not closed on completion")
	}
	if b.Complete(id, true) {
		t.Fatal("a completed lease completed twice")
	}

	failed := b.Submit([]byte("spec-b"))
	id, _, _ = b.Lease("w1", noWait)
	if !b.Complete(id, false) {
		t.Fatal("failure report rejected")
	}
	select {
	case <-failed:
	default:
		t.Fatal("done channel not closed on a failed run")
	}
	if _, _, ok := b.Lease("w2", noWait); ok {
		t.Fatal("a failed run requeued its cell")
	}
	want := Counters{Submitted: 2, Leases: 2, Completions: 2, Failures: 1}
	if c := b.Counters(); c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
}

// TestBoardReopen: a completed cell runs again when the coordinator
// submits it again. The board keys nothing, so the second Submit of the
// same spec queues a fresh entry with its own open done channel instead
// of handing back the first submission's closed one.
func TestBoardReopen(t *testing.T) {
	b, _ := newTestBoard()
	d1 := b.Submit([]byte("spec"))
	id1, _, _ := b.Lease("w", noWait)
	b.Complete(id1, true)
	<-d1

	d2 := b.Submit([]byte("spec"))
	if d2 == d1 {
		t.Fatal("resubmission returned the completed submission's channel")
	}
	select {
	case <-d2:
		t.Fatal("resubmitted cell's channel is already closed")
	default:
	}
	id2, spec, ok := b.Lease("w", noWait)
	if !ok || string(spec) != "spec" {
		t.Fatal("resubmitted cell did not queue with its spec")
	}
	if b.Complete(id1, true) {
		t.Fatal("the first, completed lease completed the resubmission")
	}
	if !b.Complete(id2, true) {
		t.Fatal("resubmission's completion rejected")
	}
	<-d2
	want := Counters{Submitted: 2, Leases: 2, Completions: 2}
	if c := b.Counters(); c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
}

func TestBoardSubmitOrderIsLeaseOrder(t *testing.T) {
	b, _ := newTestBoard()
	b.Submit([]byte("first"))
	b.Submit([]byte("second"))
	b.Submit([]byte("third"))
	for _, want := range []string{"first", "second", "third"} {
		_, spec, ok := b.Lease("w", noWait)
		if !ok {
			t.Fatal("queue drained early")
		}
		if string(spec) != want {
			t.Fatalf("leased %q, want %q (submit order must be lease order)", spec, want)
		}
	}
}

// TestBoardLeaseBlocks: a lease waits for the next submission, stamps
// its deadline when it grants the cell rather than when it was asked
// for, and gives up when stop closes.
func TestBoardLeaseBlocks(t *testing.T) {
	b, clk := newTestBoard()
	stop := make(chan struct{})
	granted := make(chan string)
	go func() {
		_, spec, _ := b.Lease("w", stop)
		granted <- string(spec)
	}()
	clk.t = boardEpoch.Add(2 * time.Minute)
	b.Submit([]byte("late"))
	if spec := <-granted; spec != "late" {
		t.Fatalf("blocked lease got %q", spec)
	}
	clk.t = boardEpoch.Add(2*time.Minute + 30*time.Second)
	if n := b.Expire(); n != 0 {
		t.Fatalf("lease expired %d cell(s) a minute before its deadline", n)
	}

	refused := make(chan bool)
	go func() {
		_, _, ok := b.Lease("w", stop)
		refused <- !ok
	}()
	close(stop)
	if !<-refused {
		t.Fatal("lease granted with nothing queued")
	}
}

// TestBoardExpiry is the crash-recovery half of the fleet's guarantee:
// an expired lease requeues its cell exactly once, the cell re-leases,
// and the dead worker's eventual completion is void.
func TestBoardExpiry(t *testing.T) {
	b, clk := newTestBoard()
	done := b.Submit([]byte("spec"))
	staleID, _, ok := b.Lease("crashed", noWait)
	if !ok {
		t.Fatal("lease failed")
	}
	clk.t = boardEpoch.Add(30 * time.Second)
	if n := b.Expire(); n != 0 {
		t.Fatalf("lease expired %d cell(s) before its deadline", n)
	}
	clk.t = boardEpoch.Add(2 * time.Minute)
	if n := b.Expire(); n != 1 {
		t.Fatalf("Expire past deadline = %d, want 1", n)
	}
	// The cell re-leases to a live worker; the crashed worker's stale
	// completion must be rejected, not complete the re-leased cell.
	newID, _, ok := b.Lease("alive", noWait)
	if !ok {
		t.Fatal("expired cell did not requeue")
	}
	if b.Complete(staleID, true) {
		t.Fatal("stale lease completion accepted")
	}
	select {
	case <-done:
		t.Fatal("stale completion closed the done channel")
	default:
	}
	if !b.Complete(newID, true) {
		t.Fatal("re-leased completion rejected")
	}
	<-done
	c := b.Counters()
	if c.Expirations != 1 || c.Requeues != 1 || c.Completions != 1 || c.Leases != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestBoardReleaseWorker(t *testing.T) {
	b, _ := newTestBoard()
	b.Submit([]byte("a"))
	b.Submit([]byte("b"))
	b.Lease("w1", noWait)
	b.Lease("w1", noWait)
	if n := b.ReleaseWorker("w2"); n != 0 {
		t.Fatalf("released %d cells for an unknown worker", n)
	}
	if n := b.ReleaseWorker("w1"); n != 2 {
		t.Fatalf("ReleaseWorker = %d, want 2", n)
	}
	for i := 0; i < 2; i++ {
		if _, _, ok := b.Lease("w3", noWait); !ok {
			t.Fatal("released cells did not requeue")
		}
	}
	if c := b.Counters(); c.Disconnects != 2 || c.Requeues != 2 {
		t.Fatalf("counters = %+v", c)
	}
}
