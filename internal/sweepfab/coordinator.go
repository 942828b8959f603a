package sweepfab

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/simstore"
	"repro/internal/wire"
)

// Config parameterizes a coordinator.
type Config struct {
	// Store is the shared backend workers publish results to; the
	// coordinator fetches completed cells from it. Required.
	Store simstore.Backend
	// LeaseTimeout is how long a worker may hold a cell before the lease
	// expires and the cell requeues (0 = 5 minutes, generous for the
	// largest budgets).
	LeaseTimeout time.Duration
	// WaitHint is the poll delay sent to idle workers (0 = 50ms).
	WaitHint time.Duration
	// MaxFrame bounds fabric frames (0 = 1 MiB).
	MaxFrame int
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 5 * time.Minute
	}
	if c.WaitHint == 0 {
		c.WaitHint = 50 * time.Millisecond
	}
	if c.MaxFrame == 0 {
		c.MaxFrame = defaultMaxFrame
	}
	return c
}

// runCellAttempts bounds coordinator-side re-submissions of one cell
// when the store fetch after completion fails (corrupt or missing
// entry): each attempt re-runs the cell on the fleet, so a persistent
// store failure surfaces as a panic, not an infinite loop.
const runCellAttempts = 3

// Coordinator owns the lease board and the worker-facing listener of a
// distributed sweep. Install RunCell on a RunCache (AttachTo) and run
// experiments normally: every store-missed cell is leased to the fleet
// and fetched back from the shared store, in the same deterministic
// enumeration order as a local run — so rendered tables are
// byte-identical to a local -j N run at any worker count.
type Coordinator struct {
	cfg Config

	mu sync.Mutex
	//ppflint:guardedby mu
	lis net.Listener
	//ppflint:guardedby mu
	closed bool

	board *Board
	// stop signals the janitor and per-connection loops to wind down;
	// workers polling for leases then receive opFabShutdown.
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator returns a coordinator over the given shared store.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Store == nil {
		panic("sweepfab: Coordinator requires a store backend")
	}
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:   cfg,
		board: NewBoard(cfg.LeaseTimeout),
		stop:  make(chan struct{}),
	}
}

// Board exposes the lease board (counters for reports and tests).
func (c *Coordinator) Board() *Board { return c.board }

// AttachTo routes the run cache's store-missed cells through the fleet.
func (c *Coordinator) AttachTo(rc *experiment.RunCache) {
	rc.AttachStore(c.cfg.Store)
	rc.SetCellRunner(c.RunCell)
}

// ListenAndServe starts accepting workers on addr (e.g. ":9402").
func (c *Coordinator) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("sweepfab: %w", err)
	}
	return c.Serve(lis)
}

// Serve accepts workers on lis until Close. It returns nil on Close,
// the accept error otherwise. The janitor that expires stale leases
// runs for the lifetime of the serve loop.
func (c *Coordinator) Serve(lis net.Listener) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		lis.Close()
		return nil
	}
	c.lis = lis
	c.mu.Unlock()

	c.wg.Add(1)
	go c.janitor()

	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-c.stop:
				return nil
			default:
				return fmt.Errorf("sweepfab: accept: %w", err)
			}
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(conn)
		}()
	}
}

// Addr returns the bound listener address (nil before Serve).
func (c *Coordinator) Addr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lis == nil {
		return nil
	}
	return c.lis.Addr()
}

// Close stops accepting, tells polling workers to shut down, and waits
// for connection handlers to drain.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	lis := c.lis
	c.mu.Unlock()
	close(c.stop)
	if lis != nil {
		lis.Close()
	}
	c.wg.Wait()
	return nil
}

// janitor periodically expires stale leases so a crashed worker's cells
// requeue without waiting for its TCP connection to die.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.LeaseTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			now := time.Now() //ppflint:allow determinism lease deadlines are fleet liveness plumbing, not report data
			if n := c.board.Expire(now); n > 0 {
				log.Printf("sweepfab: expired %d stale lease(s)", n)
			}
		}
	}
}

// RunCell is the fabric cell runner installed on the coordinator's
// RunCache: submit to the lease board (idempotent — the cross-fleet
// single-flight), wait for a worker to publish, fetch the result from
// the shared store. A missing or corrupt published entry reopens the
// cell for a bounded number of attempts; exhausting them panics,
// matching the experiment package's panic-on-bug convention.
func (c *Coordinator) RunCell(spec experiment.CellSpec) sim.Result {
	enc, err := spec.Encode()
	if err != nil {
		panic(fmt.Sprintf("sweepfab: encoding cell spec: %v", err))
	}
	key := spec.Key()
	for attempt := 0; attempt < runCellAttempts; attempt++ {
		done := c.board.Submit(key, enc)
		select {
		case <-done:
		case <-c.stop:
			panic("sweepfab: coordinator closed with cells in flight")
		}
		if blob, ok := c.cfg.Store.LoadResult(key); ok {
			if r, derr := sim.DecodeResult(blob); derr == nil {
				return r
			}
		}
		// The fleet completed the cell but the store has no valid entry
		// (corrupt upload, failed publish, or the cell failed on every
		// worker): reopen and re-run.
		c.board.Reopen(key)
	}
	panic(fmt.Sprintf("sweepfab: cell %s produced no valid store entry after %d attempts", key, runCellAttempts))
}

// handle speaks the fabric protocol with one worker connection:
// hello, then a strict request/response loop.
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	rd := wire.NewReader(conn, c.cfg.MaxFrame)
	bw := bufio.NewWriter(conn)
	name, err := c.readHello(rd)
	if err != nil {
		wire.Send(bw, wire.ErrorBody(err, wire.CodeBadFrame))
		return
	}
	// Tag the lease owner with the remote address so two workers sharing
	// a name cannot release each other's leases on disconnect.
	owner := name + "@" + conn.RemoteAddr().String()
	if err := wire.Send(bw, encodeWelcome(uint64(c.cfg.LeaseTimeout/time.Millisecond))); err != nil {
		return
	}
	defer func() {
		if n := c.board.ReleaseWorker(owner); n > 0 {
			log.Printf("sweepfab: worker %s disconnected, requeued %d cell(s)", owner, n)
		}
	}()
	for {
		f, err := wire.ReadRequest(rd, c.bound)
		var resp []byte
		if err == nil {
			resp, err = c.dispatch(owner, f)
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return
			}
			resp = wire.ErrorBody(err, wire.CodeBadFrame)
		}
		// A stale lease is the one survivable error; any other ends the
		// connection once its error frame is written.
		if wire.Send(bw, resp) != nil || (err != nil && !errors.Is(err, wire.ErrBadLease)) {
			return
		}
	}
}

// bound is the coordinator's frame-size table at its frame cap.
func (c *Coordinator) bound(op uint8) int { return fabBoundFor(op, c.cfg.MaxFrame) }

// dispatch executes one worker request, already held to its op's bound,
// and builds the response frame. A non-nil error is the class the
// worker is owed in an error frame instead.
func (c *Coordinator) dispatch(owner string, f wire.Frame) ([]byte, error) {
	switch f.Op {
	case opFabHello:
		return nil, &wire.Error{Code: wire.CodeBadOrder, Msg: "duplicate hello"}
	case opFabLease:
		if err := wire.Finish(f.W); err != nil {
			return nil, err
		}
		select {
		case <-c.stop:
			return encodeShutdown(), nil
		default:
		}
		now := time.Now() //ppflint:allow determinism lease deadlines are fleet liveness plumbing, not report data
		id, spec, ok := c.board.Lease(owner, now)
		if !ok {
			return encodeWait(uint64(c.cfg.WaitHint / time.Millisecond)), nil
		}
		return encodeCell(id, spec), nil
	case opFabDone:
		id, ok, err := decodeDone(f.W)
		if err != nil {
			return nil, err
		}
		if !c.board.Complete(id, ok) {
			// Stale: the lease expired and the cell was re-leased. The
			// worker's store publish is still fine (atomic, identical
			// bytes); only its claim on the lease is void.
			return nil, &wire.Error{Code: wire.CodeBadLease, Msg: fmt.Sprintf("lease %d not held", id)}
		}
		return encodeAck(), nil
	default:
		return nil, &wire.Error{Code: wire.CodeBadFrame, Msg: fmt.Sprintf("unknown op 0x%02x", f.Op)}
	}
}

// readHello consumes and validates the opening frame.
func (c *Coordinator) readHello(rd *wire.Reader) (string, error) {
	f, err := wire.ReadHello(rd, opFabHello, c.bound)
	if err != nil {
		return "", err
	}
	return decodeHello(f)
}
