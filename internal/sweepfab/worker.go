package sweepfab

import (
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/experiment"
	"repro/internal/wire"
)

// WorkerConfig parameterizes one fleet worker.
type WorkerConfig struct {
	// Name labels the worker in coordinator logs and lease ownership.
	Name string
	// Exec runs leased cells. Attach a RunCache backed by the shared
	// store (remote or tiered): the cache's store recheck before
	// simulating is the second half of the fleet single-flight, and its
	// save path is how results and warmup snapshots get published.
	Exec experiment.Exec
	// DialRetry is how long to keep retrying the initial dial (0 = 10s),
	// so workers can start before the coordinator is listening.
	DialRetry time.Duration
	// MaxFrame bounds fabric frames (0 = 1 MiB).
	MaxFrame int
}

// WorkerStats summarizes one worker's session.
type WorkerStats struct {
	// Cells counts leases run to completion (successfully or not).
	Cells uint64
	// Failed counts leased cells whose simulation failed (bad spec).
	Failed uint64
	// Waits counts empty-queue polls.
	Waits uint64
	// StaleLeases counts completions the coordinator voided (the lease
	// expired and was re-issued while this worker was simulating).
	StaleLeases uint64
}

// RunWorker dials the coordinator at addr and runs leased cells until
// the coordinator shuts the fleet down. It returns the session stats
// and the first fatal error (nil on a clean shutdown).
func RunWorker(addr string, cfg WorkerConfig) (WorkerStats, error) {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 10 * time.Second
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = defaultMaxFrame
	}
	var stats WorkerStats
	conn, err := dialRetry(addr, cfg.DialRetry)
	if err != nil {
		return stats, err
	}
	defer conn.Close()
	w := &workerConn{
		cfg: cfg,
		wc:  wire.NewConn(conn, cfg.MaxFrame, func(op uint8) int { return fabBoundFor(op, cfg.MaxFrame) }),
	}
	if err := w.hello(); err != nil {
		return stats, err
	}
	err = w.loop(&stats)
	return stats, err
}

// dialRetry dials addr, retrying with a short backoff for the
// configured window so fleet start order doesn't matter.
func dialRetry(addr string, window time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(window) //ppflint:allow determinism dial retry window is fleet startup plumbing, not report data
	for {
		conn, err := net.DialTimeout("tcp", addr, window)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) { //ppflint:allow determinism dial retry window is fleet startup plumbing, not report data
			return nil, fmt.Errorf("sweepfab: dialing coordinator %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// workerConn is one worker's protocol state.
type workerConn struct {
	cfg WorkerConfig
	wc  wire.Conn
	// leaseTimeout is the coordinator's advertised lease lifetime
	// (informational; the coordinator enforces it).
	leaseTimeout time.Duration
}

// hello opens the session and records the advertised lease timeout.
func (w *workerConn) hello() error {
	f, err := w.wc.Exchange(encodeHello(w.cfg.Name), opFabWelcome)
	if err != nil {
		return err
	}
	millis, err := decodeUint64Body(f.W)
	if err != nil {
		return err
	}
	w.leaseTimeout = time.Duration(millis) * time.Millisecond
	return nil
}

// loop leases and runs cells until shutdown.
func (w *workerConn) loop(stats *WorkerStats) error {
	for {
		f, err := w.wc.Exchange(encodeLease(), opFabCell, opFabWait, opFabShutdown)
		if err != nil {
			return err
		}
		switch f.Op {
		case opFabShutdown:
			return nil
		case opFabWait:
			millis, err := decodeUint64Body(f.W)
			if err != nil {
				return err
			}
			stats.Waits++
			time.Sleep(time.Duration(millis) * time.Millisecond)
		case opFabCell:
			leaseID, specBytes, err := decodeCell(f)
			if err != nil {
				return err
			}
			ok := w.runCell(specBytes)
			stats.Cells++
			if !ok {
				stats.Failed++
			}
			if err := w.complete(leaseID, ok, stats); err != nil {
				return err
			}
		}
	}
}

// runCell simulates one leased cell through the Exec path. The run
// cache attached to the Exec rechecks the shared store first (another
// worker may have published the cell after an expired lease) and
// publishes the result on a miss. A failure here is a spec problem
// (unknown workload or scheme after version skew), reported to the
// coordinator as a failed completion, not a worker crash.
func (w *workerConn) runCell(specBytes []byte) (ok bool) {
	spec, err := experiment.DecodeCellSpec(specBytes)
	if err != nil {
		log.Printf("sweepfab: worker %s: undecodable cell spec: %v", w.cfg.Name, err)
		return false
	}
	if _, err := spec.Run(w.cfg.Exec); err != nil {
		log.Printf("sweepfab: worker %s: cell %s failed: %v", w.cfg.Name, spec.Key(), err)
		return false
	}
	return true
}

// complete reports a finished lease. A bad-lease error is survivable:
// the lease expired mid-run and the cell was re-issued, so only this
// worker's claim is void — the published store entry stands.
func (w *workerConn) complete(leaseID uint64, ok bool, stats *WorkerStats) error {
	_, err := w.wc.Exchange(encodeDone(leaseID, ok), opFabAck)
	if errors.Is(err, wire.ErrBadLease) {
		stats.StaleLeases++
		return nil
	}
	return err
}
