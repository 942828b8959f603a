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
	// simulating skips a cell that another worker published after its
	// lease expired, and its save path is how results and warmup
	// snapshots get published.
	Exec experiment.Exec
}

// dialWindow is how long a worker keeps retrying its initial dial, so
// workers can start before the coordinator is listening.
const dialWindow = 10 * time.Second

// WorkerStats summarizes one worker's session.
type WorkerStats struct {
	// Cells counts leases run to completion (successfully or not).
	Cells uint64
	// Failed counts leased cells whose simulation failed (bad spec).
	Failed uint64
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
	var stats WorkerStats
	conn, err := dialRetry(addr)
	if err != nil {
		return stats, err
	}
	defer conn.Close()
	w := &workerConn{cfg: cfg, wc: wire.NewConn(conn, maxFrame, fabBoundFor)}
	if _, err := w.wc.Exchange(encodeHello(cfg.Name), opFabWelcome); err != nil {
		return stats, err
	}
	err = w.loop(&stats)
	return stats, err
}

// dialRetry dials addr, retrying with a short backoff for dialWindow so
// fleet start order doesn't matter.
func dialRetry(addr string) (net.Conn, error) {
	deadline := time.Now().Add(dialWindow) //ppflint:allow determinism dial retry window is fleet startup plumbing, not report data
	for {
		conn, err := net.DialTimeout("tcp", addr, dialWindow)
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
}

// loop leases and runs cells until shutdown. Each lease request blocks
// at the coordinator until a cell is queued.
func (w *workerConn) loop(stats *WorkerStats) error {
	for {
		f, err := w.wc.Exchange(encodeLease(), opFabCell, opFabShutdown)
		if err != nil || f.Op == opFabShutdown {
			return err
		}
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

// runCell simulates one leased cell through the Exec path. The run
// cache attached to the Exec rechecks the shared store first (another
// worker may have published the cell after an expired lease) and
// publishes the result on a miss. DecodeCellSpec checks the spec before
// anything simulates, so a bad spec (a field, config, workload or
// scheme this build rejects) is reported to the coordinator as a failed
// completion, not a worker crash.
func (w *workerConn) runCell(specBytes []byte) (ok bool) {
	spec, err := experiment.DecodeCellSpec(specBytes)
	if err != nil {
		log.Printf("sweepfab: worker %s: bad cell spec: %v", w.cfg.Name, err)
		return false
	}
	w.cfg.Exec.Run(spec)
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
