// Package runner is the parallel job engine every experiment sweep runs
// on: a bounded worker pool with deterministic result placement, a
// panic that stops the sweep and resurfaces in the caller, and an
// optional progress reporter that times each job. Memo, the sweeps'
// single-flight cell cache, lives here too.
//
// Determinism contract: Map assigns job i's result to slot i of the
// returned slice, so callers that enumerate their (scheme, workload,
// seed) cells in a fixed order observe identical results at any worker
// count — the worker count changes only wall-clock time, never output.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures one Map call.
type Options struct {
	// Workers bounds the number of concurrently running jobs. Zero or
	// negative selects GOMAXPROCS.
	Workers int
	// Label names the sweep in progress lines and panic messages.
	Label string
	// Progress, when non-nil, receives live done/total/ETA lines and,
	// as the sweep's final line, a summary of the jobs' wall times
	// (typically os.Stderr). Nil disables reporting and timing.
	Progress io.Writer
}

// workers resolves the effective pool size for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// Map runs fn(i) for every i in [0, n) on a bounded worker pool and
// returns the results in job order. A panicking job stops the sweep:
// every worker checks before starting a job, so no job starts after the
// panic, the jobs already running finish, and Map then panics in the
// caller's goroutine with the job's label, index, panic value and
// stack.
func Map[T any](n int, opts Options, fn func(i int) T) []T {
	if n < 0 {
		panic(fmt.Sprintf("runner: negative job count %d", n))
	}
	results := make([]T, n)
	if n == 0 {
		return results
	}
	workers := opts.workers(n)
	var prog *progress
	if opts.Progress != nil {
		prog = newProgress(opts.Progress, opts.Label, n, workers)
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		panicMsg string // written once, by the job that set failed
	)
	runJob := func(i int) {
		defer func() {
			if r := recover(); r != nil && failed.CompareAndSwap(false, true) {
				panicMsg = fmt.Sprintf("runner: job %d (%s) panicked: %v\n%s",
					i, opts.Label, r, debug.Stack())
			}
		}()
		start := time.Now()
		results[i] = fn(i)
		if prog != nil {
			prog.jobDone(i, time.Since(start))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				runJob(i)
			}
		}()
	}
	wg.Wait()
	if prog != nil {
		prog.stop()
	}
	if failed.Load() {
		panic(panicMsg)
	}
	return results
}
