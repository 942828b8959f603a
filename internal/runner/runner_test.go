package runner

import (
	"bytes"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderStableResults(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 64} {
		got := Map(100, Options{Workers: workers}, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d holds %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	Map(40, Options{Workers: workers}, func(i int) int {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return i
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", p, workers)
	}
}

// mapPanic runs Map and returns the panic it raised in the caller, or
// nil.
func mapPanic(n int, opts Options, fn func(i int) int) (v any) {
	defer func() { v = recover() }()
	Map(n, opts, fn)
	return nil
}

// TestMapPanicStopsSweep is deterministic: with one worker, job 0
// panics, and the worker's check before each job must keep every later
// job from starting. The caller's panic names the sweep's label, the
// job's index and the panic value.
func TestMapPanicStopsSweep(t *testing.T) {
	var started atomic.Int64
	v := mapPanic(100, Options{Workers: 1, Label: "explode"}, func(i int) int {
		started.Add(1)
		if i == 0 {
			panic("kaboom")
		}
		return i
	})
	msg, ok := v.(string)
	if !ok {
		t.Fatalf("Map panicked with %#v, want a message", v)
	}
	if !strings.HasPrefix(msg, "runner: job 0 (explode) panicked: kaboom\n") {
		t.Fatalf("panic message lacks the job's label, index or value: %q", msg)
	}
	if !strings.Contains(msg, "goroutine") {
		t.Fatalf("panic message lacks the job's stack: %q", msg)
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("%d jobs started, want 1: jobs kept starting after a panic", n)
	}
}

// TestMapPanicRecovery: a panic in a multi-worker sweep still surfaces
// in the caller, after every running job has finished.
func TestMapPanicRecovery(t *testing.T) {
	var running atomic.Int64
	v := mapPanic(20, Options{Workers: 4, Label: "explode"}, func(i int) int {
		running.Add(1)
		defer running.Add(-1)
		if i == 7 {
			panic("kaboom")
		}
		return i
	})
	if msg, _ := v.(string); !strings.Contains(msg, "job 7 (explode) panicked: kaboom") {
		t.Fatalf("panic lacks context: %#v", v)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("Map re-panicked with %d jobs still running", n)
	}
}

func TestMapZeroJobs(t *testing.T) {
	var buf bytes.Buffer
	got := Map(0, Options{Progress: &buf}, func(i int) int { return i })
	if len(got) != 0 || buf.Len() != 0 {
		t.Fatalf("got %v, progress %q", got, buf.String())
	}
}

// TestMapSharedAccumulatorUnderRace exercises the pattern the experiment
// sweeps rely on: concurrent jobs funnelling into shared state, their
// own timing slots and the results slice while the progress reporter
// runs. It fails under `go test -race` if any of those paths shares
// state incorrectly.
func TestMapSharedAccumulatorUnderRace(t *testing.T) {
	var buf bytes.Buffer
	var sum atomic.Int64
	got := Map(200, Options{Workers: 8, Label: "acc", Progress: &buf}, func(i int) int {
		sum.Add(int64(i))
		return i
	})
	if len(got) != 200 || sum.Load() != 199*200/2 {
		t.Fatalf("results %d, shared counter %d", len(got), sum.Load())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}
	final := finalLine(buf.String()) // safe: the reporter goroutine joined before Map returned
	if !strings.HasPrefix(final, "acc: 200/200 jobs (j=8, ") || !strings.Contains(final, " (acc[") {
		t.Fatalf("bad summary line %q", final)
	}
}

// finalLine returns the last line a progress reporter wrote, past any
// intermediate \r-terminated status lines.
func finalLine(out string) string {
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	final := lines[len(lines)-1]
	if i := strings.LastIndexByte(final, '\r'); i >= 0 {
		final = final[i+1:]
	}
	return final
}

// TestProgressReporting checks the sweep's final line and its timing
// summary, whose max must cover the slow job.
func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	Map(12, Options{Workers: 4, Label: "sweep", Progress: &buf}, func(i int) int {
		time.Sleep(time.Millisecond)
		if i == 5 {
			time.Sleep(20 * time.Millisecond)
		}
		return i
	})
	final := finalLine(buf.String())
	want := regexp.MustCompile(`^sweep: 12/12 jobs \(j=4, [0-9.]+s elapsed\): [0-9.]+s job-time, [0-9.]+x job-time/wall, ` +
		`p50 \S+, p95 \S+, max (\S+) \(sweep\[\d+\]\)$`)
	m := want.FindStringSubmatch(final)
	if m == nil {
		t.Fatalf("final progress line %q does not match %v", final, want)
	}
	if d, err := time.ParseDuration(m[1]); err != nil || d < 20*time.Millisecond {
		t.Fatalf("max %q: %v, want at least the slow job's 20ms", m[1], err)
	}
}
