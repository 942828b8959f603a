package runner

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"
)

// progress periodically reports done/total and an ETA for a sweep, and
// ends it with a summary of the jobs' wall times. All writes happen from
// one reporter goroutine; a job goroutine only bumps the atomic counter
// and writes its wall time into its own slot, so the reporter adds no
// lock to the pool's hot path. The final line reads the slots after
// Map's workers have joined.
type progress struct {
	w       io.Writer
	label   string
	total   int
	workers int
	done    atomic.Int64
	times   []time.Duration // job i's wall time, written once by its worker
	start   time.Time
	stopCh  chan struct{}
	doneCh  chan struct{}
}

func newProgress(w io.Writer, label string, total, workers int) *progress {
	p := &progress{
		w: w, label: label, total: total, workers: workers,
		times:  make([]time.Duration, total),
		start:  time.Now(),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	go p.loop()
	return p
}

// jobDone records job i's wall time and counts it finished.
func (p *progress) jobDone(i int, d time.Duration) {
	p.times[i] = d
	p.done.Add(1)
}

func (p *progress) loop() {
	defer close(p.doneCh)
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			p.render(false)
		case <-p.stopCh:
			p.render(true)
			return
		}
	}
}

// render prints one status line. Intermediate lines end in \r so a
// terminal shows a single updating line; the final line carries the
// timing summary and ends in \n.
func (p *progress) render(final bool) {
	done := int(p.done.Load())
	elapsed := time.Since(p.start)
	if final {
		fmt.Fprintf(p.w, "%s: %d/%d jobs (j=%d, %.1fs elapsed)%s\n",
			p.label, done, p.total, p.workers, elapsed.Seconds(), p.summary(elapsed))
		return
	}
	eta := "?"
	if done > 0 {
		remain := time.Duration(float64(elapsed) / float64(done) * float64(p.total-done))
		eta = remain.Round(100 * time.Millisecond).String()
	}
	fmt.Fprintf(p.w, "%s: %d/%d jobs (j=%d, %.1fs elapsed, eta %s)   \r",
		p.label, done, p.total, p.workers, elapsed.Seconds(), eta)
}

// summary renders the finished jobs' wall times: their sum (about the
// CPU time the sweep consumed), its ratio to the sweep's wall time
// (about the parallelism achieved), the median, the 95th percentile and
// the slowest job. A job that never finished has no time and is left
// out.
func (p *progress) summary(wall time.Duration) string {
	var total time.Duration
	slowest := 0
	for i, d := range p.times {
		total += d
		if d > p.times[slowest] {
			slowest = i
		}
	}
	sorted := slices.Clone(p.times)
	slices.Sort(sorted)
	sorted = sorted[len(sorted)-int(p.done.Load()):]
	if len(sorted) == 0 {
		return ""
	}
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	return fmt.Sprintf(": %.1fs job-time, %.1fx job-time/wall, p50 %s, p95 %s, max %s (%s[%d])",
		total.Seconds(), total.Seconds()/wall.Seconds(),
		ms(sorted[len(sorted)/2]), ms(sorted[len(sorted)*95/100]), ms(p.times[slowest]),
		p.label, slowest)
}

// stop emits the final line and joins the reporter goroutine, so callers
// may read the underlying writer race-free once stop returns.
func (p *progress) stop() {
	close(p.stopCh)
	<-p.doneCh
}
