package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// splitmix64 is the seed mixer every derived input goes through: stream
// seeds, mix composition and the served event stream are all pure
// functions of the --seed argument.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	x := splitmix64(r.s)
	r.s += 0x9E3779B97F4A7C15
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cpuEpoch anchors cpuNow's wall-clock fallback.
var cpuEpoch = time.Now()

// cpuNow is the process's CPU time so far, or the wall time since start-up
// where CPU time is unavailable.
func cpuNow() time.Duration {
	if c, ok := processCPU(); ok {
		return c
	}
	return time.Since(cpuEpoch)
}

// measure runs fn and returns its wall time and the process's CPU time
// over the same span (wall time again where CPU time is unavailable). The
// CPU time counts every goroutine, the collector's background workers
// included, and leaves out time stolen by the hypervisor.
func measure(fn func()) (wall, cpu time.Duration) {
	cpu0, ok0 := processCPU()
	start := time.Now()
	fn()
	wall = time.Since(start)
	if cpu1, ok1 := processCPU(); ok0 && ok1 {
		return wall, cpu1 - cpu0
	}
	return wall, wall
}

// rttHist is a log-linear histogram of durations in nanoseconds: exact
// below 64 ns, then 64 buckets per power of two, so a bucket is at most
// 1/64 of its lower bound wide. Its size is fixed, whatever the number
// of samples.
type rttHist struct {
	counts [64 * 60]uint32
	n      uint64
	sumNs  float64
}

func (h *rttHist) add(d time.Duration) {
	ns := uint64(max(d, 0))
	b := int(ns)
	if ns >= 64 {
		shift := bits.Len64(ns) - 7
		b = 64*shift + int(ns>>shift)
	}
	h.counts[b]++
	h.n++
	h.sumNs += float64(ns)
}

func (h *rttHist) merge(o *rttHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNs += o.sumNs
}

// bucket returns the lower bound and width of bucket b in nanoseconds.
func (h *rttHist) bucket(b int) (lo, width float64) {
	if b < 64 {
		return float64(b), 1
	}
	shift := b/64 - 1
	return float64(uint64(64+b%64) << shift), float64(uint64(1) << shift)
}

// quantileUs returns the q-quantile in microseconds, at the same rank as
// quantile, spread evenly over the bucket that holds it. It returns
// 0 for an empty histogram.
func (h *rttHist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var below float64
	for b, c := range h.counts {
		if below+float64(c) <= rank {
			below += float64(c)
			continue
		}
		lo, width := h.bucket(b)
		return (lo + width*(rank-below+0.5)/float64(c)) / 1e3
	}
	return 0
}

func (h *rttHist) meanUs() float64 { return ratio(h.sumNs, float64(h.n)) / 1e3 }

// peakRSSMB reports the process's peak resident set size in MB (VmHWM on
// Linux). Elsewhere it falls back to the memory the Go runtime obtained
// from the OS, which tracks the same quantity less precisely.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
