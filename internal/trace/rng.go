package trace

import "math"

// rng is a small, fast, deterministic xorshift64* generator. The synthetic
// workloads must be bit-for-bit reproducible across runs and platforms, so
// the package carries its own generator instead of depending on math/rand
// implementation details.
type rng struct {
	state uint64
}

// newRNG seeds a generator; a zero seed is remapped to a fixed non-zero
// constant because xorshift has a zero fixed point.
func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *rng) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). n must be positive.
func (r *rng) Intn(n int) int {
	if n <= 0 {
		panic("trace: rng.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1): draw()/2^53.
func (r *rng) Float64() float64 {
	return float64(r.draw()) / (1 << 53)
}

// draw returns the next 53-bit draw, the numerator of Float64. A choice
// made with probability p is draw() < threshold(p).
func (r *rng) draw() uint64 { return r.Uint64() >> 11 }

// threshold returns ceil(p·2^53), the bound for which v < threshold(p)
// exactly when float64(v)/2^53 < p, for every draw v < 2^53: both
// float64(v)/2^53 and p·2^53 are exact. p ≤ 0 and NaN clamp to 0 and
// p ≥ 1 to 2^53, which also keeps a negative float from the uint64
// conversion, implementation-defined in Go. Derive every threshold here,
// never as a literal: the float64 nearest 0.7 is just below 7/10, so
// threshold(0.7) is 6305039478318694, one less than decimal arithmetic
// gives.
func threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}
