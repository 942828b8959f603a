// Package prefetch implements the hardware prefetchers evaluated in the
// PPF paper: the Signature Path Prefetcher (SPP) that PPF filters, and the
// Best-Offset (BOP) and DRAM-Aware Access Map Pattern Matching (DA-AMPM)
// baselines, plus simple next-line and stride prefetchers used in tests
// and examples.
//
// Prefetchers observe the L2 demand-access stream (the paper triggers
// prefetching only on L2 demand accesses) and emit candidate prefetches
// with a suggested fill level. When PPF is attached, the candidates are
// routed through the perceptron filter instead of being issued directly.
package prefetch

// Access describes one L2 demand access presented to a prefetcher.
type Access struct {
	// PC is the program counter of the triggering load.
	PC uint64
	// Addr is the byte address of the demand access.
	Addr uint64
	// Cycle is the core cycle of the access.
	Cycle uint64
	// Hit reports whether the access hit in the L2.
	Hit bool
}

// Meta carries prefetcher-internal metadata exported alongside each
// candidate. The paper's §3.2 "Using Metadata from the Prefetcher" step
// makes these visible to PPF, which turns them into perceptron features.
type Meta struct {
	// Depth is the lookahead iteration that produced the candidate
	// (1 = non-speculative trigger access).
	Depth int
	// Signature is the SPP signature current when the candidate was
	// generated (zero for prefetchers without signatures).
	Signature uint16
	// Confidence is the prefetcher's own 0–100 confidence estimate.
	Confidence int
	// Delta is the predicted block delta that produced the candidate.
	Delta int
}

// Candidate is one suggested prefetch.
type Candidate struct {
	// Addr is the block-aligned byte address to prefetch.
	Addr uint64
	// FillL2 is the prefetcher's own fill-level suggestion: true to fill
	// the L2, false to fill the last-level cache. PPF overrides this.
	FillL2 bool
	// Meta is the prefetcher metadata exported to PPF.
	Meta Meta
}

// Emit receives candidates from a prefetcher. The return value reports
// whether the candidate was accepted into a cache (a fill actually
// started): duplicates of resident or in-flight blocks and
// filter-rejected candidates return false. Prefetchers count accepted
// candidates against their per-trigger issue budgets, so a stream of
// already-covered suggestions does not starve deeper lookahead.
type Emit func(Candidate) (accepted bool)

// BatchSink receives a burst of candidates from a BatchProducer. The
// sink must set accepted[i] for every candidate (true when a fill
// actually started — the same contract as Emit's return value); the
// producer applies the acceptance feedback to its issue budgets after
// the call. Both slices are producer-owned scratch, valid only for the
// duration of the call.
type BatchSink func(cands []Candidate, accepted []bool)

// BatchProducer is implemented by prefetchers that can hand candidates
// to the sink a burst at a time, amortizing the producer's per-candidate
// call overhead across the burst; the simulator's sink still decides
// each candidate in order (sim.Core.sinkBurst). The candidate stream
// and all post-call prefetcher state are bit-identical to OnDemand with
// a per-candidate Emit: producers size bursts so their
// per-trigger caps can only bind at a burst boundary, and production
// between bursts never depends on acceptance feedback.
type BatchProducer interface {
	Prefetcher
	// OnDemandBatch presents one L2 demand access; the prefetcher calls
	// sink with one or more candidate bursts.
	OnDemandBatch(a Access, sink BatchSink)
}

// flushBurst clears acc[:nb], hands burst[:nb] to the sink, and reports
// how many candidates were accepted. Shared by the batch producers whose
// only per-candidate feedback is the acceptance count (SPP carries its
// own variant with depth accounting).
func flushBurst(burst []Candidate, acc []bool, nb int, sink BatchSink) int {
	acc = acc[:nb]
	for i := range acc {
		acc[i] = false
	}
	sink(burst[:nb], acc)
	n := 0
	for _, ok := range acc {
		if ok {
			n++
		}
	}
	return n
}

// Prefetcher is the interface all prefetch engines implement.
type Prefetcher interface {
	// Name identifies the prefetcher in reports.
	Name() string
	// OnDemand presents one L2 demand access; the prefetcher calls emit
	// for every candidate it wants issued.
	OnDemand(a Access, emit Emit)
	// OnPrefetchUseful informs the prefetcher that a previously issued
	// prefetch was hit by a demand access (feeds accuracy tracking).
	OnPrefetchUseful(addr uint64)
	// OnPrefetchFill informs the prefetcher that one of its prefetches
	// was filled into the cache.
	OnPrefetchFill(addr uint64)
	// Reset clears learned state (used between warmup configurations in
	// some experiments; statistics live elsewhere).
	Reset()
}

// Nil is a no-op prefetcher representing the paper's "no prefetching"
// baseline.
type Nil struct{}

// Name implements Prefetcher.
func (Nil) Name() string { return "none" }

// OnDemand implements Prefetcher.
func (Nil) OnDemand(Access, Emit) {}

// OnPrefetchUseful implements Prefetcher.
func (Nil) OnPrefetchUseful(uint64) {}

// OnPrefetchFill implements Prefetcher.
func (Nil) OnPrefetchFill(uint64) {}

// Reset implements Prefetcher.
func (Nil) Reset() {}
