package core

import (
	"errors"
	"fmt"
)

// Weight bounds: 5-bit saturating counters (paper §3.1).
const (
	// WeightMin is the smallest weight value.
	WeightMin = -16
	// WeightMax is the largest weight value.
	WeightMax = 15
)

// MaxFeatures bounds the feature-vector length so cached index vectors
// can live inline in table entries without per-event allocation. The
// largest set in use is the 23-feature selection pool.
const MaxFeatures = 32

// Table geometry (paper §3.1 "Recording"): 1,024-entry direct-mapped
// prefetch and reject tables, 10-bit index, 6-bit tag.
const (
	recordTableEntries = 1024
	recordIndexBits    = 10
	recordTagBits      = 6
)

// Decision is the filter's verdict on a candidate prefetch.
type Decision uint8

// Filter decisions.
const (
	// Drop rejects the prefetch entirely.
	Drop Decision = iota
	// FillLLC issues the prefetch into the last-level cache only.
	FillLLC
	// FillL2 issues the prefetch into the L2 (high confidence).
	FillL2
)

// decisionCount bounds the defined Decision values; ParseDecision
// rejects anything at or beyond it.
const decisionCount = 3

// ErrBadDecision is the typed error decode paths latch when an encoded
// decision byte names no defined verdict.
var ErrBadDecision = errors.New("core: invalid decision")

// String renders the decision for reports. Unknown values format as
// decision(N) — which is fine for a report, but means String/Sprintf
// round-trips garbage silently; boundaries that *decode* decisions
// (wire frames, snapshots) must validate with ParseDecision instead.
func (d Decision) String() string {
	switch d {
	case Drop:
		return "drop"
	case FillLLC:
		return "fill-llc"
	case FillL2:
		return "fill-l2"
	default:
		return fmt.Sprintf("decision(%d)", uint8(d))
	}
}

// ParseDecision validates a decision byte arriving from an untrusted
// boundary — a ppfd wire frame, a snapshot stream — and returns the
// verdict it names, or ErrBadDecision (wrapped with the offending byte)
// for anything out of range.
//
//ppflint:hotpath
func ParseDecision(b uint8) (Decision, error) {
	if b >= decisionCount {
		return 0, errBadDecisionByte(b)
	}
	return Decision(b), nil
}

// errBadDecisionByte is outlined so ParseDecision inlines into decode
// walks without fmt.Errorf's argument boxing escaping on the (never
// taken in healthy streams) error branch.
//
//go:noinline
func errBadDecisionByte(b uint8) error {
	return fmt.Errorf("%w: byte 0x%02x", ErrBadDecision, b)
}

// Config tunes the filter thresholds.
type Config struct {
	// TauHi: candidates with sum ≥ TauHi fill the L2.
	TauHi int
	// TauLo: candidates with TauLo ≤ sum < TauHi fill the LLC; below
	// TauLo they are dropped.
	TauLo int
	// ThetaP is the positive training saturation: on a positive outcome
	// the weights are only strengthened while the recomputed sum is
	// below ThetaP, preventing over-training (paper §3.1 "Training").
	ThetaP int
	// ThetaN is the negative training saturation (a negative value).
	ThetaN int
	// Features overrides the feature set; nil selects DefaultFeatures.
	// Used by the feature-selection and ablation experiments.
	Features []FeatureSpec
}

// DefaultConfig returns thresholds tuned for this simulator. The paper
// tunes its thresholds empirically on SPEC CPU 2017 and does not publish
// exact values; like the authors' reference code, both thresholds sit
// below zero so an untrained filter (sum 0) issues into the L2 — the L2's
// fast turnover then supplies negative training quickly, and only
// candidates the perceptron has actively learned to distrust are demoted
// to the LLC or dropped. Calibration notes are in EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{TauHi: -4, TauLo: -18, ThetaP: 40, ThetaN: -40}
}

// Stats aggregates filter activity. The per-decision counters partition
// the inferences: Inferences == IssuedL2 + IssuedLLC + Dropped + Squashed
// whenever every non-drop decision is resolved with RecordIssue or
// RecordSquashed (as the simulator does).
type Stats struct {
	Inferences     uint64 // candidates scored
	IssuedL2       uint64 // prefetches actually issued into the L2
	IssuedLLC      uint64 // prefetches actually issued into the LLC
	Dropped        uint64 // candidates the filter rejected
	Squashed       uint64 // accepted candidates squashed before issue (MSHR full / in-flight duplicate)
	TrainPositive  uint64 // weight-increment events
	TrainNegative  uint64 // weight-decrement events
	FalseNegatives uint64 // reject-table hits: we dropped a useful prefetch
	UsefulIssued   uint64 // prefetch-table hits: issued prefetch proved useful
	EvictUnused    uint64 // issued prefetch evicted without use
	// Boundary counts inferences whose perceptron sum landed within
	// BoundaryMargin of τ_hi or τ_lo — candidates one training event
	// away from flipping decision. A high Boundary rate is the thrash
	// signature the adversarial fuzzer (internal/advfuzz) hunts for:
	// workloads that pin the filter to its thresholds oscillate between
	// issue and drop on every retrain.
	Boundary uint64
}

// BoundaryMargin is the half-width of the near-threshold band Boundary
// counts: weight increments are ±1, so a sum within 2 of a threshold
// can cross it within two training events on its features.
const BoundaryMargin = 2

// BoundaryRate is the fraction of inferences that scored within
// BoundaryMargin of a decision threshold.
func (s Stats) BoundaryRate() float64 {
	if s.Inferences == 0 {
		return 0
	}
	return float64(s.Boundary) / float64(s.Inferences)
}

// IssueRate is the fraction of scored candidates that were actually
// issued as prefetches. Candidates the filter accepted but the cache
// squashed (full MSHRs, in-flight duplicates) count in the denominator
// but not the numerator.
func (s Stats) IssueRate() float64 {
	if s.Inferences == 0 {
		return 0
	}
	return float64(s.IssuedL2+s.IssuedLLC) / float64(s.Inferences)
}

// indexVec caches, per candidate, the weight-table index of each active
// feature. Indices are pure functions of the FeatureInput, so they are
// computed once per event (in Decide) and reused by every later lookup,
// training, and observation touching the same candidate — the stored
// vector replaces up to three full re-hashes of all features. uint16
// suffices: New rejects weight tables larger than 1<<16 entries.
type indexVec [MaxFeatures]uint16

// recordEntry is one Prefetch/Reject Table slot. The hardware stores the
// paper's Table 2 metadata (valid, tag, useful, perceptron decision, PC,
// address, current signature, PC hash, delta, confidence, depth); this
// model keeps the condensed form training actually consumes — the cached
// feature-index vector. Storage accounting still follows the paper's bit
// budget in storage.go.
type recordEntry struct {
	valid    bool
	tag      uint16
	useful   bool
	decision Decision // the perceptron decision carried out (Drop = reject-table entry)
	seq      uint64   // issue sequence number, for overwrite-age checks
	idx      indexVec
}

// issued reports whether the entry records an issued prefetch (as
// opposed to a reject-table entry).
func (e *recordEntry) issued() bool { return e.decision != Drop }

// Filter is the perceptron prefetch filter.
//
// The weight tables live in one contiguous int8 plane: feature i's
// table occupies plane[base[i] : base[i]+TableSize]. The flat layout
// keeps every per-candidate sum inside one allocation (one cache-line
// stream instead of a pointer chase through a slice of slices), and the
// precomputed per-feature masks replace the `mix % len` fold with a
// single AND — legal because New enforces power-of-two table sizes.
type Filter struct {
	cfg      Config
	features []FeatureSpec

	// nf caches len(features); base/fmask/kinds are the per-feature
	// plane offsets, index masks (TableSize-1) and index kinds, all
	// derived from cfg in New and immutable afterwards.
	nf         int
	plane      []int8
	base       [MaxFeatures]uint32
	fmask      [MaxFeatures]uint32
	kinds      [MaxFeatures]FeatureKind
	defaultSet bool

	prefetchTable [recordTableEntries]recordEntry
	rejectTable   [recordTableEntries]recordEntry

	pcHist PCHistory

	issueSeq uint64

	// scratchIdx holds the index vector computed by the most recent
	// Decide; RecordIssue/RecordReject for the same candidate reuse it
	// instead of re-hashing every feature. Index vectors are pure
	// functions of the input, so a stale hit is impossible: the cached
	// vector is only used when scratchFor matches the input exactly.
	scratchIdx   indexVec
	scratchFor   FeatureInput
	scratchValid bool

	// OnTrainEvent, when non-nil, observes every training example: the
	// weight each feature table currently holds for the example, and the
	// ground-truth outcome (+1 the prefetch was useful, -1 it was not).
	// The paper's feature-selection methodology (§5.5) computes Pearson
	// correlations from exactly this stream.
	OnTrainEvent func(weights []int8, outcome int)

	trainBuf []int8 // reused buffer for OnTrainEvent

	stats Stats
}

// New constructs a filter with the thresholds exactly as given; an
// all-zero threshold point is a legal configuration (sweeps and
// ablations may probe it). Use DefaultConfig for the tuned defaults.
func New(cfg Config) *Filter {
	feats := cfg.Features
	if feats == nil {
		feats = DefaultFeatures()
	}
	if len(feats) > MaxFeatures {
		panic(fmt.Sprintf("core: %d features exceeds MaxFeatures=%d", len(feats), MaxFeatures))
	}
	f := &Filter{cfg: cfg, features: feats, nf: len(feats)}
	total := 0
	for i, spec := range feats {
		if spec.TableSize <= 0 {
			panic(fmt.Sprintf("core: feature %q has non-positive table size", spec.Name))
		}
		if spec.TableSize > 1<<16 {
			panic(fmt.Sprintf("core: feature %q table size %d exceeds the 1<<16 cached-index limit", spec.Name, spec.TableSize))
		}
		if spec.TableSize&(spec.TableSize-1) != 0 {
			panic(fmt.Sprintf("core: feature %q table size %d is not a power of two", spec.Name, spec.TableSize))
		}
		if spec.Kind == 0 || spec.Kind > KindLineXorDepth {
			panic(fmt.Sprintf("core: feature %q has unknown kind %d", spec.Name, spec.Kind))
		}
		f.base[i] = uint32(total)
		f.fmask[i] = uint32(spec.TableSize - 1)
		f.kinds[i] = spec.Kind
		total += spec.TableSize
	}
	f.plane = make([]int8, total)
	f.defaultSet = isDefaultSet(feats)
	return f
}

// defaultKinds/defaultSizes pin the geometry computeRowDefault is
// compiled against; isDefaultSet gates the straight-line path on an
// exact match so a custom set reusing built-in kinds at different table
// sizes still takes the general masked path.
var (
	defaultKinds = [9]FeatureKind{
		KindCacheLine, KindPageAddr, KindPhysAddr, KindConfXorPage,
		KindPCPath, KindSigXorDelta, KindPCXorDepth, KindPCXorDelta,
		KindConfidence,
	}
	defaultSizes = [9]int{
		tableLarge, tableLarge, tableLarge, tableLarge,
		tableMedium, tableMedium, tableSmall, tableSmall,
		tableConf,
	}
)

func isDefaultSet(feats []FeatureSpec) bool {
	if len(feats) != len(defaultKinds) {
		return false
	}
	for i := range feats {
		if feats[i].Kind != defaultKinds[i] || feats[i].TableSize != defaultSizes[i] {
			return false
		}
	}
	return true
}

// tableOf returns feature i's weight table as a view into the flat
// plane (snapshot and observability paths; the hot path indexes the
// plane directly through base/fmask).
func (f *Filter) tableOf(i int) []int8 {
	lo, hi := f.base[i], f.base[i]+f.fmask[i]+1
	return f.plane[lo:hi:hi]
}

// Stats returns a copy of the accumulated counters.
func (f *Filter) Stats() Stats { return f.stats }

// ResetStats clears the counters (used after warmup; learned weights are
// kept, matching the simulation methodology).
func (f *Filter) ResetStats() { f.stats = Stats{} }

// Reset returns the filter to its freshly-constructed state: weights,
// prefetch/reject tables, PC history, issue sequencing, scratch memo and
// statistics all cleared. Per-client session reuse (a ppfd session
// leased to a new tenant) needs exactly this — ResetStats alone would
// leak the previous tenant's learned weights. The training observer
// survives the reset: it is caller wiring, not learned state.
//
// Implemented as a whole-receiver reassignment from New, so a field
// added to Filter later cannot silently escape it; the snapshot ppflint
// analyzer enforces that shape, and TestResetMatchesFresh pins
// Reset ≡ New byte-identically through the SnapshotWalk encoding.
func (f *Filter) Reset() {
	hook := f.OnTrainEvent
	*f = *New(f.cfg)
	f.OnTrainEvent = hook
}

// Config returns the active configuration.
func (f *Filter) Config() Config { return f.cfg }

// FeatureNames lists the active features in table order.
func (f *Filter) FeatureNames() []string {
	names := make([]string, len(f.features))
	for i, s := range f.features {
		names[i] = s.Name
	}
	return names
}

// WeightsOf returns a copy of the trained weight table for feature i,
// for the paper's feature-analysis methodology (Figures 6–8).
func (f *Filter) WeightsOf(i int) []int8 {
	t := f.tableOf(i)
	out := make([]int8, len(t))
	copy(out, t)
	return out
}

// OnLoadPC records a retired load PC into the three-deep history used by
// the PCPath feature. Call once per demand load, before OnDemand.
//
//ppflint:hotpath
func (f *Filter) OnLoadPC(pc uint64) {
	if pc == f.pcHist[0] {
		return
	}
	f.pcHist[2] = f.pcHist[1]
	f.pcHist[1] = f.pcHist[0]
	f.pcHist[0] = pc
}

// PCHist exposes the current load-PC history (used when constructing
// FeatureInput for candidates).
func (f *Filter) PCHist() PCHistory { return f.pcHist }

// indexFor folds feature i's raw value for in onto its weight table,
// one feature at a time: the per-kind reference the property tests sum
// against, independent of computeRow's whole-row paths.
//
//ppflint:hotpath
func (f *Filter) indexFor(i int, in *FeatureInput) int {
	return int(mix(featureRaw(f.kinds[i], in)) & uint64(f.fmask[i]))
}

// computeScratch evaluates every feature's table index for the input
// held in f.scratchFor, writing the vector into f.scratchIdx.
//
//ppflint:hotpath
func (f *Filter) computeScratch() {
	f.computeRow(&f.scratchFor, &f.scratchIdx)
	f.scratchValid = true
}

// ensureScratch makes f.scratchIdx hold the index vector for in, reusing
// the vector Decide just computed when the inputs match (the common
// decide→record path). Index vectors are pure functions of the input, so
// a stale hit is impossible.
//
//ppflint:hotpath
func (f *Filter) ensureScratch(in *FeatureInput) {
	if f.scratchValid && f.scratchFor == *in {
		return
	}
	f.scratchFor = *in
	f.computeScratch()
}

// Sum computes the perceptron output for a candidate's features.
//
//ppflint:hotpath
func (f *Filter) Sum(in *FeatureInput) int {
	f.ensureScratch(in)
	return f.sumIndexed(&f.scratchIdx)
}

// sumIndexed sums the weights selected by a precomputed index vector:
// nine loads from one flat plane, no per-table pointer chase. Slicing
// base and the row to the same length lets the compiler drop the inner
// bounds checks.
//
//ppflint:hotpath
func (f *Filter) sumIndexed(idx *indexVec) int {
	plane := f.plane
	base := f.base[:f.nf]
	row := idx[:f.nf]
	sum := 0
	for i := range base {
		sum += int(plane[base[i]+uint32(row[i])])
	}
	return sum
}

// observe reports a training example to OnTrainEvent.
//
//ppflint:hotpath
func (f *Filter) observe(idx *indexVec, outcome int) {
	if f.OnTrainEvent == nil {
		return
	}
	if cap(f.trainBuf) < len(f.features) {
		f.trainBuf = make([]int8, len(f.features)) //ppflint:allow hotpath amortized: grows once, only when a training observer is attached
	}
	buf := f.trainBuf[:f.nf]
	for i := range buf {
		buf[i] = f.plane[f.base[i]+uint32(idx[i])]
	}
	f.OnTrainEvent(buf, outcome)
}

// adjust applies one perceptron learning step in the given direction
// (+1 strengthen / -1 weaken), saturating each 5-bit weight.
//
//ppflint:hotpath
func (f *Filter) adjust(in *FeatureInput, dir int) {
	f.ensureScratch(in)
	f.adjustBatch(&f.scratchIdx, dir)
}

// adjustBatch applies one learning step to the whole feature batch a
// precomputed index row selects — nine saturating read-modify-writes on
// the flat plane.
//
//ppflint:hotpath
func (f *Filter) adjustBatch(idx *indexVec, dir int) {
	plane := f.plane
	base := f.base[:f.nf]
	row := idx[:f.nf]
	for i := range base {
		j := base[i] + uint32(row[i])
		plane[j] = satAdd(plane[j], dir)
	}
}

// satAdd adds delta to a weight, saturating at the 5-bit rails instead
// of wrapping (paper §3.1 "Training"). Every weight-table store must
// go through this helper — the saturation analyzer enforces it.
//
//ppflint:saturating
//ppflint:hotpath
func satAdd(w int8, delta int) int8 {
	v := int(w) + delta
	if v > WeightMax {
		return WeightMax
	}
	if v < WeightMin {
		return WeightMin
	}
	return int8(v)
}

// recordIndex computes the direct-mapped slot and tag for a block address.
//
//ppflint:hotpath
func recordIndex(addr uint64) (idx int, tag uint16) {
	block := addr >> 6
	idx = int(block & (recordTableEntries - 1))
	tag = uint16((block >> recordIndexBits) & ((1 << recordTagBits) - 1))
	return idx, tag
}

// Decide scores one candidate against the two thresholds (paper Figure 5
// step 1: inferencing). It does not record the candidate or count it as
// issued; callers follow up with RecordIssue, RecordReject, or
// RecordSquashed once the prefetch's fate is known, so that candidates
// squashed elsewhere (duplicate blocks, full MSHRs) neither thrash the
// training tables nor inflate the issue counters.
//
//ppflint:hotpath
func (f *Filter) Decide(in *FeatureInput) Decision {
	f.scratchFor = *in
	f.computeScratch()
	sum := f.sumIndexed(&f.scratchIdx)
	f.stats.Inferences++
	if (sum >= f.cfg.TauHi-BoundaryMargin && sum <= f.cfg.TauHi+BoundaryMargin) ||
		(sum >= f.cfg.TauLo-BoundaryMargin && sum <= f.cfg.TauLo+BoundaryMargin) {
		f.stats.Boundary++
	}
	switch {
	case sum >= f.cfg.TauHi:
		return FillL2
	case sum >= f.cfg.TauLo:
		return FillLLC
	default:
		f.stats.Dropped++
		return Drop
	}
}

// RecordIssue logs an issued prefetch in the Prefetch Table (paper Figure
// 5 step 2) and counts it against the decision d actually carried out
// (FillL2 or FillLLC) — issue accounting lives here, not in Decide, so
// squashed prefetches are never counted as issued. The paper's negative
// signal is the eviction of an unused prefetched block; at this
// simulator's scaled-down run lengths those evictions can arrive after
// the table entry is gone, so an entry that survived at least one full
// table generation (1,024 issues) without a demand hit is treated as the
// same signal when overwritten. Entries that churn faster are simply
// lost, so useful long-lead prefetches are not punished.
//
//ppflint:hotpath
func (f *Filter) RecordIssue(in *FeatureInput, d Decision) {
	f.ensureScratch(in)
	switch d {
	case FillL2:
		f.stats.IssuedL2++
	case FillLLC:
		f.stats.IssuedLLC++
	}
	f.issueSeq++
	idx, tag := recordIndex(in.Addr)
	if e := &f.prefetchTable[idx]; e.valid && e.issued() && !e.useful &&
		f.issueSeq-e.seq >= recordTableEntries {
		f.stats.EvictUnused++
		f.observe(&e.idx, -1)
		if f.sumIndexed(&e.idx) > f.cfg.ThetaN {
			f.adjustBatch(&e.idx, -1)
			f.stats.TrainNegative++
		}
	}
	f.prefetchTable[idx] = recordEntry{valid: true, tag: tag, decision: d, seq: f.issueSeq, idx: f.scratchIdx}
}

// RecordSquashed accounts a candidate the filter accepted but the cache
// squashed before issue (full MSHRs or an in-flight duplicate). The
// candidate is not inserted into the Prefetch Table — it never became a
// prefetch — and counts toward Squashed rather than IssuedL2/IssuedLLC.
//
//ppflint:hotpath
func (f *Filter) RecordSquashed() {
	f.stats.Squashed++
}

// RecordReject logs a filtered-out candidate in the Reject Table so a
// later demand to the block can correct the false negative.
//
//ppflint:hotpath
func (f *Filter) RecordReject(in *FeatureInput) {
	f.ensureScratch(in)
	idx, tag := recordIndex(in.Addr)
	f.rejectTable[idx] = recordEntry{valid: true, tag: tag, idx: f.scratchIdx}
}

// Filter is the one-shot convenience path: decide and record in one call.
//
//ppflint:hotpath
func (f *Filter) Filter(in *FeatureInput) Decision {
	d := f.Decide(in)
	if d == Drop {
		f.RecordReject(in)
	} else {
		f.RecordIssue(in, d)
	}
	return d
}

// OnDemand trains the filter from a demand access to the L2 (paper Figure
// 5 steps 3 and 4): a prefetch-table hit confirms a useful prefetch
// (positive training toward ThetaP); a reject-table hit is a false
// negative the filter must unlearn (positive training).
//
// Call before triggering the prefetcher for the same access so the
// training uses the pre-trigger table state.
//
//ppflint:hotpath
func (f *Filter) OnDemand(addr uint64) {
	idx, tag := recordIndex(addr)
	if e := &f.prefetchTable[idx]; e.valid && e.tag == tag {
		if !e.useful {
			e.useful = true
			f.stats.UsefulIssued++
			f.observe(&e.idx, +1)
		}
		if f.sumIndexed(&e.idx) < f.cfg.ThetaP {
			f.adjustBatch(&e.idx, +1)
			f.stats.TrainPositive++
		}
	}
	if e := &f.rejectTable[idx]; e.valid && e.tag == tag {
		f.stats.FalseNegatives++
		f.observe(&e.idx, +1)
		if f.sumIndexed(&e.idx) < f.cfg.ThetaP {
			f.adjustBatch(&e.idx, +1)
			f.stats.TrainPositive++
		}
		e.valid = false
	}
}

// OnEvict trains the filter when the L2 evicts a block (paper §3.1
// "Training"): if the evicted block was brought in by a prefetch that was
// never used, the filter mispredicted and the weights are pushed negative.
//
//ppflint:hotpath
func (f *Filter) OnEvict(addr uint64, used bool) {
	idx, tag := recordIndex(addr)
	e := &f.prefetchTable[idx]
	if !e.valid || e.tag != tag {
		return
	}
	if !used && !e.useful {
		f.stats.EvictUnused++
		f.observe(&e.idx, -1)
		if f.sumIndexed(&e.idx) > f.cfg.ThetaN {
			f.adjustBatch(&e.idx, -1)
			f.stats.TrainNegative++
		}
	}
	e.valid = false
}
