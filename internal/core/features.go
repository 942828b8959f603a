// Package core implements Perceptron-based Prefetch Filtering (PPF), the
// primary contribution of Bhatia et al., ISCA 2019. PPF sits between a
// prefetcher and the prefetch insertion queue: every candidate prefetch is
// scored by a hashed-perceptron over nine features; the score is
// thresholded twice to choose "fill L2", "fill LLC" or "reject"; issued
// and rejected candidates are logged in a Prefetch Table and a Reject
// Table so that subsequent demand accesses and evictions can train the
// perceptron weights online.
package core

// pcHistDepth is the depth of the load-PC history feeding the PCPath
// feature: three tracker registers in the paper's Table 3. The storage
// accounting multiplies this same constant, so the modeled register
// file and its budget cannot drift apart.
const pcHistDepth = 3

// PCHistory is the load-PC history register file feeding the PCPath
// feature. The alias lets facades outside core (internal/engine,
// internal/sim) name the array type without duplicating its depth.
type PCHistory = [pcHistDepth]uint64

// FeatureInput carries everything a feature index function may consume:
// the candidate address, the triggering demand access context, the last
// three load PCs, and the metadata exported by the underlying prefetcher
// (paper §3.2 "Using Metadata from the Prefetcher").
type FeatureInput struct {
	// Addr is the candidate prefetch block address (byte address).
	Addr uint64
	// PC is the program counter of the demand load that triggered the
	// prefetch chain.
	PC uint64
	// PCHist holds the three most recent load PCs before the trigger.
	PCHist PCHistory
	// Depth is the lookahead depth of the candidate (1 = direct).
	Depth int
	// Signature is the SPP signature current when the candidate was
	// produced.
	Signature uint16
	// Confidence is the prefetcher's internal 0–100 confidence.
	Confidence int
	// Delta is the predicted block delta.
	Delta int
}

// FeatureSpec describes one perceptron feature: its display name, weight
// table size, and the built-in index computation. The filter folds the
// raw value onto the table with a mixing hash, so a kind may produce any
// width.
type FeatureSpec struct {
	// Name identifies the feature in reports and figures.
	Name string
	// TableSize is the number of weights dedicated to the feature; the
	// paper sizes tables by observed feature importance (Table 3:
	// 4×4096, 2×2048, 2×1024, 1×128). Must be a power of two: the
	// filter folds hashes onto tables with a mask, matching the
	// indexed-by-low-bits hardware the hwbudget analyzer audits.
	TableSize int
	// Kind names the feature's index computation.
	Kind FeatureKind
}

// FeatureKind enumerates the feature index computations: the paper's
// §5.5 pool of 23 candidates, each a fixed hash of the trigger's
// metadata (Table 3). featureRaw is the one definition of each, and
// TestFeatureRawGolden pins every formula. The zero value names no
// feature; New rejects it and anything past KindLineXorDepth.
type FeatureKind uint8

// Built-in feature kinds, one per spec in the candidate pool.
const (
	KindCacheLine FeatureKind = iota + 1
	KindPageAddr
	KindPhysAddr
	KindConfXorPage
	KindPCPath
	KindSigXorDelta
	KindPCXorDepth
	KindPCXorDelta
	KindConfidence
	KindLastSignature
	KindDepthOnly
	KindDeltaOnly
	KindPCOnly
	KindPageOffset
	KindAddrFold
	KindConfXorDepth
	KindSigXorPage
	KindSigXorDepth
	KindPCXorPage
	KindPCXorLine
	KindPCPath2
	KindConfXorDelta
	KindLineXorDepth
)

// featureRaw computes the raw feature value for a kind.
//
//ppflint:hotpath
func featureRaw(k FeatureKind, in *FeatureInput) uint64 {
	switch k {
	case KindCacheLine:
		return in.Addr >> 6
	case KindPageAddr:
		return in.Addr >> 12
	case KindPhysAddr:
		return in.Addr >> 2
	case KindConfXorPage:
		return uint64(in.Confidence) ^ in.Addr>>12
	case KindPCPath:
		return in.PCHist[0] ^ in.PCHist[1]>>1 ^ in.PCHist[2]>>2
	case KindSigXorDelta:
		return uint64(in.Signature) ^ deltaCode(in.Delta)
	case KindPCXorDepth:
		return in.PC ^ uint64(in.Depth)<<5
	case KindPCXorDelta:
		return in.PC ^ deltaCode(in.Delta)<<3
	case KindConfidence:
		return uint64(in.Confidence)
	case KindLastSignature:
		return uint64(in.Signature)
	case KindDepthOnly:
		return uint64(in.Depth)
	case KindDeltaOnly:
		return deltaCode(in.Delta)
	case KindPCOnly:
		return in.PC
	case KindPageOffset:
		return in.Addr >> 6 & 63
	case KindAddrFold:
		blk := in.Addr >> 6
		return blk ^ blk>>16
	case KindConfXorDepth:
		return uint64(in.Confidence) ^ uint64(in.Depth)<<7
	case KindSigXorPage:
		return uint64(in.Signature) ^ in.Addr>>12
	case KindSigXorDepth:
		return uint64(in.Signature) ^ uint64(in.Depth)<<9
	case KindPCXorPage:
		return in.PC ^ in.Addr>>12
	case KindPCXorLine:
		return in.PC ^ in.Addr>>6
	case KindPCPath2:
		return in.PCHist[0] ^ in.PCHist[1]>>1
	case KindConfXorDelta:
		return uint64(in.Confidence) ^ deltaCode(in.Delta)<<5
	case KindLineXorDepth:
		return in.Addr>>6 ^ uint64(in.Depth)<<10
	default:
		// Unreachable: New rejects kinds outside the enumeration.
		return 0
	}
}

// computeRow fills one index row: every feature's weight-table index
// for in. The default nine-feature set takes computeRowDefault's
// straight-line path; other sets dispatch per feature on featureRaw.
//
//ppflint:hotpath
func (f *Filter) computeRow(in *FeatureInput, row *indexVec) {
	if f.defaultSet {
		computeRowDefault(in, row)
		return
	}
	kinds := f.kinds[:f.nf]
	for i := range kinds {
		row[i] = uint16(mix(featureRaw(kinds[i], in)) & uint64(f.fmask[i]))
	}
}

// computeRowDefault is computeRow specialized to the paper's final
// nine-feature set (DefaultFeatures order): no dispatch, no loads of
// per-feature geometry, constant masks. Each line repeats its kind's
// featureRaw case exactly; isDefaultSet gates entry on the exact kind
// and table-size sequence this function hard-codes, and
// TestFilterPropertyInvariants checks its sums against indexFor.
//
//ppflint:hotpath
func computeRowDefault(in *FeatureInput, row *indexVec) {
	line := in.Addr >> 6
	page := in.Addr >> 12
	conf := uint64(in.Confidence)
	dc := deltaCode(in.Delta)
	row[0] = uint16(mix(line) & (tableLarge - 1))
	row[1] = uint16(mix(page) & (tableLarge - 1))
	row[2] = uint16(mix(in.Addr>>2) & (tableLarge - 1))
	row[3] = uint16(mix(conf^page) & (tableLarge - 1))
	row[4] = uint16(mix(in.PCHist[0]^in.PCHist[1]>>1^in.PCHist[2]>>2) & (tableMedium - 1))
	row[5] = uint16(mix(uint64(in.Signature)^dc) & (tableMedium - 1))
	row[6] = uint16(mix(in.PC^uint64(in.Depth)<<5) & (tableSmall - 1))
	row[7] = uint16(mix(in.PC^dc<<3) & (tableSmall - 1))
	row[8] = uint16(mix(conf) & (tableConf - 1))
}

// mix is a 64-bit finaliser (splitmix64) used to fold raw feature values
// onto weight tables without systematic aliasing.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Default feature-table sizes from Table 3.
const (
	tableLarge  = 4096
	tableMedium = 2048
	tableSmall  = 1024
	tableConf   = 128
)

// DefaultFeatures returns the paper's final nine-feature set (§4.2),
// in descending table-size order matching Table 3's 4/2/2/1 split.
func DefaultFeatures() []FeatureSpec {
	return []FeatureSpec{
		{
			// Cache line address: the candidate address shifted by the
			// block size. Highest-importance address view.
			Name:      "CacheLine",
			TableSize: tableLarge,
			Kind:      KindCacheLine,
		},
		{
			// Page address: the candidate address shifted by the page
			// size.
			Name:      "PageAddr",
			TableSize: tableLarge,
			Kind:      KindPageAddr,
		},
		{
			// Lower bits of the physical address of the trigger access.
			Name:      "PhysAddr",
			TableSize: tableLarge,
			Kind:      KindPhysAddr,
		},
		{
			// Confidence XOR Page: the paper's single most correlated
			// feature (Pearson ≈ 0.90) — scores each page's tendency to
			// be prefetch friendly at the current confidence.
			Name:      "ConfXorPage",
			TableSize: tableLarge,
			Kind:      KindConfXorPage,
		},
		{
			// PC1 ^ (PC2>>1) ^ (PC3>>2): the path of load PCs leading to
			// the trigger, blurred with age.
			Name:      "PCPath",
			TableSize: tableMedium,
			Kind:      KindPCPath,
		},
		{
			// Current signature XOR predicted delta: approximately the
			// next signature along the speculative path.
			Name:      "SigXorDelta",
			TableSize: tableMedium,
			Kind:      KindSigXorDelta,
		},
		{
			// PC XOR lookahead depth: resolves the trigger PC into a
			// distinct value per speculation depth.
			Name:      "PCXorDepth",
			TableSize: tableSmall,
			Kind:      KindPCXorDepth,
		},
		{
			// PC XOR delta: whether this PC favours particular deltas.
			Name:      "PCXorDelta",
			TableSize: tableSmall,
			Kind:      KindPCXorDelta,
		},
		{
			// Raw SPP confidence on its 0–100 scale.
			Name:      "Confidence",
			TableSize: tableConf,
			Kind:      KindConfidence,
		},
	}
}

// LastSignatureFeature is the feature the paper *rejected* during its
// selection methodology (Figure 6 shows its trained weights bunching near
// zero). It is provided so the feature-selection experiment can reproduce
// that comparison.
func LastSignatureFeature() FeatureSpec {
	return FeatureSpec{
		Name:      "LastSignature",
		TableSize: tableLarge,
		Kind:      KindLastSignature,
	}
}

// deltaCode maps a signed delta onto a dense non-negative code so that
// positive and negative strides occupy distinct feature values.
func deltaCode(d int) uint64 {
	if d >= 0 {
		return uint64(d) << 1
	}
	return uint64(-d)<<1 | 1
}
