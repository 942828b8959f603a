package core

// The paper's feature-selection methodology (§5.5) started from 23
// candidate features, studied their global and per-trace Pearson factors
// and their 23x23 cross-correlation matrix, and pruned to the final nine.
// This file defines the candidate pool so the selection experiment can
// reproduce that procedure end to end.

// CandidateFeatures returns the full exploration pool: the paper's nine
// final features plus fourteen plausible-but-redundant-or-weak candidates
// of the kinds the paper describes discarding (alternate address folds,
// un-hashed primary features, and further XOR composites).
func CandidateFeatures() []FeatureSpec {
	extra := []FeatureSpec{
		LastSignatureFeature(),
		{
			// Raw lookahead depth: weak alone (all shallow prefetches
			// alias together); PC⊕Depth supersedes it.
			Name:      "DepthOnly",
			TableSize: 128,
			Kind:      KindDepthOnly,
		},
		{
			// Raw delta: captured better by PC⊕Delta and Sig⊕Delta.
			Name:      "DeltaOnly",
			TableSize: 256,
			Kind:      KindDeltaOnly,
		},
		{
			// Trigger PC alone: the paper notes it is a poor basis for a
			// lookahead prefetcher since all depths alias to one PC.
			Name:      "PCOnly",
			TableSize: tableMedium,
			Kind:      KindPCOnly,
		},
		{
			// Block offset within the page: subsumed by CacheLine.
			Name:      "PageOffset",
			TableSize: 64,
			Kind:      KindPageOffset,
		},
		{
			// Folded address: the paper argues shifted views beat folding
			// ("can also eliminate destructive interference ... caused by
			// directly folding the address bits into half").
			Name:      "AddrFold",
			TableSize: tableLarge,
			Kind:      KindAddrFold,
		},
		{
			// Confidence XOR depth: correlated with both parents.
			Name:      "ConfXorDepth",
			TableSize: tableSmall,
			Kind:      KindConfXorDepth,
		},
		{
			// Signature XOR page: another page-centric composite.
			Name:      "SigXorPage",
			TableSize: tableMedium,
			Kind:      KindSigXorPage,
		},
		{
			// Signature XOR depth.
			Name:      "SigXorDepth",
			TableSize: tableMedium,
			Kind:      KindSigXorDepth,
		},
		{
			// PC XOR page address.
			Name:      "PCXorPage",
			TableSize: tableMedium,
			Kind:      KindPCXorPage,
		},
		{
			// PC XOR cache line.
			Name:      "PCXorLine",
			TableSize: tableMedium,
			Kind:      KindPCXorLine,
		},
		{
			// Two-deep PC path (shallower variant of PCPath).
			Name:      "PCPath2",
			TableSize: tableMedium,
			Kind:      KindPCPath2,
		},
		{
			// Confidence XOR delta.
			Name:      "ConfXorDelta",
			TableSize: tableSmall,
			Kind:      KindConfXorDelta,
		},
		{
			// Cache line XOR depth: the line view already dominates.
			Name:      "LineXorDepth",
			TableSize: tableLarge,
			Kind:      KindLineXorDepth,
		},
	}
	return append(DefaultFeatures(), extra...)
}
