package core

// Burst-at-a-time decision kernel. Hardware evaluates all nine feature
// tables in one cycle; the software analogue is deciding a whole
// candidate burst per call so the index hashing, the flat-plane weight
// loads and the threshold logic amortize across candidates instead of
// paying full call and dispatch overhead each. The burst kernel is
// bit-identical to its scalar counterpart by construction — index
// rows are pure functions of the inputs (never of the weights), so
// precomputing the index matrix up front and then applying the
// decide/record sequence in order reproduces the scalar interleaving
// exactly. TestFilterBatchMatchesSequential pins this.

// batchChunk is the height of the filter-resident index matrix: bursts
// longer than this are processed in chunks so the scratch stays a small
// fixed-size array (16 rows x 64 bytes) instead of scaling with the
// caller's burst, which for the served path can be thousands of events.
const batchChunk = 16

// BatchChunk exposes the burst-chunk height for consumers sizing their
// staging buffers to the kernel's natural stride.
const BatchChunk = batchChunk

// computeRow fills one index-matrix row: every feature's weight-table
// index for in. The default nine-feature set takes a straight-line
// unrolled path with compile-time-constant masks; other sets dispatch
// per feature on the devirtualized kind switch, falling back to the
// Index closure only for KindCustom specs.
//
//ppflint:hotpath
func (f *Filter) computeRow(in *FeatureInput, row *indexVec) {
	if f.defaultSet {
		computeRowDefault(in, row)
		return
	}
	kinds := f.kinds[:f.nf]
	for i := range kinds {
		var raw uint64
		if k := kinds[i]; k != KindCustom {
			raw = featureRaw(k, in)
		} else {
			raw = f.features[i].Index(in)
		}
		row[i] = uint16(mix(raw) & uint64(f.fmask[i]))
	}
}

// computeRowDefault is computeRow specialized to the paper's final
// nine-feature set (DefaultFeatures order): no dispatch, no loads of
// per-feature geometry, constant masks. Each line mirrors the
// corresponding Index closure exactly; isDefaultSet gates entry on the
// exact kind and table-size sequence this function hard-codes.
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

// FilterBatch is the one-shot burst path: decide and record every
// candidate, bit-identical to calling Filter once per input in order.
// The index matrix is computed up front per chunk — index rows depend
// only on the inputs, never on the weights — and the decide+record
// sequence then runs in input order, so each candidate's sum sees
// exactly the weight state the scalar interleaving would produce
// (records may train via the evict-unused overwrite path).
//
//ppflint:hotpath
func (f *Filter) FilterBatch(ins []FeatureInput, out []Decision) {
	for len(ins) > 0 {
		n := len(ins)
		if n > batchChunk {
			n = batchChunk
		}
		for j := 0; j < n; j++ {
			f.computeRow(&ins[j], &f.mat[j])
		}
		for j := 0; j < n; j++ {
			row := &f.mat[j]
			d := f.decideSum(f.sumIndexed(row))
			if d == Drop {
				f.recordRejectRow(ins[j].Addr, row)
			} else {
				f.recordIssueRow(ins[j].Addr, d, row)
			}
			out[j] = d
		}
		f.scratchFor = ins[n-1]
		f.scratchIdx = f.mat[n-1]
		f.scratchValid = true
		ins = ins[n:]
		out = out[n:]
	}
}
