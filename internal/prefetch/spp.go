package prefetch

// Signature Path Prefetcher (Kim et al., MICRO 2016), the lookahead
// prefetcher the PPF paper builds on. Structure sizes follow the paper's
// Table 3: a 256-entry Signature Table, a 512-entry Pattern Table with
// four delta ways, an 8-entry Global History Register for cross-page
// bootstrap, and 10-bit global accuracy counters.
//
// Two operating modes matter for the reproduction:
//
//   - Baseline SPP uses its own throttling: path confidence
//     P_d = α·C_d·P_{d-1} is compared against the prefetch threshold T_p
//     (25) and fill threshold T_f (90).
//   - Under PPF the thresholds are discarded (paper §4.1): SPP is re-tuned
//     aggressive (tiny T_p, deeper lookahead) and every candidate is
//     handed to the perceptron filter, which makes the issue and
//     fill-level decisions instead.
//
// A third mode, forced fixed-depth lookahead, reproduces Figure 1.

const (
	sppSignatureBits = 12
	sppSignatureMask = (1 << sppSignatureBits) - 1
	sppShift         = 3

	sppSTEntries  = 256
	sppPTEntries  = 512
	sppPTWays     = 4
	sppGHREntries = 8

	// Index masks for the pow2 structure geometries: the hot lookups
	// fold with AND instead of a signed modulo (the operands are always
	// non-negative, so mask == mod; the hwbudget analyzer audits the
	// geometry stays pow2).
	sppSTMask  = sppSTEntries - 1
	sppPTMask  = sppPTEntries - 1
	sppGHRMask = sppGHREntries - 1

	sppCSigMax   = 15   // 4-bit signature counter
	sppCDeltaMax = 15   // 4-bit delta counter
	sppCAccMax   = 1023 // 10-bit global accuracy counters

	pageBits      = 12
	blockBits     = 6
	blocksPerPage = 1 << (pageBits - blockBits)
)

// SPPConfig tunes the prefetcher.
type SPPConfig struct {
	// PrefetchThreshold is T_p on a 0–100 scale; candidates whose path
	// confidence falls below it stop the lookahead. The paper's baseline
	// value is 25; the aggressive PPF tuning drops it to ~1.
	PrefetchThreshold int
	// FillThreshold is T_f: candidates at or above it fill the L2,
	// below it the LLC. Baseline value 90. Ignored when the filter owns
	// the fill decision.
	FillThreshold int
	// MaxDepth caps lookahead iterations.
	MaxDepth int
	// MaxCandidates caps candidates per trigger access (models the
	// prefetch queue).
	MaxCandidates int
	// ForcedDepth, when positive, disables confidence throttling and
	// runs the lookahead to exactly this depth (Figure 1's experiment).
	ForcedDepth int
}

// DefaultSPPConfig returns the paper's baseline SPP tuning.
func DefaultSPPConfig() SPPConfig {
	return SPPConfig{
		PrefetchThreshold: 25,
		FillThreshold:     90,
		MaxDepth:          16,
		MaxCandidates:     12,
	}
}

// AggressiveSPPConfig returns the re-tuned SPP used under PPF: thresholds
// effectively removed so the perceptron filter does the rejecting.
func AggressiveSPPConfig() SPPConfig {
	return SPPConfig{
		PrefetchThreshold: 4,
		FillThreshold:     90,
		MaxDepth:          24,
		MaxCandidates:     16,
	}
}

type sppSTEntry struct {
	valid      bool
	tag        uint64
	lastOffset int
	signature  uint16
}

type sppPTEntry struct {
	cSig   int
	deltas [sppPTWays]int
	cDelta [sppPTWays]int
	used   [sppPTWays]bool

	// Derived confidence caches, recomputed by refresh after every
	// train and on snapshot decode (they are Static in snapshots, so
	// the encoding is unchanged). The lookahead inner loop used to pay
	// an integer division per way per depth for cd and a full way scan
	// for the best path; both are now reads. The hot fields are narrow
	// and adjacent so a depth step touches few cache lines, and the
	// path advance (bestDelta/bestEnc) avoids the bestWay->deltas
	// dependent load that serialized the walk.
	//
	//   cd[w]  = min(100, 100*cDelta[w]/cSig)  (used ways; else 0)
	//   bestWay/bestC = first way achieving the max cd, and that cd
	//   bestDelta = deltas[bestWay]
	//   bestEnc   = encodeDelta(bestDelta), ready to XOR into the path
	//               signature
	//   order[:nUsed] lists the used ways in ascending way order, so
	//   the lookahead iterates exactly the live ways instead of
	//   scanning all four with a used-bit check each
	nUsed     uint8
	firstFree uint8 // lowest unused way, sppPTWays when all are used
	order     [sppPTWays]uint8
	cd        [sppPTWays]uint8
	bestWay   int8
	bestC     int16
	bestEnc   uint16
	bestDelta int32
}

// sppCdTab[s][c] = min(100, 100*c/s) for the 4-bit counter ranges, so
// refresh replaces an integer division per used way with a table load.
// Row 0 is unused (refresh requires cSig > 0).
var sppCdTab = func() (t [sppCSigMax + 1][sppCDeltaMax + 1]uint8) {
	for s := 1; s <= sppCSigMax; s++ {
		for c := 0; c <= sppCDeltaMax; c++ {
			cd := 100 * c / s
			if cd > 100 {
				cd = 100
			}
			t[s][c] = uint8(cd)
		}
	}
	return
}()

// refresh recomputes the derived confidence caches. Callers must only
// invoke it on trained entries (cSig > 0): zero-valued entries keep
// their zero derived fields and the lookahead never reads them (it
// stops on cSig == 0 first).
func (e *sppPTEntry) refresh() {
	bestW, bestC := int8(-1), int16(-1)
	n := uint8(0)
	ff := uint8(sppPTWays)
	row := &sppCdTab[e.cSig]
	for w := 0; w < sppPTWays; w++ {
		if !e.used[w] {
			e.cd[w] = 0
			if ff == sppPTWays {
				ff = uint8(w)
			}
			continue
		}
		e.order[n] = uint8(w)
		n++
		cd := int16(row[e.cDelta[w]])
		e.cd[w] = uint8(cd)
		if cd > bestC {
			bestC = cd
			bestW = int8(w)
		}
	}
	e.nUsed = n
	e.firstFree = ff
	e.bestWay, e.bestC = bestW, bestC
	if bestW >= 0 {
		d := e.deltas[bestW]
		e.bestDelta = int32(d)
		e.bestEnc = uint16(encodeDelta(d))
	} else {
		e.bestDelta, e.bestEnc = 0, 0
	}
}

type sppGHREntry struct {
	valid      bool
	signature  uint16
	confidence int
	lastOffset int
	delta      int
}

// SPP implements Prefetcher.
type SPP struct {
	cfg SPPConfig

	st  [sppSTEntries]sppSTEntry
	pt  [sppPTEntries]sppPTEntry
	ghr [sppGHREntries]sppGHREntry

	cTotal  int // prefetches issued (10-bit, halved on saturation)
	cUseful int // prefetches that saw a demand hit

	// Depth accounting for the paper's §6.1 average-lookahead-depth
	// comparison (PPF 3.97 vs SPP 3.28).
	depthSum   uint64
	depthCount uint64

	// issued counts the candidates the lookahead walk produced (path
	// confidence over the threshold, target on the page), whether or not
	// the sink then accepted them. Issued reports it.
	issued uint64

	// burst/acc stage candidates for the batch emit path: lookahead
	// fills burst up to the current chunk capacity, hands both slices
	// to the sink, then applies the acceptance feedback. Sized to
	// MaxCandidates at construction — chunk capacity never exceeds the
	// per-trigger accept cap — and reused across triggers.
	burst []Candidate
	acc   []bool
}

// NewSPP constructs an SPP instance with the given tuning.
func NewSPP(cfg SPPConfig) *SPP {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = 8
	}
	return &SPP{
		cfg:   cfg,
		burst: make([]Candidate, cfg.MaxCandidates),
		acc:   make([]bool, cfg.MaxCandidates),
	}
}

// Name implements Prefetcher.
func (s *SPP) Name() string { return "spp" }

// Reset implements Prefetcher. Reassigning from NewSPP keeps the
// staging-buffer invariants (len == MaxCandidates) a field-wise clear
// could silently break.
func (s *SPP) Reset() {
	*s = *NewSPP(s.cfg)
}

// Config returns the active tuning.
func (s *SPP) Config() SPPConfig { return s.cfg }

// AverageDepth reports the mean lookahead depth across issued candidates.
func (s *SPP) AverageDepth() float64 {
	if s.depthCount == 0 {
		return 0
	}
	return float64(s.depthSum) / float64(s.depthCount)
}

// Issued reports the number of candidates emitted.
func (s *SPP) Issued() uint64 { return s.issued }

// alphaFloor keeps the global accuracy estimate from freezing prefetching
// off entirely: once alpha gates every candidate, no fills happen and the
// counters would never move again. A small floor lets SPP keep probing.
const alphaFloor = 0.10

// alpha returns the global accuracy estimate in [alphaFloor, 1].
func (s *SPP) alpha() float64 {
	if s.cTotal == 0 {
		return 1 // optimistic start, as in the reference implementation
	}
	a := float64(s.cUseful) / float64(s.cTotal)
	if a > 1 {
		a = 1
	}
	if a < alphaFloor {
		a = alphaFloor
	}
	return a
}

// OnPrefetchUseful implements Prefetcher.
func (s *SPP) OnPrefetchUseful(uint64) {
	s.cUseful++
	if s.cUseful >= sppCAccMax {
		s.cUseful /= 2
		s.cTotal /= 2
	}
}

// OnPrefetchFill implements Prefetcher.
func (s *SPP) OnPrefetchFill(uint64) {
	s.cTotal++
	if s.cTotal >= sppCAccMax {
		s.cUseful /= 2
		s.cTotal /= 2
	}
}

// updateSignature compresses delta into sig per the paper:
// NewSignature = (OldSignature << 3) XOR Delta, in a 12-bit space. Deltas
// are encoded sign-and-magnitude in 7 bits so negative strides perturb
// different bits than positive ones.
func updateSignature(sig uint16, delta int) uint16 {
	return (sig<<sppShift ^ uint16(encodeDelta(delta))) & sppSignatureMask
}

// encodeDelta maps a signed block delta onto a 7-bit code.
func encodeDelta(delta int) int {
	if delta >= 0 {
		return delta & 0x3F
	}
	return (-delta)&0x3F | 0x40
}

// ptIndex maps a signature onto a Pattern Table set. sig is unsigned
// and sppPTEntries is a power of two, so the mask is the modulo.
func ptIndex(sig uint16) int { return int(sig) & sppPTMask }

// train records the observed delta for the signature that predicted it.
func (s *SPP) train(sig uint16, delta int) {
	e := &s.pt[ptIndex(sig)]
	e.cSig++
	// Match scan over the precomputed used set (order is ascending, so
	// the first match here is the first match of a full way scan). The
	// victim for a miss is the lowest unused way when one exists —
	// maintained as firstFree, and correctly zero for never-refreshed
	// entries — else the first way with the minimum delta counter,
	// exactly the way the original used/cDelta scan broke ties.
	way := -1
	for wi := 0; wi < int(e.nUsed); wi++ {
		if w := int(e.order[wi]); e.deltas[w] == delta {
			way = w
			break
		}
	}
	if way < 0 {
		if ff := int(e.firstFree); ff < sppPTWays {
			way = ff
		} else {
			minC := 1 << 30
			for w := 0; w < sppPTWays; w++ {
				if c := e.cDelta[w]; c < minC {
					minC = c
					way = w
				}
			}
		}
		e.deltas[way] = delta
		e.cDelta[way] = 0
		e.used[way] = true
	}
	e.cDelta[way]++
	if e.cSig > sppCSigMax || e.cDelta[way] > sppCDeltaMax {
		e.cSig = (e.cSig + 1) / 2
		for w := 0; w < sppPTWays; w++ {
			e.cDelta[w] = (e.cDelta[w] + 1) / 2
		}
	}
	e.refresh()
}

// ghrLookup bootstraps a new page's signature from a recent page-crossing
// pattern, per the SPP paper's Global History Register.
func (s *SPP) ghrLookup(offset int) (uint16, bool) {
	for i := range s.ghr {
		g := &s.ghr[i]
		if !g.valid {
			continue
		}
		// lastOffset is in [0, blocksPerPage) and |delta| < blocksPerPage,
		// so the biased operand is non-negative and the pow2 mask equals
		// the modulo the signed % used to compute.
		if (g.lastOffset+g.delta+blocksPerPage)&(blocksPerPage-1) == offset {
			return updateSignature(g.signature, g.delta), true
		}
	}
	return 0, false
}

// ghrInsert records a pattern that ran off the end of its page.
func (s *SPP) ghrInsert(sig uint16, conf, lastOffset, delta int) {
	idx := int(sig) & sppGHRMask
	s.ghr[idx] = sppGHREntry{valid: true, signature: sig, confidence: conf, lastOffset: lastOffset, delta: delta}
}

// OnDemand implements Prefetcher: the scalar emit path is the batch
// path with a per-candidate adapter sink, so there is exactly one
// lookahead implementation to keep bit-exact.
func (s *SPP) OnDemand(a Access, emit Emit) {
	s.OnDemandBatch(a, func(cands []Candidate, accepted []bool) {
		for i := range cands {
			accepted[i] = emit(cands[i])
		}
	})
}

// OnDemandBatch implements BatchProducer: update the tables for the
// access, then run the lookahead loop emitting candidate bursts.
func (s *SPP) OnDemandBatch(a Access, sink BatchSink) {
	page := a.Addr >> pageBits
	offset := int(a.Addr>>blockBits) & (blocksPerPage - 1)
	sti := int(page) & sppSTMask
	st := &s.st[sti]

	var sig uint16
	if st.valid && st.tag == page {
		delta := offset - st.lastOffset
		if delta == 0 {
			return // same block re-reference: nothing to learn or predict
		}
		s.train(st.signature, delta)
		sig = updateSignature(st.signature, delta)
		st.signature = sig
		st.lastOffset = offset
	} else {
		// New page (or conflict): bootstrap from the GHR if a recent
		// page-crossing stream predicts this offset.
		if bsig, ok := s.ghrLookup(offset); ok {
			sig = bsig
		} else {
			sig = updateSignature(0, offset)
		}
		*st = sppSTEntry{valid: true, tag: page, lastOffset: offset, signature: sig}
	}

	s.lookahead(page, offset, sig, sink)
}

// Lookahead runs the speculative candidate walk for the access's
// current signature-table state without advancing it: no training, no
// signature update, no entry allocation. It is a probe of what SPP
// would produce for the access right now — the spp_lookahead_only
// kernel uses it to attribute trigger cost between table maintenance
// and the walk itself. An access whose page has no signature-table
// entry produces nothing. The walk still counts issued/depth
// accounting and may insert GHR entries, exactly as the full trigger
// path would.
func (s *SPP) Lookahead(a Access, sink BatchSink) {
	page := a.Addr >> pageBits
	offset := int(a.Addr>>blockBits) & (blocksPerPage - 1)
	st := &s.st[int(page)&sppSTMask]
	if !st.valid || st.tag != page {
		return
	}
	s.lookahead(page, offset, st.signature, sink)
}

// flushBurst hands the staged burst to the sink and applies the
// acceptance feedback exactly as the scalar path did per candidate, in
// candidate order. dsum is the sum of the staged candidates' depths,
// accumulated at stage time so the common all-accepted burst skips
// re-reading the burst for depth accounting. Returns the number of
// acceptances.
func (s *SPP) flushBurst(nb, dsum int, sink BatchSink) int {
	acc := s.acc[:nb]
	for i := range acc {
		acc[i] = false
	}
	sink(s.burst[:nb], acc)
	accepted := 0
	for i := 0; i < nb; i++ {
		if acc[i] {
			accepted++
		}
	}
	switch {
	case accepted == nb:
		s.depthSum += uint64(dsum)
	case accepted > 0:
		d := uint64(0)
		for i := 0; i < nb; i++ {
			if acc[i] {
				d += uint64(s.burst[i].Meta.Depth)
			}
		}
		s.depthSum += d
	}
	s.depthCount += uint64(accepted)
	return accepted
}

// lookahead walks the pattern table speculatively from (page, offset, sig)
// emitting prefetch candidate bursts until confidence or depth runs out.
//
// Burst staging is bit-identical to per-candidate emission: candidate
// production depends only on table state and path confidence — never on
// acceptance feedback — except through the two per-trigger caps
// (MaxCandidates acceptances, 4x that produced). Each burst is capped
// at min(remaining acceptances, remaining production), so a cap can
// only bind exactly at a burst boundary: the sequential path could not
// have stopped mid-burst, and the post-flush cap check stops exactly
// where it would have. Note alpha is hoisted once per trigger (as it
// always was), so sink side effects on the accuracy counters —
// OnPrefetchFill during a fill — cannot perturb this trigger's
// confidence arithmetic.
func (s *SPP) lookahead(page uint64, offset int, sig uint16, sink BatchSink) {
	alpha := s.alpha()
	pathConf := 100.0
	curOffset := offset
	curSig := sig
	emitted := 0
	produced := 0
	// Bound total candidate production per trigger: accepted fills are
	// capped at MaxCandidates, and streams of rejected/duplicate
	// suggestions stop at 4x that (the prefetch queue is finite).
	maxCand := s.cfg.MaxCandidates
	maxProduced := 4 * maxCand
	prefThresh := s.cfg.PrefetchThreshold
	fillThresh := s.cfg.FillThreshold
	forced := s.cfg.ForcedDepth
	// α == 1 exactly (optimistic start, or a fully accurate stream) makes
	// every α scale an exact identity — int(float64(conf)*1.0) == conf and
	// pathConf*1.0 == pathConf for the finite values here — so the whole
	// convert-multiply-convert chain can be skipped bit-identically.
	scaleAlpha := alpha != 1
	// Forced-depth mode issues regardless of confidence; folding that
	// into the threshold keeps `forced` out of the way loop (conf is
	// always >= 0, so every candidate clears the sentinel).
	issueThresh := prefThresh
	if forced > 0 {
		issueThresh = -1 << 62
	}

	nb := 0
	dsum := 0           // staged depth sum, for flushBurst's all-accepted fast path
	burstCap := maxCand // == min(maxCand-emitted, maxProduced-produced) here
	stop := false
	// Hoisted like the staging buffer below: the sink call makes the
	// compiler reload any s field on every iteration otherwise.
	maxDepth := s.cfg.MaxDepth
	// Hoist the staging buffer: nothing reassigns s.burst during a
	// lookahead, but the compiler cannot prove that across the sink
	// call and would reload the field (and re-check bounds) per store.
	burst := s.burst
	pageBase := page << pageBits

	for depth := 1; !stop && depth <= maxDepth; depth++ {
		e := &s.pt[int(curSig)&sppPTMask]
		if e.cSig == 0 {
			break
		}
		// Range over the used-way list with the way index masked into
		// the provable [0, sppPTWays) range: both kill per-way bounds
		// checks (order values are always < sppPTWays, so the mask is
		// an identity).
		for _, w8 := range e.order[:e.nUsed] {
			w := int(w8 & (sppPTWays - 1))
			// P_d = α·C_d·P_{d-1} (paper §2.1). As in the reference
			// implementation, α scales speculative depths only: the
			// depth-1 candidate is a direct (non-speculative) prediction.
			// C_d's clamped ratio is precomputed at train time (e.cd).
			var conf int
			if pathConf == 100 {
				// Exact fast path that skips the FP divide: cd is an
				// integer in [0,100], so 100*cd is exact, /100 is exact,
				// and int() recovers cd bit-for-bit. Always taken at
				// depth 1 and along saturated-confidence paths.
				conf = int(e.cd[w])
			} else {
				conf = int(pathConf * float64(e.cd[w]) / 100)
			}
			if depth > 1 && scaleAlpha {
				conf = int(float64(conf) * alpha)
			}
			if conf >= issueThresh {
				delta := e.deltas[w]
				target := curOffset + delta
				if target >= 0 && target < blocksPerPage {
					produced++
					// Field-wise stores: a Candidate{...} literal here makes
					// the compiler build a stack temp with 8-byte stores and
					// copy it with 16-byte SSE loads, and those wide loads
					// straddle the narrow stores (store-forwarding stalls
					// that dominated the trigger profile).
					c := &burst[nb]
					c.Addr = pageBase | uint64(target)<<blockBits
					c.FillL2 = conf >= fillThresh
					c.Meta.Depth = depth
					c.Meta.Signature = curSig
					c.Meta.Confidence = conf
					c.Meta.Delta = delta
					dsum += depth
					nb++
					if nb == burstCap {
						emitted += s.flushBurst(nb, dsum, sink)
						nb, dsum = 0, 0
						if emitted >= maxCand || produced >= maxProduced {
							s.issued += uint64(produced)
							return
						}
						burstCap = maxCand - emitted
						if r := maxProduced - produced; r < burstCap {
							burstCap = r
						}
					}
				} else {
					// Ran off the page: remember the stream so the next
					// page can bootstrap.
					s.ghrInsert(curSig, conf, curOffset, delta)
				}
			}
		}
		if e.bestWay < 0 {
			break
		}
		// Follow the highest-confidence delta down the speculative path
		// (argmax, its delta, and its encoded form all precomputed at
		// train time — the walk's serial dependence per depth is just
		// entry load -> bestEnc -> next signature).
		nextOffset := curOffset + int(e.bestDelta)
		if nextOffset < 0 || nextOffset >= blocksPerPage {
			break
		}
		nextSig := (curSig<<sppShift ^ e.bestEnc) & sppSignatureMask
		if pathConf != 100 || e.bestC != 100 {
			pathConf = pathConf * float64(e.bestC) / 100
		}
		// else 100*100/100 == 100 exactly: skip the loop-carried divide.
		if scaleAlpha {
			pathConf *= alpha // α applies from depth 1 on: every followed hop is speculative
		}
		if forced > 0 {
			if depth >= forced {
				stop = true
			}
		} else if int(pathConf) < prefThresh {
			stop = true
		}
		curOffset = nextOffset
		curSig = nextSig
	}
	if nb > 0 {
		s.flushBurst(nb, dsum, sink)
	}
	// issued counts produced candidates one-for-one; a single add at the
	// exits replaces a per-candidate memory increment.
	s.issued += uint64(produced)
}

// SPPStorageBits returns the storage budget of the SPP structures per the
// paper's Table 3 accounting: Signature Table 11,008 bits (256 x 43-bit
// entries: valid, 16-bit tag, last offset, signature, LRU, 2 spare bits
// the paper's entry layout carries), Pattern Table 24,576 bits, GHR 264
// bits, and two 10-bit accuracy counters.
func SPPStorageBits() int {
	st := sppSTEntries * 43
	pt := sppPTEntries * (4 + sppPTWays*4 + sppPTWays*7) // Csig + Cdelta×4 + delta×4
	ghr := sppGHREntries * (sppSignatureBits + 8 + 6 + 7)
	acc := 10 + 10
	return st + pt + ghr + acc
}
