package trace

// This file implements the memory-reference pattern components from which
// synthetic workloads are assembled. Each pattern owns a disjoint slice of
// the address space (selected by its segment) so that patterns mixed into
// one workload do not accidentally alias.

import "fmt"

// Geometry constants shared with the rest of the simulator.
const (
	// BlockBits is log2 of the cache block size (64 B blocks).
	BlockBits = 6
	// BlockSize is the cache block size in bytes.
	BlockSize = 1 << BlockBits
	// PageBits is log2 of the page size (4 KB pages).
	PageBits = 12
	// PageSize is the page size in bytes.
	PageSize = 1 << PageBits
	// BlocksPerPage is the number of cache blocks in one page.
	BlocksPerPage = PageSize / BlockSize
)

// pattern produces a stream of data addresses. dep reports whether the
// produced load depends on the previous load from the same pattern
// (pointer chasing), which the core model serialises.
type pattern interface {
	next(r *rng) (addr uint64, dep bool)
}

// segBase returns the base address for address-space segment seg. Segments
// keep each pattern instance in its own region of physical memory.
func segBase(seg int) uint64 { return (uint64(seg) + 1) << 34 }

// SequentialPattern sweeps linearly through a working set one cache block
// at a time, emulating streaming array kernels (603.bwaves_s, 619.lbm_s).
type SequentialPattern struct {
	base uint64
	size uint64 // bytes
	pos  uint64
}

// NewSequentialPattern returns a sequential sweep over sizeBytes of memory
// in segment seg.
func NewSequentialPattern(seg int, sizeBytes uint64) *SequentialPattern {
	return &SequentialPattern{base: segBase(seg), size: sizeBytes}
}

func (p *SequentialPattern) next(_ *rng) (uint64, bool) {
	addr := p.base + p.pos
	p.pos += BlockSize
	if p.pos >= p.size {
		p.pos = 0
	}
	return addr, false
}

// StridePattern walks the working set with a constant block stride,
// emulating column-major matrix walks (649.fotonik3d_s inner loops).
type StridePattern struct {
	base   uint64
	size   uint64
	stride uint64 // bytes
	pos    uint64
}

// NewStridePattern returns a constant-stride walk (strideBlocks cache
// blocks per step) over sizeBytes in segment seg.
func NewStridePattern(seg int, sizeBytes uint64, strideBlocks int) *StridePattern {
	return &StridePattern{
		base:   segBase(seg),
		size:   sizeBytes,
		stride: uint64(strideBlocks) * BlockSize,
	}
}

func (p *StridePattern) next(_ *rng) (uint64, bool) {
	addr := p.base + p.pos
	p.pos += p.stride
	if p.pos >= p.size {
		p.pos = (p.pos + BlockSize) % p.stride // rotate start to touch all lines
	}
	return addr, false
}

// DeltaSeqPattern repeats a fixed sequence of signed block deltas inside
// each page and then advances to the next page. This is the access shape
// the Signature Path Prefetcher learns best: the compressed delta history
// (signature) recurs page after page.
type DeltaSeqPattern struct {
	base   uint64
	pages  uint64
	deltas []int
	page   uint64
	off    int // block offset within page
	idx    int // index into deltas
	steps  int // steps taken in current page
	maxStp int
}

// NewDeltaSeqPattern returns a pattern that replays deltas (in cache
// blocks) within successive pages of a pages-page working set.
func NewDeltaSeqPattern(seg int, pages uint64, deltas []int) *DeltaSeqPattern {
	if len(deltas) == 0 {
		panic("trace: DeltaSeqPattern requires at least one delta")
	}
	ds := make([]int, len(deltas))
	copy(ds, deltas)
	return &DeltaSeqPattern{
		base:   segBase(seg),
		pages:  pages,
		deltas: ds,
		maxStp: 3 * BlocksPerPage / 2,
	}
}

func (p *DeltaSeqPattern) next(_ *rng) (uint64, bool) {
	addr := p.base + p.page*PageSize + uint64(p.off)*BlockSize
	d := p.deltas[p.idx]
	p.idx = (p.idx + 1) % len(p.deltas)
	p.off += d
	p.steps++
	if p.off < 0 || p.off >= BlocksPerPage || p.steps >= p.maxStp {
		p.page = (p.page + 1) % p.pages
		p.off = 0
		p.idx = 0
		p.steps = 0
	}
	return addr, false
}

// PointerChasePattern performs dependent random jumps through a working
// set, emulating linked-data traversal (605.mcf_s, 620.omnetpp_s). Each
// load depends on the previous one, so the core cannot overlap the misses.
type PointerChasePattern struct {
	base   uint64
	blocks uint64
	cur    uint64
}

// NewPointerChasePattern returns a dependent random walk over sizeBytes in
// segment seg.
func NewPointerChasePattern(seg int, sizeBytes uint64) *PointerChasePattern {
	return &PointerChasePattern{base: segBase(seg), blocks: sizeBytes / BlockSize}
}

func (p *PointerChasePattern) next(r *rng) (uint64, bool) {
	// A multiplicative congruential hop gives a deterministic permutation
	// feel while still being unpredictable to delta-based prefetchers.
	p.cur = (p.cur*6364136223846793005 + r.Uint64()%64 + 1) % p.blocks
	return p.base + p.cur*BlockSize, true
}

// RegionFootprintPattern touches a recurring subset of blocks (the
// footprint) in each region it visits, emulating the spatial-footprint
// behaviour SMS-class prefetchers exploit (602.gcc_s, 623.xalancbmk_s with
// an irregular footprint).
type RegionFootprintPattern struct {
	base      uint64
	regions   uint64
	footprint []int // block offsets touched per region
	region    uint64
	idx       int
}

// NewRegionFootprintPattern returns a pattern that touches footprint
// offsets (block offsets within a page) in each of regions pages.
func NewRegionFootprintPattern(seg int, regions uint64, footprint []int) *RegionFootprintPattern {
	if len(footprint) == 0 {
		panic("trace: RegionFootprintPattern requires a footprint")
	}
	fp := make([]int, len(footprint))
	copy(fp, footprint)
	return &RegionFootprintPattern{base: segBase(seg), regions: regions, footprint: fp}
}

func (p *RegionFootprintPattern) next(r *rng) (uint64, bool) {
	off := p.footprint[p.idx] % BlocksPerPage
	addr := p.base + p.region*PageSize + uint64(off)*BlockSize
	p.idx++
	if p.idx >= len(p.footprint) {
		p.idx = 0
		// Mostly sequential region order with occasional jumps keeps a
		// spatial prefetcher honest.
		if r.draw() < thrRegionJump {
			p.region = r.Uint64() % p.regions
		} else {
			p.region = (p.region + 1) % p.regions
		}
	}
	return addr, false
}

// thrRegionJump is the chance that RegionFootprintPattern jumps to a
// random region rather than the next one.
var thrRegionJump = threshold(0.1)

// RandomPattern issues independent uniform-random accesses over the
// working set: the prefetch-hostile extreme.
type RandomPattern struct {
	base   uint64
	blocks uint64
}

// NewRandomPattern returns uniform random accesses over sizeBytes in
// segment seg.
func NewRandomPattern(seg int, sizeBytes uint64) *RandomPattern {
	return &RandomPattern{base: segBase(seg), blocks: sizeBytes / BlockSize}
}

func (p *RandomPattern) next(r *rng) (uint64, bool) {
	return p.base + (r.Uint64()%p.blocks)*BlockSize, false
}

// HotColdPattern accesses a small hot set most of the time with occasional
// excursions into a large cold set, giving cache-friendly workloads with a
// long miss tail (641.leela_s, 648.exchange2_s style low-MPKI behaviour).
type HotColdPattern struct {
	base       uint64
	hotBlocks  uint64
	coldBlocks uint64
	thrHot     uint64 // threshold(pHot)
}

// NewHotColdPattern returns accesses that hit a hotBytes-sized hot set
// with probability pHot and a coldBytes cold set otherwise.
func NewHotColdPattern(seg int, hotBytes, coldBytes uint64, pHot float64) *HotColdPattern {
	mustProb("HotColdPattern pHot", pHot)
	return &HotColdPattern{
		base:       segBase(seg),
		hotBlocks:  hotBytes / BlockSize,
		coldBlocks: coldBytes / BlockSize,
		thrHot:     threshold(pHot),
	}
}

// mustProb panics unless p is a probability in [0, 1].
func mustProb(what string, p float64) {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("trace: %s = %v outside [0, 1]", what, p))
	}
}

func (p *HotColdPattern) next(r *rng) (uint64, bool) {
	if r.draw() < p.thrHot {
		return p.base + (r.Uint64()%p.hotBlocks)*BlockSize, false
	}
	cold := p.base + p.hotBlocks*BlockSize
	return cold + (r.Uint64()%p.coldBlocks)*BlockSize, false
}

// VaryingDeltaPattern alternates between several short delta sequences,
// switching mid-page unpredictably. This reproduces the behaviour the
// paper reports for 623.xalancbmk_s: SPP's conservative throttling halts
// at shallow depth, while a better accuracy check can keep speculating.
type VaryingDeltaPattern struct {
	base      uint64
	pages     uint64
	seqs      [][]int
	page      uint64
	off       int
	seq       int
	idx       int
	steps     int
	thrSwitch uint64 // threshold(switchP)
}

// NewVaryingDeltaPattern returns a pattern that interleaves the given
// delta sequences within a pages-page working set, switching sequence
// with probability switchP at each step.
func NewVaryingDeltaPattern(seg int, pages uint64, seqs [][]int, switchP float64) *VaryingDeltaPattern {
	if len(seqs) == 0 {
		panic("trace: VaryingDeltaPattern requires at least one sequence")
	}
	mustProb("VaryingDeltaPattern switchP", switchP)
	cp := make([][]int, len(seqs))
	for i, s := range seqs {
		cp[i] = append([]int(nil), s...)
	}
	return &VaryingDeltaPattern{base: segBase(seg), pages: pages, seqs: cp, thrSwitch: threshold(switchP)}
}

func (p *VaryingDeltaPattern) next(r *rng) (uint64, bool) {
	addr := p.base + p.page*PageSize + uint64(p.off)*BlockSize
	if r.draw() < p.thrSwitch {
		p.seq = r.Intn(len(p.seqs))
		p.idx = 0
	}
	s := p.seqs[p.seq]
	d := s[p.idx]
	p.idx = (p.idx + 1) % len(s)
	p.off += d
	p.steps++
	if p.off < 0 || p.off >= BlocksPerPage || p.steps >= BlocksPerPage {
		p.page = (p.page + 1) % p.pages
		p.off = r.Intn(4)
		p.steps = 0
	}
	return addr, false
}
