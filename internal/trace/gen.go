package trace

import "fmt"

// Pattern is the interface implemented by the memory pattern components in
// this package. Its method set is unexported so the simulator's workloads
// are always built from the audited pattern implementations here.
type Pattern interface {
	next(r *rng) (addr uint64, dep bool)
}

// Weighted pairs a pattern with its selection weight inside a phase mix.
type Weighted struct {
	P      Pattern
	Weight float64
}

// Phase is a stretch of execution with a fixed pattern mix. Workloads with
// phase behaviour (CloudSuite traces in the paper have six phases per
// application) chain several phases.
type Phase struct {
	// Length is the number of instructions in the phase; the generator
	// cycles back to the first phase after the last.
	Length uint64
	// Mix is the weighted set of patterns active during the phase.
	Mix []Weighted
}

// GenConfig parameterises a synthetic workload generator.
type GenConfig struct {
	// Seed makes the stream deterministic.
	Seed uint64
	// LoadRatio, StoreRatio and BranchRatio give the fraction of dynamic
	// instructions of each kind; the remainder are ALU operations.
	LoadRatio   float64
	StoreRatio  float64
	BranchRatio float64
	// BranchPredictability is the probability that a branch follows its
	// per-PC bias, i.e. the accuracy an ideal static predictor would see.
	BranchPredictability float64
	// StoreStreamRatio is the fraction of stores that stream through a
	// large region (write misses) rather than hitting the stack.
	StoreStreamRatio float64
	// HotLoadRatio is the fraction of loads that hit a small L1-resident
	// hot set (locals, spilled registers, small lookup tables) rather
	// than the workload's pattern mix. Real programs satisfy most loads
	// from the L1; this keeps simulated baselines from being pathologically
	// memory-bound. Defaults to 0.65 when left zero; set to a negative
	// value to disable hot loads entirely.
	HotLoadRatio float64
	// BlockReuse is how many consecutive pattern loads touch each cache
	// block before the pattern advances, modelling word-granular reads of
	// 64-byte blocks (the L1 absorbs the repeats; lower levels see one
	// access per block). Defaults to 6 when zero; 1 disables reuse.
	BlockReuse int
	// Phases is the phase schedule; at least one phase is required.
	Phases []Phase
}

// component is the per-pattern generator state.
type component struct {
	p        Pattern
	pcs      []uint64
	pcIdx    int
	lastLoad uint64 // instruction index of the last load from this pattern
	hasLast  bool

	// Block-reuse state: the current address and how many more loads
	// will touch it before the pattern advances.
	curAddr   uint64
	curDep    bool
	reuseLeft int
}

// Generator produces an infinite deterministic instruction stream from a
// GenConfig. It implements Reader.
type Generator struct {
	cfg   GenConfig
	r     *rng
	count uint64

	phases     []genPhase
	phaseIdx   int
	phaseLeft  uint64
	branchPCs  []uint64
	branchBias []float64
	aluPCs     []uint64
	aluIdx     int

	stackBase   uint64
	stackBlocks uint64
	streamBase  uint64
	streamPos   uint64
	streamLimit uint64

	hotBase   uint64
	hotBlocks uint64
	hotPCs    []uint64
	hotIdx    int
	hotCur    uint64

	stackPos    uint64
	streamReuse int

	// Cumulative instruction-mix thresholds, precomputed once so Next's
	// kind dispatch is three compares against ready values instead of
	// re-summing the config ratios per instruction. Same operands in the
	// same order as the inline sums they replace, so the comparisons are
	// bit-identical.
	thrLoad   float64 // LoadRatio
	thrStore  float64 // LoadRatio + StoreRatio
	thrBranch float64 // LoadRatio + StoreRatio + BranchRatio
}

type genPhase struct {
	length uint64
	comps  []*component
	cum    []float64 // cumulative weights, normalised to 1
}

// NewGenerator validates cfg and returns a generator.
func NewGenerator(cfg GenConfig) (*Generator, error) {
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("trace: generator needs at least one phase")
	}
	if cfg.LoadRatio < 0 || cfg.StoreRatio < 0 || cfg.BranchRatio < 0 ||
		cfg.LoadRatio+cfg.StoreRatio+cfg.BranchRatio > 1 {
		return nil, fmt.Errorf("trace: invalid instruction mix ratios")
	}
	g := &Generator{cfg: cfg, r: newRNG(cfg.Seed)}
	pcRNG := newRNG(cfg.Seed ^ 0xABCDEF)
	// Components are shared across phases when the same Pattern value
	// appears in several mixes, preserving pattern state across phases.
	seen := map[Pattern]*component{}
	pcCursor := uint64(0x400000) // text segment base
	newPCs := func(n int) []uint64 {
		pcs := make([]uint64, n)
		for i := range pcs {
			pcs[i] = pcCursor
			pcCursor += 4 * (1 + uint64(pcRNG.Intn(8)))
		}
		return pcs
	}
	for _, ph := range cfg.Phases {
		if len(ph.Mix) == 0 {
			return nil, fmt.Errorf("trace: phase with empty mix")
		}
		gp := genPhase{length: ph.Length}
		total := 0.0
		for _, w := range ph.Mix {
			if w.Weight <= 0 {
				return nil, fmt.Errorf("trace: non-positive pattern weight")
			}
			total += w.Weight
			c, ok := seen[w.P]
			if !ok {
				c = &component{p: w.P, pcs: newPCs(3 + pcRNG.Intn(5))}
				seen[w.P] = c
			}
			gp.comps = append(gp.comps, c)
		}
		run := 0.0
		for _, w := range ph.Mix {
			run += w.Weight / total
			gp.cum = append(gp.cum, run)
		}
		g.phases = append(g.phases, gp)
	}
	g.phaseLeft = g.phases[0].length
	g.branchPCs = newPCs(24)
	g.branchBias = make([]float64, len(g.branchPCs))
	for i := range g.branchBias {
		g.branchBias[i] = pcRNG.Float64()
	}
	g.aluPCs = newPCs(16)
	g.stackBase = uint64(0x7F) << 40
	g.stackBlocks = 32 * 1024 / BlockSize
	g.streamBase = uint64(0x6F) << 40
	g.streamLimit = 64 << 20
	g.hotBase = uint64(0x5F) << 40
	g.hotBlocks = 16 * 1024 / BlockSize
	g.hotPCs = newPCs(4)
	if g.cfg.HotLoadRatio == 0 {
		g.cfg.HotLoadRatio = 0.65
	}
	if g.cfg.HotLoadRatio < 0 {
		g.cfg.HotLoadRatio = 0
	}
	if g.cfg.BlockReuse <= 0 {
		g.cfg.BlockReuse = 6
	}
	g.thrLoad = g.cfg.LoadRatio
	g.thrStore = g.cfg.LoadRatio + g.cfg.StoreRatio
	g.thrBranch = g.cfg.LoadRatio + g.cfg.StoreRatio + g.cfg.BranchRatio
	return g, nil
}

// MustGenerator is NewGenerator that panics on error; for use with
// statically-known-good configurations.
func MustGenerator(cfg GenConfig) *Generator {
	g, err := NewGenerator(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Count reports the number of instructions generated so far.
func (g *Generator) Count() uint64 { return g.count }

// Next implements Reader. The stream never ends; wrap the generator in a
// LimitReader to bound it.
func (g *Generator) Next() (Inst, bool) {
	ph := &g.phases[g.phaseIdx]
	if ph.length > 0 {
		if g.phaseLeft == 0 {
			g.phaseIdx = (g.phaseIdx + 1) % len(g.phases)
			ph = &g.phases[g.phaseIdx]
			g.phaseLeft = ph.length
		}
		g.phaseLeft--
	}
	idx := g.count
	g.count++

	x := g.r.Float64()
	switch {
	case x < g.thrLoad:
		return g.genLoad(ph, idx), true
	case x < g.thrStore:
		return g.genStore(), true
	case x < g.thrBranch:
		return g.genBranch(), true
	default:
		pc := g.aluPCs[g.aluIdx]
		g.aluIdx++
		if g.aluIdx == len(g.aluPCs) {
			g.aluIdx = 0
		}
		return Inst{PC: pc, Kind: KindALU}, true
	}
}

func (g *Generator) genLoad(ph *genPhase, idx uint64) Inst {
	if g.r.Bool(g.cfg.HotLoadRatio) {
		pc := g.hotPCs[g.hotIdx]
		g.hotIdx++
		if g.hotIdx == len(g.hotPCs) {
			g.hotIdx = 0
		}
		// Hot accesses are reuse-heavy: mostly re-touch the same block
		// (delta 0, invisible to delta prefetchers, like real locals and
		// loop-carried scalars), occasionally move to a neighbour or
		// jump to another hot block.
		switch x := g.r.Float64(); {
		case x < 0.70: // stay on the current block
		case x < 0.90: // slide to the adjacent block
			if g.hotCur++; g.hotCur == g.hotBlocks {
				g.hotCur = 0
			}
		default: // jump within the hot set
			g.hotCur = g.r.Uint64() % g.hotBlocks
		}
		addr := g.hotBase + g.hotCur*BlockSize
		return Inst{PC: pc, Kind: KindLoad, Addr: addr}
	}
	// Select a component by weight.
	x := g.r.Float64()
	ci := len(ph.comps) - 1
	for i, c := range ph.cum {
		if x < c {
			ci = i
			break
		}
	}
	comp := ph.comps[ci]
	if comp.reuseLeft <= 0 {
		comp.curAddr, comp.curDep = comp.p.next(g.r)
		comp.reuseLeft = g.cfg.BlockReuse
	}
	comp.reuseLeft--
	// Word-granular touches within the block: vary the low bits a little.
	addr := comp.curAddr + uint64(g.r.Intn(8))*8
	dep := comp.curDep && comp.reuseLeft == g.cfg.BlockReuse-1
	pc := comp.pcs[comp.pcIdx]
	comp.pcIdx++
	if comp.pcIdx == len(comp.pcs) {
		comp.pcIdx = 0
	}
	in := Inst{PC: pc, Kind: KindLoad, Addr: addr}
	if dep && comp.hasLast {
		d := idx - comp.lastLoad
		if d > 0 && d < 1<<16 {
			in.Dep = uint16(d)
		}
	}
	comp.lastLoad = idx
	comp.hasLast = true
	return in
}

func (g *Generator) genStore() Inst {
	pc := g.aluPCs[0] + 2
	if g.r.Bool(g.cfg.StoreStreamRatio) {
		// Streaming stores fill each block with several word writes
		// before advancing (write-combining behaviour).
		if g.streamReuse <= 0 {
			g.streamPos += BlockSize
			if g.streamPos >= g.streamLimit {
				g.streamPos = 0
			}
			g.streamReuse = g.cfg.BlockReuse
		}
		g.streamReuse--
		addr := g.streamBase + g.streamPos + uint64(g.r.Intn(8))*8
		return Inst{PC: pc, Kind: KindStore, Addr: addr}
	}
	// Stack stores walk a small window mostly staying on the same block
	// (push/pop locality) with occasional frame changes.
	switch x := g.r.Float64(); {
	case x < 0.75: // same block
	case x < 0.92: // next block in the frame
		if g.stackPos++; g.stackPos == g.stackBlocks {
			g.stackPos = 0
		}
	default: // new frame
		g.stackPos = g.r.Uint64() % g.stackBlocks
	}
	addr := g.stackBase + g.stackPos*BlockSize
	return Inst{PC: pc, Kind: KindStore, Addr: addr}
}

func (g *Generator) genBranch() Inst {
	i := g.r.Intn(len(g.branchPCs))
	pc := g.branchPCs[i]
	taken := g.branchBias[i] >= 0.5
	if !g.r.Bool(g.cfg.BranchPredictability) {
		taken = g.r.Bool(0.5)
	}
	return Inst{PC: pc, Kind: KindBranch, Taken: taken}
}
