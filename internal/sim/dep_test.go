package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/trace"
)

// depStream builds an instruction stream whose load dependencies
// (Inst.Dep) point at every kind of producer the load-completion ring
// must resolve exactly. Each section opens with a cold instruction block,
// so fetch stalls on an instruction miss and the ROB drains, then issues
// one DRAM miss and ends with enough ALU work to fill the ROB behind it.
// A dependent load that misses in DRAM too then moves the cycle count by
// a full memory latency if it waits, or fails to wait, wrongly.
type depStream struct {
	insts  []trace.Inst
	pages  uint64 // fresh data pages handed out
	blocks uint64 // cold instruction blocks handed out
	misses []int  // positions of the section-opening misses
	filler int    // position of the load inside the last fill
}

func (s *depStream) add(in trace.Inst) int {
	if in.PC == 0 {
		in.PC = 0x40_0000 + uint64(len(s.insts)%16)*4
	}
	s.insts = append(s.insts, in)
	return len(s.insts) - 1
}

// dist is the dependency distance from the next instruction back to pos.
func (s *depStream) dist(pos int) int { return len(s.insts) - pos }

func (s *depStream) alu(n int) {
	for ; n > 0; n-- {
		s.add(trace.Inst{Kind: trace.KindALU})
	}
}

// load appends a load whose producer is dep instructions back; miss puts
// it on a fresh page, otherwise it hits one hot line.
func (s *depStream) load(miss bool, dep int) int {
	addr := uint64(0x1000)
	if miss {
		s.pages++
		addr = 0x4000_0000 + s.pages<<12
	}
	return s.add(trace.Inst{Kind: trace.KindLoad, Addr: addr, Dep: uint16(dep)})
}

// section opens with a drained ROB and a DRAM miss, whose position it
// returns.
func (s *depStream) section() int {
	s.blocks++
	s.add(trace.Inst{PC: 0x100_0000 + s.blocks<<6, Kind: trace.KindALU})
	m := s.load(true, 0)
	s.misses = append(s.misses, m)
	return m
}

// fill fills the ROB behind the section's misses. It holds one load that
// the next section depends on after it has retired.
func (s *depStream) fill() {
	s.alu(100)
	s.filler = s.load(false, 0)
	s.alu(200)
}

// older returns the distance to the latest section miss at least min
// back and within the largest encodable distance, or 0 (no dependency).
func (s *depStream) older(min int) int {
	for i := len(s.misses) - 1; i >= 0; i-- {
		if d := s.dist(s.misses[i]); d >= min && d <= 1<<16-1 {
			return d
		}
	}
	return 0
}

func buildDepStream(episodes int) []trace.Inst {
	s := &depStream{}
	// Producers before the start of the stream.
	s.load(false, 1)
	s.load(true, 5)
	s.load(true, 1<<16-1)
	for e := 0; e < episodes; e++ {
		// An in-flight load, then an ALU, a store and a branch fetched in
		// the same cycle as their consumer. The next two misses name a
		// retired producer whose slot a 64- or a 256-entry ring shares
		// with the in-flight miss; then loads 257..65,535 back and a
		// retired load at most 256 back.
		m := s.section()
		s.load(false, s.dist(m))
		s.alu(1)
		s.load(false, 1)
		s.add(trace.Inst{Kind: trace.KindStore, Addr: 0x2000})
		s.load(false, 1)
		s.add(trace.Inst{Kind: trace.KindBranch, Taken: e%3 == 0})
		s.load(false, 1)
		s.load(true, s.dist(m)+64)
		s.load(true, s.dist(m)+256)
		s.load(true, s.older(257))
		s.load(true, s.older(60_000))
		s.load(false, s.dist(s.filler))
		s.fill()

		// A producer at the ROB head: its distance equals robCount.
		m = s.section()
		s.alu(4)
		s.load(true, s.dist(m))
		s.fill()

		// An in-flight producer behind the ROB head.
		s.section()
		s.alu(2)
		m = s.load(true, 0)
		s.alu(3)
		s.load(true, s.dist(m))
		s.fill()

		// An in-flight producer 40 and 140 back, behind a newer load that
		// a ring of 32 or 128 entries would put in its slot.
		for _, c := range []struct{ dep, ring int }{{40, 32}, {140, 128}} {
			m = s.section()
			s.alu(c.ring - 1)
			s.load(false, 0)
			s.alu(c.dep - c.ring - 1)
			s.load(true, s.dist(m))
			s.fill()
		}
	}
	return s.insts
}

// TestDependencyDistanceGolden pins the simulated result of
// buildDepStream at the default 256-entry ROB and at a 48-entry ROB (a
// 64-entry ring) against digests recorded with a 65,536-entry ring that
// consulted every distance back to the start of the stream. A ring that
// resolved a retired or aliased producer, or missed an in-flight one,
// would move the cycle counts.
func TestDependencyDistanceGolden(t *testing.T) {
	insts := buildDepStream(48)
	for _, tc := range []struct {
		rob  int
		want string
	}{
		{256, "5dec36e6496df0279d3c4adcb26b16a1cf08b74f4fee81e9dd38e13c67318f92"},
		{48, "34bf12462785c619c9bcf66988bd05a8c2f88fb96c1ce70cbc7a3c7d69a1313e"},
	} {
		cfg := DefaultConfig(1)
		cfg.ROBSize = tc.rob
		sys, err := NewSystem(cfg, []CoreSetup{{Trace: trace.NewSliceReader(insts)}})
		if err != nil {
			t.Fatal(err)
		}
		res := sys.Run(0, uint64(len(insts)))
		blob, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("ROB %d: result digest %s, want %s (cycles %d, ROB stalls %d, fetch stalls %d)",
				tc.rob, got, tc.want, res.Cycles, res.PerCore[0].ROBStallCycles, res.PerCore[0].FetchStallCycles)
		}
	}
}
