// Package dram models an off-chip DRAM subsystem with open-row banks and
// a serially-occupied data bus per channel. The bus occupancy term is what
// gives the simulator its bandwidth ceiling: at the paper's default
// 12.8 GB/s on a 4 GHz core, one 64-byte line occupies the bus for 20 core
// cycles, and the low-bandwidth DPC-2 variant (3.2 GB/s) for 80 cycles.
// Useless prefetch traffic therefore delays demand fills organically,
// which is the effect PPF exists to avoid.
package dram

import "fmt"

// Config describes the DRAM subsystem. All latencies are in core cycles.
type Config struct {
	// Channels is the number of independent channels.
	Channels int
	// BanksPerChannel is the number of banks per channel.
	BanksPerChannel int
	// RowBytes is the size of one DRAM row (row-buffer locality granule).
	RowBytes uint64
	// TransferCycles is how long one 64-byte block occupies the data bus.
	// 20 cycles ≈ 12.8 GB/s at 4 GHz; 80 cycles ≈ 3.2 GB/s.
	TransferCycles uint64
	// RowHitLatency is tCAS in core cycles for an open-row access.
	RowHitLatency uint64
	// RowMissLatency is tRP+tRCD+tCAS for a row-buffer conflict.
	RowMissLatency uint64
	// ControllerLatency is the fixed queuing/controller overhead.
	ControllerLatency uint64
	// BankBusyHit is how long a row-hit access occupies its bank before
	// the next access can start (tCCD; successive CAS commands to an
	// open row pipeline, so this is much shorter than the latency).
	BankBusyHit uint64
	// BankBusyMiss is the bank occupancy of a row conflict
	// (precharge+activate time during which the bank accepts no command).
	BankBusyMiss uint64
}

// DefaultConfig returns the paper's default single-channel 12.8 GB/s
// configuration.
func DefaultConfig() Config {
	return Config{
		Channels:          1,
		BanksPerChannel:   8,
		RowBytes:          8 * 1024,
		TransferCycles:    20,
		RowHitLatency:     55,
		RowMissLatency:    165,
		ControllerLatency: 15,
		BankBusyHit:       8,
		BankBusyMiss:      110,
	}
}

// LowBandwidthConfig returns the DPC-2 constrained 3.2 GB/s configuration
// used in the paper's §6.3 study.
func LowBandwidthConfig() Config {
	c := DefaultConfig()
	c.TransferCycles = 80
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 {
		return fmt.Errorf("dram: channels and banks must be positive")
	}
	if c.RowBytes == 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram: row size must be a power of two")
	}
	if c.TransferCycles == 0 {
		return fmt.Errorf("dram: transfer cycles must be positive")
	}
	return nil
}

type bank struct {
	openRow uint64
	hasOpen bool
	readyAt uint64
}

type channel struct {
	// The controller schedules three traffic classes on one data bus:
	// demand reads (highest priority), prefetch reads, then writes
	// (drained opportunistically). Each class serialises fully against
	// itself and higher classes, and sees lower-priority traffic only as
	// fractional interference — a demand read does not wait out a long
	// write backlog, but sustained low-priority floods still erode its
	// bandwidth.
	qDemand uint64 // next cycle the bus can start a demand transfer
	qRead   uint64 // … any read transfer (demand or prefetch)
	qAll    uint64 // … any transfer at all (including writes)
	banks   []bank
}

// Stats counts DRAM traffic.
type Stats struct {
	Reads         uint64
	PrefetchReads uint64
	PromotedReads uint64
	Writes        uint64
	RowHits       uint64
	RowMisses     uint64
	BusBusyFor    uint64 // total cycles of data-bus occupancy
	LastRequest   uint64 // cycle of the most recent request (for utilisation)
}

// DRAM implements the simulator's bottom memory level.
type DRAM struct {
	cfg      Config
	channels []channel
	stats    Stats
}

// New constructs a DRAM model.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DRAM{cfg: cfg, channels: make([]channel, cfg.Channels)}
	for i := range d.channels {
		d.channels[i].banks = make([]bank, cfg.BanksPerChannel)
	}
	return d, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *DRAM {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Stats returns a copy of the accumulated counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats clears the counters (used after warmup).
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// route maps an address onto (channel, bank, row).
func (d *DRAM) route(addr uint64) (ch *channel, bk *bank, row uint64) {
	rowAddr := addr / d.cfg.RowBytes
	ci := int(rowAddr) & (d.cfg.Channels - 1)
	if d.cfg.Channels&(d.cfg.Channels-1) != 0 {
		ci = int(rowAddr % uint64(d.cfg.Channels))
	}
	ch = &d.channels[ci]
	bi := int((rowAddr / uint64(d.cfg.Channels)) % uint64(d.cfg.BanksPerChannel))
	bk = &ch.banks[bi]
	row = rowAddr / uint64(d.cfg.Channels) / uint64(d.cfg.BanksPerChannel)
	return ch, bk, row
}

// service performs the shared timing computation and returns the cycle at
// which the data transfer completes. Demand requests are prioritised:
// they queue only behind other demand transfers (plus at most one
// in-flight non-preemptible transfer), while prefetches and writes queue
// behind all prior traffic. This mirrors real controllers' demand-first
// scheduling and is what makes useless prefetch floods hurt bandwidth
// without head-of-line-blocking every demand read.
func (d *DRAM) service(addr, at uint64, class trafficClass) uint64 {
	ch, bk, row := d.route(addr)
	start := at + d.cfg.ControllerLatency
	if bk.readyAt > start {
		start = bk.readyAt
	}
	var lat, busy uint64
	if bk.hasOpen && bk.openRow == row {
		d.stats.RowHits++
		lat = d.cfg.RowHitLatency
		busy = d.cfg.BankBusyHit
	} else {
		d.stats.RowMisses++
		lat = d.cfg.RowMissLatency
		busy = d.cfg.BankBusyMiss
		bk.openRow = row
		bk.hasOpen = true
	}
	ready := start + lat
	// The bank is occupied for the command window only (tCCD for open-row
	// bursts, precharge+activate for conflicts); consecutive same-row
	// accesses pipeline, and the data bus is an independent resource.
	// Writes sit in the controller's write queue and drain in read gaps,
	// so they disturb row state but do not hold the bank against reads.
	if class != classWrite {
		bk.readyAt = start + busy
	}
	// Each class cursor advances exactly one transfer slot per request,
	// anchored at the request's arrival: the cursor models aggregate
	// bandwidth consumption, not a FIFO schedule, so a request stalled on
	// a busy bank does not head-of-line-block the bus for later requests
	// (the controller schedules out of order).
	T := d.cfg.TransferCycles
	var slot uint64
	switch class {
	case classDemand:
		slot = maxU64(ch.qDemand, at)
		ch.qDemand = slot + T
		ch.qRead = maxU64(ch.qRead, ch.qDemand)
		ch.qAll = maxU64(ch.qAll, ch.qDemand)
		if ch.qAll > slot {
			// A lower-priority transfer may occupy the bus right now; it
			// is not preemptible, so a demand can wait one extra slot.
			slot += T / 2
		}
	case classPrefetch:
		slot = maxU64(ch.qRead, at)
		ch.qRead = slot + T
		ch.qAll = maxU64(ch.qAll, ch.qRead)
	default: // classWrite
		slot = maxU64(ch.qAll, at)
		ch.qAll = slot + T
	}
	xferStart := maxU64(ready, slot)
	done := xferStart + T
	d.stats.BusBusyFor += T
	if at > d.stats.LastRequest {
		d.stats.LastRequest = at
	}
	return done
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// trafficClass is the controller scheduling priority of a request.
type trafficClass uint8

const (
	classDemand trafficClass = iota
	classPrefetch
	classWrite
)

// Read implements cache.Level for demand fills.
func (d *DRAM) Read(addr uint64, at uint64) uint64 {
	d.stats.Reads++
	return d.service(addr, at, classDemand)
}

// ReadPrefetch services a prefetch fill at lower priority. It implements
// cache.PrefetchSource (the owner is irrelevant at the memory level).
func (d *DRAM) ReadPrefetch(addr uint64, at uint64, _ int) uint64 {
	d.stats.PrefetchReads++
	return d.service(addr, at, classPrefetch)
}

// PromoteRead implements cache.Promoter: a demand merged onto an
// in-flight prefetch, so the controller moves the request to the demand
// queue. The bank work (activate/CAS) of the original request is already
// under way, so the promoted completion pays only the remaining column
// access and a demand-priority transfer slot; the caller takes the
// minimum with the original completion, so promotion never delays a fill
// that was about to arrive anyway.
func (d *DRAM) PromoteRead(addr uint64, at uint64) uint64 {
	d.stats.PromotedReads++
	ch, _, _ := d.route(addr)
	// The remaining column access overlaps the demand queue wait; the
	// transfer itself was already charged to the read cursor when the
	// prefetch issued, so promotion re-times the completion without
	// consuming additional modelled bandwidth.
	slot := maxU64(ch.qDemand, at)
	ready := at + d.cfg.ControllerLatency + d.cfg.RowHitLatency
	return maxU64(ready, slot) + d.cfg.TransferCycles
}

// Write implements cache.Level. Writes are posted and drained
// opportunistically: they occupy banks and the bus at the lowest
// priority.
func (d *DRAM) Write(addr uint64, at uint64) {
	d.stats.Writes++
	d.service(addr, at, classWrite)
}
