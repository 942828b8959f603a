package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
)

// ppfd-2stream drives an in-process decision server over loopback from
// two client connections, each a closed loop: a simulator waits for a
// trigger's verdicts before it runs on, so a client sends its next batch
// only when the previous one has been answered.
const (
	serveStreams = 2
	serveBatch   = 32
	serveWarmup  = time.Second
	// serveWindow is the interval throughput is taken over before the
	// median across intervals: a shared host stalls the loop now and then
	// for tens of milliseconds, and the median keeps those stalls from
	// deciding the run's figure.
	serveWindow = 100 * time.Millisecond
	// Served verdicts are checked in groups of serveCheckGroup consecutive
	// batches, each group hashed into one slot of a table of
	// serveCheckSlots per stream; batches past the table's end fold into
	// its last slot. The table is filled before the loop starts, so the
	// harness's memory does not grow with the server's throughput.
	serveCheckGroup = 4
	serveCheckSlots = 1 << 19 // 2M batches per stream
	// serveSetupReps server starts are timed before the measured phase and
	// as many after it, so that a slow spell of the shared host at either
	// end moves at most half the samples of setup_s.
	serveSetupReps = 25
)

// Per-trigger event mix of the served stream, measured with --trace 1 on
// ppf-1c at the reference seed over the detail region:
// prefetch.candidates / prefetch.triggers = 2.61M / 197k candidates,
// prefetch.evicts / prefetch.triggers = 96.7k / 197k evictions of
// prefetched blocks handed to the filter, and prefetch.evict_used_frac =
// 0.622 of those blocks used before eviction. Each trigger also carries
// one demand and one load-PC event, so a 32-event batch holds about two
// triggers.
const (
	candidatesPerTrigger   = 13
	evictsPerTriggerPerMil = 492
	evictUsedPerMil        = 622
)

// eventStream generates a served event stream shaped like the simulator's
// traffic into its filter: per trigger, the evictions since the last one,
// the demand access, a lookahead burst of candidates along the triggering
// PC's stride, and the load-PC retirement. Evictions hit blocks that
// earlier verdicts issued, so the stream is a pure function of its seed
// and of the verdicts it is answered with (see answered).
type eventStream struct {
	r       rng
	pcs     [32]uint64
	strides [32]int64
	pos     [32]int64 // block each PC's stream is at
	hist    core.PCHistory
	issued  [512]uint64 // recently issued candidate addresses
	nIssued int
	buf     []engine.Event
	next    int
}

func newEventStream(seed uint64, stream int) *eventStream {
	g := &eventStream{r: rng{s: streamSeed(seed, 1000+stream)}}
	for i := range g.pcs {
		g.pcs[i] = 0x400000 + uint64(g.r.intn(1<<16))<<2
		g.strides[i] = int64(1 + g.r.intn(4))
		if g.r.intn(4) == 0 {
			g.strides[i] = -g.strides[i]
		}
		g.pos[i] = int64(g.r.intn(1 << 20))
	}
	return g
}

// fill overwrites batch with the next len(batch) events.
func (g *eventStream) fill(batch []engine.Event) {
	for i := range batch {
		if g.next == len(g.buf) {
			g.trigger()
		}
		batch[i] = g.buf[g.next]
		g.next++
	}
}

// answered takes the verdicts of batch, one per candidate in order, and
// remembers the addresses they issued: only an issued prefetch can be
// evicted as one.
func (g *eventStream) answered(batch []engine.Event, ds []core.Decision) {
	j := 0
	for i := range batch {
		if batch[i].Kind != engine.KindCandidate || j == len(ds) {
			continue
		}
		if ds[j] != core.Drop {
			g.issued[g.nIssued%len(g.issued)] = batch[i].Input.Addr
			g.nIssued++
		}
		j++
	}
}

// trigger appends one L2 trigger's events to the pending buffer.
func (g *eventStream) trigger() {
	g.buf, g.next = g.buf[:0], 0
	r := &g.r
	evicts := evictsPerTriggerPerMil / 1000
	if r.intn(1000) < evictsPerTriggerPerMil%1000 {
		evicts++
	}
	for ; evicts > 0 && g.nIssued > 0; evicts-- {
		addr := g.issued[r.intn(min(g.nIssued, len(g.issued)))]
		g.buf = append(g.buf, engine.Evict(addr, r.intn(1000) < evictUsedPerMil))
	}

	k := r.intn(len(g.pcs))
	pc, stride := g.pcs[k], g.strides[k]
	if r.intn(16) == 0 {
		g.pos[k] = int64(r.intn(1 << 20)) // the stream jumps to a new region
	}
	block := g.pos[k]
	g.pos[k] += stride
	g.buf = append(g.buf, engine.Demand(uint64(block)<<6))

	sig := uint16(r.intn(1 << 12))
	n := 1 + r.intn(2*candidatesPerTrigger-1) // mean candidatesPerTrigger
	for d := 1; d <= n; d++ {
		delta := int(stride)
		if r.intn(8) == 0 {
			delta = r.intn(17) - 8
		}
		g.buf = append(g.buf, engine.Candidate(core.FeatureInput{
			Addr:       uint64(block+int64(delta*d)) << 6,
			PC:         pc,
			PCHist:     g.hist,
			Depth:      1 + (d-1)/2,
			Signature:  sig,
			Confidence: max(0, 100-6*d),
			Delta:      delta,
		}))
	}
	g.buf = append(g.buf, engine.LoadPC(pc))
	g.hist = core.PCHistory{pc, g.hist[0], g.hist[1]}
}

const fnvBasis = 2166136261

// hashDecisions continues the FNV-1a hash h over one batch's verdicts:
// their count, then one byte each.
func hashDecisions(h uint32, ds []core.Decision) uint32 {
	step := func(b byte) { h = (h ^ uint32(b)) * 16777619 }
	step(byte(len(ds)))
	for _, d := range ds {
		step(byte(d))
	}
	return h
}

// checkSlot is the verdict-table slot of a stream's batch-th batch.
func checkSlot(batch int) int { return min(batch/serveCheckGroup, serveCheckSlots-1) }

// verdictLog fingerprints every batch a stream had answered.
type verdictLog struct {
	slots   []uint32
	batches int
}

// newVerdictLog returns an empty log. Writing every slot's initial hash
// also pages the whole table in before it is used.
func newVerdictLog() verdictLog {
	l := verdictLog{slots: make([]uint32, serveCheckSlots)}
	for i := range l.slots {
		l.slots[i] = fnvBasis
	}
	return l
}

func (l *verdictLog) add(ds []core.Decision) {
	k := checkSlot(l.batches)
	l.slots[k] = hashDecisions(l.slots[k], ds)
	l.batches++
}

// ppfd is one in-process server on a loopback port.
type ppfd struct {
	srv     *serve.Server
	lis     *countingListener // nil when not counting
	done    chan error
	clients []*serve.Client
}

// startPPFD starts a server and dials one client per stream. Each stream's
// session key is unique to the run (seed and stream index), so a session
// re-lease race would surface as a failed batch, not be papered over.
func startPPFD(seed uint64, counting bool) (*ppfd, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ppfd{srv: serve.NewServer(serve.Config{}), done: make(chan error, 1)}
	var served net.Listener = lis
	if counting {
		p.lis = &countingListener{Listener: lis}
		served = p.lis
	}
	go func() { p.done <- p.srv.Serve(served) }()
	for i := 0; i < serveStreams; i++ {
		c, err := serve.Dial(lis.Addr().String(), fmt.Sprintf("perfbench-seed%d-stream%d", seed, i))
		if err != nil {
			p.close()
			return nil, fmt.Errorf("dialing stream %d: %w", i, err)
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// close disconnects the clients, stops the server and waits for Serve to
// return.
func (p *ppfd) close() {
	for _, c := range p.clients {
		c.Close()
	}
	p.srv.Close()
	<-p.done
}

// streamRun is one client's closed loop. Its memory is fixed before the
// loop starts.
type streamRun struct {
	verdicts verdictLog // every answered batch, warm-up included
	rtt      rttHist    // round trips sent in the measured window
	// decisions[w] counts the decisions of the batches sent in interval w
	// of serveWindow.
	decisions []uint64
	err       error
}

// drive sends batches until end; batches sent before warmEnd warm the
// server and are not timed.
func drive(c *serve.Client, g *eventStream, warmEnd, end time.Time, run *streamRun) {
	batch := make([]engine.Event, serveBatch)
	for {
		g.fill(batch)
		sent := time.Now()
		if sent.After(end) {
			return
		}
		ds, err := c.Decide(batch)
		rtt := time.Since(sent)
		if err != nil {
			run.err = err
			return
		}
		g.answered(batch, ds)
		run.verdicts.add(ds)
		if sent.After(warmEnd) {
			run.rtt.add(rtt)
			run.decisions[int(sent.Sub(warmEnd)/serveWindow)] += uint64(len(ds))
		}
	}
}

// servePhase is one server's measured window.
type servePhase struct {
	runs     []*streamRun
	sheds    uint64
	bytesIn  uint64
	bytesOut uint64
	applyUs  float64 // mean per batch, local replay
	mismatch []int   // failed batches per stream
	rtt      rttHist // both streams
	// rate is the median over the window's serveWindow intervals of the
	// decisions per second of both streams.
	rate      float64
	intervals int
	batches   int
	errors    int
}

// runServePhase starts a server, drives every stream for the warm-up and
// window, stops the server, then replays each stream through a local
// engine.Session: the replay checks every served verdict and times the
// kernel alone.
func runServePhase(seed uint64, window time.Duration, counting bool) (servePhase, error) {
	ph := servePhase{intervals: int(window / serveWindow)}
	for range serveStreams {
		ph.runs = append(ph.runs, &streamRun{verdicts: newVerdictLog(), decisions: make([]uint64, ph.intervals+1)})
	}
	p, err := startPPFD(seed, counting)
	if err != nil {
		return ph, err
	}

	warmEnd := time.Now().Add(serveWarmup)
	end := warmEnd.Add(window)
	var wg sync.WaitGroup
	for i, c := range p.clients {
		wg.Add(1)
		go func(i int, c *serve.Client) {
			defer wg.Done()
			drive(c, newEventStream(seed, i), warmEnd, end, ph.runs[i])
		}(i, c)
	}
	wg.Wait()
	p.close()
	runtime.GC()
	ph.sheds = p.srv.Sheds()
	if p.lis != nil {
		ph.bytesIn, ph.bytesOut = p.lis.in.Load(), p.lis.out.Load()
	}

	ph.mismatch = make([]int, serveStreams)
	applies := make([]time.Duration, serveStreams)
	for i := range ph.runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			applies[i], ph.mismatch[i] = replay(seed, i, ph.runs[i].verdicts)
		}(i)
	}
	wg.Wait()
	var apply time.Duration
	for i, run := range ph.runs {
		apply += applies[i]
		ph.batches += run.verdicts.batches
		ph.rtt.merge(&run.rtt)
		if run.err != nil {
			ph.errors++
		}
	}
	ph.applyUs = micros(apply) / float64(max(ph.batches, 1))

	// Only whole intervals count; the loop stops at the window's end.
	var rates []float64
	for w := 0; w < ph.intervals; w++ {
		var decisions uint64
		for _, run := range ph.runs {
			decisions += run.decisions[w]
		}
		rates = append(rates, float64(decisions)/serveWindow.Seconds())
	}
	ph.rate = median(rates)
	return ph, nil
}

// replay feeds stream i's batches through a fresh local session, timing
// each ApplyBatch, and counts the batches of every verdict group whose
// hash differs from the served one.
func replay(seed uint64, i int, served verdictLog) (apply time.Duration, mismatches int) {
	g := newEventStream(seed, i)
	sess := engine.New(core.DefaultConfig())
	batch := make([]engine.Event, serveBatch)
	out := make([]core.Decision, 0, serveBatch)
	h, inSlot := uint32(fnvBasis), 0
	for b := 0; b < served.batches; b++ {
		g.fill(batch)
		start := time.Now()
		out = sess.ApplyBatch(batch, out[:0])
		apply += time.Since(start)
		g.answered(batch, out)
		h = hashDecisions(h, out)
		inSlot++
		if k := checkSlot(b); b+1 == served.batches || checkSlot(b+1) != k {
			if h != served.slots[k] {
				mismatches += inSlot
			}
			h, inSlot = fnvBasis, 0
		}
	}
	return apply, mismatches
}

// checkServe records every batch of a phase as one checked output, failed
// when its verdicts differ from the local replay. An errored batch and a
// shed connection each count as one more failed output.
func checkServe(res *result, ph servePhase) {
	for i, run := range ph.runs {
		res.checkN(run.verdicts.batches, ph.mismatch[i], "ppfd stream %d: batch verdicts differ from the local replay", i)
		if run.err != nil {
			res.check(false, "ppfd stream %d: %v", i, run.err)
		}
	}
	if ph.sheds > 0 {
		res.checkN(int(ph.sheds), int(ph.sheds), "ppfd: server shed connections")
	}
}

// ppfdSetups times serveSetupReps server starts with their dials. Set-up
// spans the client, the listener and the connection handlers, so it is
// measured in the process's CPU time.
func ppfdSetups(seed uint64) ([]float64, error) {
	var out []float64
	for i := 0; i < serveSetupReps; i++ {
		var p *ppfd
		var err error
		_, cpu := measure(func() { p, err = startPPFD(seed, false) })
		if err != nil {
			return nil, err
		}
		out = append(out, cpu.Seconds())
		p.close()
	}
	return out, nil
}

func runPPFD2Stream(cfg runConfig, res *result) error {
	setups, err := ppfdSetups(cfg.seed)
	if err != nil {
		return err
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	ph, err := runServePhase(cfg.seed, window, false)
	if err != nil {
		return err
	}
	checkServe(res, ph)
	after, err := ppfdSetups(cfg.seed)
	if err != nil {
		return err
	}
	setups = append(setups, after...)

	res.set("work_per_s", ph.rate)
	res.set("op_p50_us", ph.rtt.quantileUs(0.50))
	res.set("setup_s", median(setups))
	res.note("decisions_per_s %.1f decisions/s (%d streams, %d-event batches, closed loop; median of %d %v intervals)",
		ph.rate, serveStreams, serveBatch, ph.intervals, serveWindow)
	res.note("rtt_p50_us %.3f us, rtt_p99_us %.3f us over the window (n=%d round trips)",
		ph.rtt.quantileUs(0.50), ph.rtt.quantileUs(0.99), ph.rtt.n)
	res.note("engine.apply_us_per_batch %.3f us (local replay of the same batches)", ph.applyUs)

	if cfg.trace {
		tph, err := runServePhase(cfg.seed, window, true)
		if err != nil {
			return err
		}
		checkServe(res, tph)
		apply := ph.applyUs
		res.set("serve.batches", float64(tph.batches))
		res.set("serve.bytes_in_per_batch", ratio(float64(tph.bytesIn), float64(tph.batches)))
		res.set("serve.bytes_out_per_batch", ratio(float64(tph.bytesOut), float64(tph.batches)))
		res.set("serve.rtt_samples", float64(ph.rtt.n))
		res.set("serve.wire_us_per_batch", ph.rtt.meanUs()-apply)
		res.set("serve.sheds", float64(ph.sheds+tph.sheds))
		res.set("serve.errors", float64(ph.errors+tph.errors))
		res.set("engine.apply_us_per_batch", apply)
		res.set("setup.ns", median(setups)*1e9)
		res.set("trace.overhead_frac", ratio(ph.rate, tph.rate)-1)
	}
	return nil
}
