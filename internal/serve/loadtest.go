package serve

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
)

// newLoopbackListener binds an ephemeral loopback port for the
// in-process server mode.
func newLoopbackListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

// LoadConfig parameterizes the load-test harness behind
// cmd/ppfd -loadtest.
type LoadConfig struct {
	// Addr is the server to drive. Empty means the harness starts an
	// in-process server on a loopback port and tears it down after.
	Addr string
	// Streams lists the concurrency levels to measure, one row each.
	// Nil means {1, 8, 64}.
	Streams []int
	// EventsPerStream is the synthetic events each stream sends
	// (default 200k).
	EventsPerStream int
	// Batch is the events-per-frame batch size (default 512).
	Batch int
	// Seed diversifies the synthetic streams; stream i uses Seed+i.
	Seed uint64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Streams == nil {
		c.Streams = []int{1, 8, 64}
	}
	if c.EventsPerStream <= 0 {
		c.EventsPerStream = 200_000
	}
	if c.Batch <= 0 {
		c.Batch = 512
	}
	if c.Seed == 0 {
		c.Seed = 0x9E3779B97F4A7C15
	}
	return c
}

// rng is a splitmix64 generator, carried locally (like internal/advfuzz)
// so the load mix is reproducible from its seed and the package stays
// clear of the determinism analyzer's global-rand ban.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// eventGen streams a deterministic mixed workload shaped like simulator
// traffic: mostly candidates over a strided/random address mix,
// interleaved with demand, load-PC and evict training events. Streaming
// generation keeps a 64-stream load test at one batch of memory per
// stream instead of the full event history.
type eventGen struct {
	r   rng
	pcs [4]uint64
}

func newEventGen(seed uint64) *eventGen {
	return &eventGen{r: rng{s: seed}, pcs: [4]uint64{0x400100, 0x400200, 0x400300, 0x401000}}
}

// fill overwrites events with the next len(events) of the stream.
func (g *eventGen) fill(events []engine.Event) {
	r := &g.r
	for i := range events {
		switch r.intn(10) {
		case 0:
			events[i] = engine.LoadPC(g.pcs[r.intn(len(g.pcs))])
		case 1, 2:
			events[i] = engine.Demand(uint64(r.intn(1<<14)) << 6)
		case 3:
			events[i] = engine.Evict(uint64(r.intn(1<<14))<<6, r.intn(2) == 0)
		default:
			events[i] = engine.Candidate(core.FeatureInput{
				Addr:       uint64(r.intn(1<<14)) << 6,
				PC:         g.pcs[r.intn(len(g.pcs))],
				PCHist:     core.PCHistory{g.pcs[0], g.pcs[1], g.pcs[2]},
				Depth:      1 + r.intn(8),
				Signature:  uint16(r.intn(1 << 12)),
				Confidence: r.intn(101),
				Delta:      r.intn(17) - 8,
			})
		}
	}
}

// syntheticEvents materializes a whole stream (test-sized inputs).
func syntheticEvents(seed uint64, n int) []engine.Event {
	events := make([]engine.Event, n)
	newEventGen(seed).fill(events)
	return events
}

// RunLoad measures serving throughput at each configured concurrency
// level and returns one decisions/s row per level. Each stream leases
// its own session (the sharded-server design point: zero cross-client
// contention), so levels scale with server cores until the socket or
// scheduler saturates. A level that sheds a client of the in-process
// server, or leaves a candidate without a verdict, is an error naming
// its row.
func RunLoad(cfg LoadConfig) ([]stats.Row, error) {
	cfg = cfg.withDefaults()
	addr := cfg.Addr
	var srv *Server
	if addr == "" {
		srv = NewServer(Config{})
		errCh := make(chan error, 1)
		ready := make(chan string, 1)
		go func() {
			lis, err := newLoopbackListener()
			if err != nil {
				errCh <- err
				return
			}
			ready <- lis.Addr().String()
			errCh <- srv.Serve(lis)
		}()
		select {
		case addr = <-ready:
		case err := <-errCh:
			return nil, err
		}
		defer srv.Close()
	}

	var rows []stats.Row
	for _, streams := range cfg.Streams {
		lv, err := runLevel(addr, srv, streams, cfg)
		if err == nil {
			err = lv.check()
		}
		if err != nil {
			return nil, fmt.Errorf("serve row %s: %w", lv.row.Params, err)
		}
		rows = append(rows, lv.row)
	}
	return rows, nil
}

// level is one concurrency level's row and the counts that prove it
// clean.
type level struct {
	row stats.Row
	// candidates counts the candidate events sent, verdicts the
	// decisions received; each candidate gets exactly one.
	candidates, verdicts uint64
	// sheds counts clients the in-process server shed (0 against a
	// remote server, whose sheds the harness cannot see).
	sheds uint64
}

// check is the level's producer check: no client was shed and every
// candidate got its verdict.
func (l level) check() error {
	if l.sheds > 0 {
		return fmt.Errorf("server shed %d client(s)", l.sheds)
	}
	if l.verdicts != l.candidates {
		return fmt.Errorf("%d verdicts for %d candidates", l.verdicts, l.candidates)
	}
	return nil
}

// runLevel drives one concurrency level to completion.
func runLevel(addr string, srv *Server, streams int, cfg LoadConfig) (level, error) {
	type result struct {
		candidates, verdicts uint64
		err                  error
	}
	results := make([]result, streams)
	lv := level{row: stats.Row{
		Layer:  stats.LayerServe,
		Name:   "decisions",
		Params: fmt.Sprintf("streams=%d batch=%d events=%d", streams, cfg.Batch, cfg.EventsPerStream),
		Unit:   "decisions/s",
		Better: stats.Higher,
	}}
	shedsBefore := uint64(0)
	if srv != nil {
		shedsBefore = srv.Sheds()
	}

	var wg sync.WaitGroup
	start := time.Now() //ppflint:allow determinism load-test wall timing is the measurement, not report-determinism data
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			key := fmt.Sprintf("load-%d-of-%d", i, streams)
			c, err := Dial(addr, key)
			if err != nil {
				r.err = err
				return
			}
			defer c.Close()
			gen := newEventGen(cfg.Seed + uint64(i))
			batch := make([]engine.Event, cfg.Batch)
			for remaining := cfg.EventsPerStream; remaining > 0; remaining -= cfg.Batch {
				n := min(cfg.Batch, remaining)
				gen.fill(batch[:n])
				for _, ev := range batch[:n] {
					if ev.Kind == engine.KindCandidate {
						r.candidates++
					}
				}
				ds, err := c.Decide(batch[:n])
				if err != nil {
					r.err = err
					return
				}
				r.verdicts += uint64(len(ds))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start) //ppflint:allow determinism load-test wall timing is the measurement, not report-determinism data

	for _, r := range results {
		if r.err != nil {
			return lv, r.err
		}
		lv.candidates += r.candidates
		lv.verdicts += r.verdicts
	}
	lv.row.Value = float64(lv.verdicts) / elapsed.Seconds()
	if srv != nil {
		lv.sheds = srv.Sheds() - shedsBefore
	}
	return lv, nil
}
