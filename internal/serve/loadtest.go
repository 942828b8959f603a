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

// loadShape is a load test's shape: the concurrency levels, one row
// each, the synthetic events each stream sends, and the events per
// batch frame.
type loadShape struct {
	streams       []int
	events, batch int
}

// loadSeed diversifies the synthetic streams; stream i uses loadSeed+i.
const loadSeed = 0x9E3779B97F4A7C15

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

// RunLoad measures serving throughput at 1, 8 and 64 concurrent
// streams of 200,000 events each, in batches of 512, and returns one
// decisions/s row per level. It drives the server at addr, or, when
// addr is empty, an in-process server on a loopback port that it tears
// down after. Each stream leases its own session (zero cross-client
// contention), so levels scale with server cores until the socket or
// scheduler saturates. A level that sheds a client of the in-process
// server, or leaves a candidate without a verdict, is an error naming
// its row.
func RunLoad(addr string) ([]stats.Row, error) {
	return runLoad(addr, loadShape{streams: []int{1, 8, 64}, events: 200_000, batch: 512})
}

// runLoad is RunLoad at any shape.
func runLoad(addr string, shape loadShape) ([]stats.Row, error) {
	var srv *Server
	if addr == "" {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv = NewServer(Config{})
		go srv.Serve(lis)
		defer srv.Close()
		addr = lis.Addr().String()
	}

	var rows []stats.Row
	for _, streams := range shape.streams {
		lv, err := runLevel(addr, srv, streams, shape)
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
func runLevel(addr string, srv *Server, streams int, shape loadShape) (level, error) {
	type result struct {
		candidates, verdicts uint64
		err                  error
	}
	results := make([]result, streams)
	lv := level{row: stats.Row{
		Layer:  stats.LayerServe,
		Name:   "decisions",
		Params: fmt.Sprintf("streams=%d batch=%d events=%d", streams, shape.batch, shape.events),
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
			gen := newEventGen(loadSeed + uint64(i))
			batch := make([]engine.Event, shape.batch)
			for remaining := shape.events; remaining > 0; remaining -= shape.batch {
				n := min(shape.batch, remaining)
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
