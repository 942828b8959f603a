// Command ppfd is the streaming prefetch-decision server: PPF
// filter-as-a-service over the internal/serve length-prefixed binary
// protocol. Each client leases a perceptron-filter session by key,
// streams candidate/training events in batches, and reads back issue or
// drop verdicts that are bit-identical to what the simulator's filter
// would have produced on the same stream.
//
// Usage:
//
//	ppfd                            # serve on 127.0.0.1:9177
//	ppfd -addr :9177                # serve on all interfaces
//	ppfd -loadtest                  # spin an in-process server and
//	                                # print decisions/sec per level
//	ppfd -loadtest -addr host:port  # load-test a remote server instead
//	ppfd -loadtest -streams 1,8,64 -events 200000 -batch 512 -out f.json
//
// The load test prints one serve row per stream count, and with -out
// also writes them as an envelope (schema internal/stats.Bench). The
// same in-process rows are part of cmd/bench's BENCH_layers.json;
// -addr is what only this command can measure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/serve"
	"repro/internal/stats"
)

func main() {
	addr := flag.String("addr", "", "listen address (serve mode) or target server (loadtest mode); serve default 127.0.0.1:9177")
	loadtest := flag.Bool("loadtest", false, "run the load harness instead of serving")
	streamsCSV := flag.String("streams", "1,8,64", "loadtest: comma-separated concurrent stream counts")
	events := flag.Int("events", 200_000, "loadtest: events per stream")
	batch := flag.Int("batch", 512, "loadtest: events per batch frame")
	seed := flag.Uint64("seed", 1, "loadtest: base seed for the synthetic event streams")
	out := flag.String("out", "", "loadtest: also write the rows to this envelope file")
	flag.Parse()

	if *loadtest {
		if err := runLoadtest(*addr, *streamsCSV, *events, *batch, *seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "ppfd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	listen := *addr
	if listen == "" {
		listen = "127.0.0.1:9177"
	}
	srv := serve.NewServer(serve.Config{})
	fmt.Printf("ppfd: serving prefetch decisions on %s\n", listen)
	if err := srv.ListenAndServe(listen); err != nil {
		fmt.Fprintf(os.Stderr, "ppfd: %v\n", err)
		os.Exit(1)
	}
}

func runLoadtest(addr, streamsCSV string, events, batch int, seed uint64, out string) error {
	streams, err := parseStreams(streamsCSV)
	if err != nil {
		return err
	}
	rows, err := serve.RunLoad(serve.LoadConfig{
		Addr:            addr,
		Streams:         streams,
		EventsPerStream: events,
		Batch:           batch,
		Seed:            seed,
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Printf("%-40s %12.0f %s\n", row.Params, row.Value, row.Unit)
	}
	if out == "" {
		return nil
	}
	b := stats.NewBench(1)
	b.Rows = rows
	if err := b.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// parseStreams parses the -streams CSV into ascending-order-free ints.
func parseStreams(csv string) ([]int, error) {
	var streams []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -streams entry %q", part)
		}
		streams = append(streams, n)
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("-streams is empty")
	}
	return streams, nil
}
