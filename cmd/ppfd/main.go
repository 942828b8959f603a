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
//	ppfd -loadtest -out f.json      # also write the rows to f.json
//
// The load test measures 1, 8 and 64 concurrent streams of 200,000
// synthetic events each, in batches of 512, and prints one serve row
// per stream count; with -out it also writes them as an envelope
// (schema internal/stats.Bench). The in-process rows are the serve rows
// of cmd/bench's BENCH_layers.json, on the same event streams; -addr is
// what only this command can measure.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/serve"
	"repro/internal/stats"
)

func main() {
	addr := flag.String("addr", "", "listen address (serve mode) or target server (loadtest mode); serve default 127.0.0.1:9177")
	loadtest := flag.Bool("loadtest", false, "run the load harness instead of serving")
	out := flag.String("out", "", "loadtest: also write the rows to this envelope file")
	flag.Parse()

	if *loadtest {
		if err := runLoadtest(*addr, *out); err != nil {
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

func runLoadtest(addr, out string) error {
	rows, err := serve.RunLoad(addr)
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
