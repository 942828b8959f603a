GO ?= go

.PHONY: check build vet test perfbench-check race determinism lint lint-fix bench bench-smoke serve-smoke serve-bench sweep-smoke sweep-bench fuzz-smoke profile experiments clean

# check is the full CI gate: static checks, build, the full test suite,
# the benchmark module's vet and tests, the focused race pass, and the
# worker-count determinism proof.
check: vet lint build test perfbench-check race determinism

# lint runs the repo's own analyzer suite (ppflint: determinism,
# saturation, hwbudget, counterwiring, sentinel, snapshot, guardedby,
# wireproto, hotpath, errtyped — see EXPERIMENTS.md), then golangci-lint
# and govulncheck when those binaries are installed (CI installs them;
# the dev container may not have network access, so they are gated
# rather than required here).
lint:
	$(GO) run ./cmd/ppflint ./...
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

# lint-fix formats the tree and applies ppflint's suggested fixes
# (e.g. rewriting raw weight-table arithmetic through the saturating
# clamp helpers).
lint-fix:
	gofmt -w .
	$(GO) run ./cmd/ppflint -fix ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# perfbench-check vets and tests the benchmark harness. perfbench is its
# own module (replace repro => ../), so the root build and test targets
# never compile it, yet it calls engine, core and prefetch APIs
# directly; this catches an API change that would break the benchmark
# build before the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# race runs the concurrency-bearing packages under the race detector:
# the serving pipeline (reader/worker/writer per connection over the
# striped registry), the engine sessions those pipelines drive, and the
# runner's worker pool + memo cache. These are the packages guardedby
# annotates; the race detector checks the same invariants dynamically
# that ppflint checks statically. -count=1 defeats the test cache so
# the schedules actually re-run. The second line repeats the serve
# lease tests 50 times (about 2 s): a lease released after its error
# frame is written shows up as an intermittent ErrSessionBusy there.
race:
	$(GO) test -race -count=1 ./internal/serve/... ./internal/engine/... ./internal/runner/...
	$(GO) test -race -count=50 -run 'TestLeaseFreeAfterErrorFrame|TestProtocolErrors|TestSessionBusy' ./internal/serve/

# determinism re-runs only the golden tests that prove -j 1 and -j 8
# produce byte-identical experiment reports.
determinism:
	$(GO) test -race -run Deterministic -count=1 ./internal/experiment/

# bench measures the per-access hot kernels and the end-to-end sim
# rates (per scheme, event-horizon vs legacy loop, plus the memoized
# effective rate), writing BENCH_kernel.json and BENCH_sim.json
# (schemas documented in EXPERIMENTS.md). These are the simulation
# kernel's perf trajectory across PRs; -count 3 medians out machine
# noise.
bench:
	$(GO) run ./cmd/bench -count 3 -out BENCH_kernel.json -simout BENCH_sim.json

# bench-smoke compiles and runs every micro-benchmark once — a CI guard
# that the benchmarks themselves keep working, without timing anything.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# serve-smoke runs the decision server's race-focused suite (concurrent
# client churn, slow-client shedding, the served-vs-local bit-identical
# golden) plus the engine batch golden it builds on.
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/engine/

# serve-bench measures serving throughput (decisions/sec at 1, 8 and 64
# concurrent streams against an in-process server) and writes
# BENCH_serve.json, the serving trajectory tracked alongside the kernel
# and sim-rate snapshots.
serve-bench:
	$(GO) run ./cmd/ppfd -loadtest -streams 1,8,64 -events 200000 -out BENCH_serve.json

# sweep-smoke runs the distributed-sweep fabric's suite under the race
# detector: the remote store round trips (corruption tolerance, tiering,
# path escapes) and the fleet goldens — byte-identical tables at 1/2/4
# workers, crash -> lease expiry -> exactly-once re-run, corrupt publish
# -> reopen.
sweep-smoke:
	$(GO) test -race -count=1 ./internal/simstore/ ./internal/sweepfab/

# sweep-bench measures distributed-sweep throughput over loopback (cold
# cells/sec at 1, 2 and 4 workers plus the warm store-replay rate) and
# writes BENCH_sweep.json, the fabric's trajectory snapshot.
sweep-bench:
	$(GO) run ./cmd/bench -sweeponly -sweepout BENCH_sweep.json

# fuzz-smoke runs each native fuzz target briefly on top of its
# committed seed corpus: the ChampSim trace decode path, the
# snapshot/result codecs, and the ppfd and sweep-fabric frame decoders
# (server, coordinator and client sides). `go test -fuzz` accepts one
# target per invocation, so the targets run back to back. Longer
# sessions: raise FUZZTIME or run a single target by hand.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/tracefile/
	$(GO) test -run '^$$' -fuzz '^FuzzAdapter$$' -fuzztime $(FUZZTIME) ./internal/tracefile/
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzServeFrame$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzFabricFrame$$' -fuzztime $(FUZZTIME) ./internal/sweepfab/

# profile captures CPU and heap profiles of a representative experiment;
# inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/experiments -run fig1 -quick -cpuprofile cpu.pprof -memprofile mem.pprof

experiments:
	$(GO) run ./cmd/experiments -run all -quick -progress

clean:
	$(GO) clean ./...
	rm -rf .simcache
