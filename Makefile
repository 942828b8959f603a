GO ?= go

.PHONY: check build vet test perfbench-check race determinism lint lint-fix bench bench-smoke serve-smoke sweep-smoke fuzz-smoke profile experiments clean

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
# the server (one goroutine per connection, whose sessions change hands
# under Server.mu, plus the listener and Close), the engine sessions
# those connections drive, and the runner's worker pool + memo cache.
# These are the packages guardedby annotates; the race detector checks
# the same invariants dynamically that ppflint checks statically.
# -count=1 defeats the test cache so the schedules actually re-run. The
# second line repeats the serve lease, reattach, churn, shed and
# pipelining tests 50 times: a lease released after its error frame is
# written, or after the connection closes, shows up as an intermittent
# ErrSessionBusy there (TestSessionReattach dials again once, right
# after Close). TestConnectionChurn races 16 clients over 8 keys
# through the session map and then counts exactly 8 sessions.
# TestPipelinedClientOrdering queues 16 batches ahead of the server,
# which reads each frame into the connection's one reused receive
# buffer; a frame read over a batch still being decoded or applied
# shows up as a wrong verdict. The third line repeats the runner's
# tests 50 times: a job started after another job's panic, or a job's
# wall-time slot read before its worker wrote it, shows up there.
race:
	$(GO) test -race -count=1 ./internal/serve/... ./internal/engine/... ./internal/runner/...
	$(GO) test -race -count=50 -run 'TestLeaseFreeAfterErrorFrame|TestProtocolErrors|TestSessionBusy|TestSessionReattach|TestConnectionChurn|TestSlowClientShed|TestPipelinedClientOrdering' ./internal/serve/
	$(GO) test -race -count=50 ./internal/runner/

# determinism re-runs only the golden tests that prove -j 1 and -j 8
# produce byte-identical experiment reports.
determinism:
	$(GO) test -race -run Deterministic -count=1 ./internal/experiment/

# bench measures every layer with a recorded speed (kernels, sim cells,
# served round trips, the sweep fabric), best of 5 runs per row, gates
# the run against the committed BENCH_layers.json and then overwrites
# it. It is CI's bench command with a different -out; the envelope and
# the gate bounds are documented in EXPERIMENTS.md. A row that moved
# past its bound exits 1 after the new file is written.
bench:
	$(GO) run ./cmd/bench -baseline BENCH_layers.json -out BENCH_layers.json

# bench-smoke compiles and runs every micro-benchmark once — a CI guard
# that the benchmarks themselves keep working, without timing anything.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# serve-smoke runs the decision server's race-focused suite (concurrent
# client churn, slow-client shedding, the served-vs-local bit-identical
# golden) plus the engine batch golden it builds on.
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/engine/

# sweep-smoke runs the distributed-sweep fabric's suite under the race
# detector: the remote store round trips (corruption tolerance, tiering,
# path escapes) and the fleet goldens — byte-identical tables at 1/2/4
# workers, crash -> requeue -> exactly-once re-run, corrupt publish ->
# one re-run. The second line repeats the lease tests 50 times: each
# waits on a blocking lease instead of sleeping, so a lease granted
# twice, a requeue lost on disconnect or a wake-up missed by a blocked
# lease shows up as a wrong op, a wrong counter or a hang there.
sweep-smoke:
	$(GO) test -race -count=1 ./internal/simstore/ ./internal/sweepfab/
	$(GO) test -race -count=50 -run 'TestWireLeaseGrantAndCompletion|TestWireDisconnectRequeues|TestFleetCrashRerunsOnce|TestFleetCorruptPublishReopens|TestBoard' ./internal/sweepfab/

# fuzz-smoke runs each native fuzz target briefly on top of its
# committed seed corpus: the ChampSim trace decode path, the seal every
# snapshot and store entry is framed in, the snapshot/result codecs, the
# component walkers and the session restore behind that seal (fed
# unsealed streams, which a checksum would otherwise stop), and the ppfd
# and sweep-fabric frame decoders (server, coordinator and client
# sides). `go test -fuzz` accepts one target per invocation, so the
# targets run back to back. Longer sessions: raise FUZZTIME or run a
# single target by hand. The three snapshot targets are seeded with
# real snapshots tens to hundreds of kilobytes long; the engine's
# default 60 s minimization of each new interesting input that long
# took their whole FUZZTIME (7 to 91 executions in 30 s from an empty
# fuzz cache, against 9,108 to 129,010 at 1 s), so they minimize for
# at most 1 s.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/tracefile/
	$(GO) test -run '^$$' -fuzz '^FuzzAdapter$$' -fuzztime $(FUZZTIME) ./internal/tracefile/
	$(GO) test -run '^$$' -fuzz '^FuzzUnseal$$' -fuzztime $(FUZZTIME) ./internal/snap/
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotWalk$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSessionRestore$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzServeFrame$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzFabricFrame$$' -fuzztime $(FUZZTIME) ./internal/sweepfab/

# profile captures CPU and heap profiles of a 1-core and a 4-core sweep;
# inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/experiments -run fig1,fig11 -quick -cpuprofile cpu.pprof -memprofile mem.pprof

experiments:
	$(GO) run ./cmd/experiments -run all -quick -progress

clean:
	$(GO) clean ./...
	rm -rf .simcache
