#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload ppf-1c --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write (Go build cache, binary, sweep stores) stays under .bench_build in
# that checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=readonly

# Build output goes to stderr so the result line stays last on stdout.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/run" "$@"
