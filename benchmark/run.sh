#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of
# the repository; every argument is passed to the benchmark binary:
#
#   bash benchmark/run.sh --workload serve-put --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the repository root, so the benchmark reads and writes
# nothing outside the checkout and needs no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/fidelius-bench" .)
exec "$out/fidelius-bench" "$@"
