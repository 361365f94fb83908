#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build outputs, the Go build cache
# and temporary files stay under .bench_build/ in that checkout. The build
# fails, and the script exits non-zero without printing a result, when
# the module's sources are not present.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -o "$out/perfbench" ./perfbench >&2
exec "$out/perfbench" "$@"
