#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload figure-point --seed 1 --seconds 25 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# repository root, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"
