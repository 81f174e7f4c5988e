#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload uniform-mobility --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build caches and outputs stay under
# .bench_build in the current directory, and nothing is fetched: perfbench
# uses the repository through a local replace directive.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off
cd "$root/perfbench"
go build -o "$build/bin/perfbench" . >&2 || go build -buildvcs=false -o "$build/bin/perfbench" . >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
