#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload solo --seed 1 --seconds 20 --trace 0
#
# Every build artefact and the Go build cache stay under .bench_build in
# the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
mkdir -p "$build"
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" "$@"
