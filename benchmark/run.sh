#!/usr/bin/env bash
# Builds the benchmark harness and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload pingpong_8b --seed 1 --seconds 10 --trace 0
#
# The harness is a test-only Go package (README.md, "Traps"), so "build" is
# `go test -c`. Everything the build and the run write stays under
# benchmark/out: the binary, the Go build cache and work directory, traces
# and set documents.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark: $root is not the viampi module (no go.mod): nothing to measure" >&2
	exit 2
fi

out="$root/benchmark/out"
bin="$out/bench.test"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

# Rebuild when the binary is missing or any source is newer than it.
if [ ! -x "$bin" ] || [ -n "$(find . -path ./benchmark/out -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	go test -c -o "$bin" ./benchmark >&2
fi
exec "$bin" "$@"
