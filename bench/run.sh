#!/bin/bash
# Entry point BENCHMARK.json names: build the benchmark from source
# inside the checkout and run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
# Everything it writes -- Go's build cache, the binary, the snapshot
# dirs of cold-keys -- lands under .bench_build at the checkout's root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Stamp the commit into the run header where the checkout is a usable
# git repository; build unstamped where it is not.
go build -C "$root/bench" -o "$build/quq-bench" . 2>/dev/null ||
	go build -C "$root/bench" -buildvcs=false -o "$build/quq-bench" .
exec "$build/quq-bench" -scratch "$build/tmp" "$@"
