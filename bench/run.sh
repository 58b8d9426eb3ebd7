#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout: bash bench/run.sh --workload flit_heavy
# --seed 1995 --seconds 10 --trace 0. Everything the build writes (the
# program, Go's build cache, module cache and telemetry counters) stays in
# .bench_build/ inside the checkout.
set -euo pipefail
out=$PWD/.bench_build
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
