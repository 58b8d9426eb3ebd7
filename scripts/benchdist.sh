#!/bin/sh
# benchdist.sh — multi-process engine: bit-identity on any host.
#
# Runs the dist experiment through nifdy-bench: the same mesh workload over
# 1 and 2 (and, on hosts with at least 4 CPUs, 4) worker processes, one
# engine shard per worker, connected by the socket transport. The binary
# exits nonzero unless every run's full state trace is byte-identical to the
# 1-process run's; that is the gate. Its table also prints each run's wall
# clock and its ratio to the 1-process run — reported, not asserted: the
# ratio measured so far is below 1 (0.42 and 0.54 on two 2-CPU hosts).
# Set BENCH_OUT to keep the run's JSON.
set -eu

exec go run ./cmd/nifdy-bench -exp dist ${BENCH_OUT:+-json "$BENCH_OUT"}
