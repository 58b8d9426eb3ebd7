#!/bin/sh
# benchlocality.sh — gate active-set scheduling (DESIGN.md §9).
#
# Two assertions, each on per-size medians over five rounds. A round runs
# every size once, so a size's five samples are spread over the whole run:
# `-count 5` takes them back to back (n=1024's five in 70 ms), a slow
# stretch of a shared host lands on one size whole, and the 1.3 ratio below
# read over its limit 7 times in 30 that way against once in 30 this way
# (and 3 in 5 from single samples).
#
#   1. Active-set scheduling is sub-linear in total component count: the
#      engine's BenchmarkIdleFraction steps a fixed 64-component active
#      region inside total populations 64x apart (1k vs 64k components).
#      Linear scheduling would cost ~64x more per step; the gate requires
#      the ratio to stay under 8 (far below linear and generous to host
#      noise).
#
#   2. A component asleep until a finite cycle costs nothing until then:
#      BenchmarkTimedSleepers steps 1k and 64k components of which 1% are
#      awake and the rest sleep 200-1200 cycles at a time, and 64k of which
#      the rest are parked for good. The time per Tick executed (ns/tick)
#      must agree between the two sizes within 1.3, and among 64k timed
#      sleepers must stay within 8 (measured ~3, the cost of filing and
#      expiring a timer over that of an empty Tick) of what it is among
#      parked ones. A sweep that visits sleepers pays ~87 visits per Tick
#      here and reads ~60x.
set -eu

cd "$(dirname "$0")/.."

ratio_max=8
tick_ratio_max=1.3
tick_cost_max=8

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# median FILE NAME UNIT: the median, over the rounds in FILE, of the value
# printed before UNIT on benchmark NAME's lines.
median() {
    awk -v name="$2" -v unit="$3" '
        $1 ~ "^" name "-[0-9]+$" { for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1) }
    ' "$1" | sort -g | awk '{ v[NR] = $1 } END { if (NR) print v[int((NR + 1) / 2)] }'
}

# within LABEL VALUE BASE LIMIT MESSAGE: print VALUE/BASE and fail with
# MESSAGE when it is over LIMIT.
within() {
    r=$(awk -v a="$2" -v b="$3" 'BEGIN { printf "%.2f", a / b }')
    echo "  $1: ${r}x (max $4x)"
    awk -v r="$r" -v m="$4" 'BEGIN { exit !(r <= m) }' || {
        echo "FAIL: $5 (${r}x, limit $4x); the samples:" >&2
        grep '^Benchmark' "$tmp/bench.txt" >&2
        exit 1
    }
}

echo "benchlocality: BenchmarkIdleFraction and BenchmarkTimedSleepers, five rounds..."
go test -c -o "$tmp/sim.test" ./internal/sim
for round in 1 2 3 4 5; do
    "$tmp/sim.test" -test.run xxx -test.bench 'BenchmarkIdleFraction|BenchmarkTimedSleepers' -test.benchtime 50000x
done > "$tmp/bench.txt"
small=$(median "$tmp/bench.txt" 'BenchmarkIdleFraction/total=1024' ns/op)
large=$(median "$tmp/bench.txt" 'BenchmarkIdleFraction/total=65536' ns/op)
t_small=$(median "$tmp/bench.txt" 'BenchmarkTimedSleepers/n=1024' ns/tick)
t_large=$(median "$tmp/bench.txt" 'BenchmarkTimedSleepers/n=65536' ns/tick)
t_parked=$(median "$tmp/bench.txt" 'BenchmarkTimedSleepers/n=65536/parked' ns/tick)

if [ -z "$small" ] || [ -z "$large" ] || [ -z "$t_small" ] || [ -z "$t_large" ] || [ -z "$t_parked" ]; then
    echo "benchlocality: could not parse the benchmark output:" >&2
    cat "$tmp/bench.txt" >&2
    exit 2
fi

echo "  idle step:  total=1024 $small ns/op, total=65536 $large ns/op"
echo "  timed tick: n=1024 $t_small, n=65536 $t_large, n=65536 parked $t_parked ns/tick"
within "step cost, 64x the components" "$large" "$small" "$ratio_max" \
    "idle-fraction step cost grew with total component count: scheduling is not sub-linear"
within "tick cost, 64k vs 1k timed sleepers" "$t_large" "$t_small" "$tick_ratio_max" \
    "a Tick among 64k timed sleepers costs more than one among 1k: sleepers are not free"
within "tick cost, timed vs parked" "$t_large" "$t_parked" "$tick_cost_max" \
    "a Tick among timed sleepers costs more than one among parked components: sleepers are being visited"
echo "benchlocality: OK"
