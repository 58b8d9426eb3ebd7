#!/bin/sh
# benchlocality.sh — gate active-set scheduling (DESIGN.md §10).
#
# Three assertions:
#
#   1. Active-set scheduling is sub-linear in total component count: the
#      engine's BenchmarkIdleFraction steps a fixed 64-component active
#      region inside total populations 64x apart (1k vs 64k components).
#      Linear scheduling would cost ~64x more per step; the gate requires
#      the ratio to stay under RATIO_MAX (default 8, far below linear and
#      generous to host noise).
#
#   2. A component asleep until a finite cycle costs nothing until then:
#      BenchmarkTimedSleepers steps 1k and 64k components of which 1% are
#      awake and the rest sleep 200-1200 cycles at a time, and 64k of which
#      the rest are parked for good. The time per Tick executed (ns/tick)
#      must agree between the two sizes within TICK_RATIO_MAX (default
#      1.3), and among 64k timed sleepers must stay within TICK_COST_MAX
#      (default 8; measured ~3, the cost of filing and expiring a timer
#      over that of an empty Tick) of what it is among parked ones. A sweep
#      that visits sleepers pays ~87 visits per Tick here and reads ~60x.
#
#   3. The hot path got faster, not just different: BenchmarkFigure2Heavy
#      wall clock must beat the committed baseline from before the active
#      set (BENCH_2026-08-06_zeroalloc.json, f2 = 47.95s) by at least 20%,
#      enforced through benchdiff.sh with a negative regression threshold
#      (REGRESS_PCT=-20 turns the regression check into a speedup floor).
#
# Set BENCH_OUT to keep the measured f2 run as a committable BENCH JSON.
set -eu

cd "$(dirname "$0")/.."

baseline=${BASELINE:-BENCH_2026-08-06_zeroalloc.json}
ratio_max=${RATIO_MAX:-8}
tick_ratio_max=${TICK_RATIO_MAX:-1.3}
tick_cost_max=${TICK_COST_MAX:-8}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "benchlocality: active-set sub-linearity (BenchmarkIdleFraction)..."
go test -run xxx -bench BenchmarkIdleFraction -benchtime 2s ./internal/sim > "$tmp/idle.txt"
small=$(awk '/BenchmarkIdleFraction\/total=1024/  {print $3}' "$tmp/idle.txt")
large=$(awk '/BenchmarkIdleFraction\/total=65536/ {print $3}' "$tmp/idle.txt")
if [ -z "$small" ] || [ -z "$large" ]; then
    echo "benchlocality: could not parse BenchmarkIdleFraction output:" >&2
    cat "$tmp/idle.txt" >&2
    exit 2
fi
ratio=$(awk -v s="$small" -v l="$large" 'BEGIN{printf "%.2f", l/s}')
echo "  total=1024:  $small ns/op"
echo "  total=65536: $large ns/op  (ratio ${ratio}x for 64x the components, max ${ratio_max}x)"
awk -v r="$ratio" -v m="$ratio_max" 'BEGIN{exit !(r <= m)}' || {
    echo "FAIL: idle-fraction step cost grew ${ratio}x for 64x the components (limit ${ratio_max}x): scheduling is not sub-linear" >&2
    exit 1
}

echo "benchlocality: timed sleepers cost nothing (BenchmarkTimedSleepers)..."
go test -run xxx -bench BenchmarkTimedSleepers -benchtime 50000x ./internal/sim > "$tmp/timed.txt"
# The custom metric's value is the field before its "ns/tick" unit.
pertick() { awk -v name="$1" '$1 ~ "^BenchmarkTimedSleepers/" name "-[0-9]+$" {for (i = 2; i <= NF; i++) if ($i == "ns/tick") print $(i-1)}' "$tmp/timed.txt"; }
small=$(pertick 'n=1024')
large=$(pertick 'n=65536')
parked=$(pertick 'n=65536/parked')
if [ -z "$small" ] || [ -z "$large" ] || [ -z "$parked" ]; then
    echo "benchlocality: could not parse BenchmarkTimedSleepers output:" >&2
    cat "$tmp/timed.txt" >&2
    exit 2
fi
ratio=$(awk -v s="$small" -v l="$large" 'BEGIN{printf "%.2f", l/s}')
cost=$(awk -v p="$parked" -v l="$large" 'BEGIN{printf "%.2f", l/p}')
echo "  n=1024:         $small ns/tick"
echo "  n=65536:        $large ns/tick  (ratio ${ratio}x, max ${tick_ratio_max}x)"
echo "  n=65536 parked: $parked ns/tick  (timed costs ${cost}x, max ${tick_cost_max}x)"
awk -v r="$ratio" -v m="$tick_ratio_max" 'BEGIN{exit !(r <= m)}' || {
    echo "FAIL: a Tick among 64k timed sleepers costs ${ratio}x one among 1k (limit ${tick_ratio_max}x): sleepers are not free" >&2
    exit 1
}
awk -v r="$cost" -v m="$tick_cost_max" 'BEGIN{exit !(r <= m)}' || {
    echo "FAIL: a Tick among timed sleepers costs ${cost}x one among parked components (limit ${tick_cost_max}x): sleepers are being visited" >&2
    exit 1
}

echo "benchlocality: Figure 2 heavy traffic vs pre-active-set baseline ($baseline)..."
go test -run xxx -bench BenchmarkFigure2Heavy -benchtime 1x -timeout 1800s . > "$tmp/f2.txt"
f2ns=$(awk '/^BenchmarkFigure2Heavy/ {print $3}' "$tmp/f2.txt")
if [ -z "$f2ns" ]; then
    echo "benchlocality: could not parse BenchmarkFigure2Heavy output:" >&2
    cat "$tmp/f2.txt" >&2
    exit 2
fi
jq -n --argjson ns "$f2ns" \
    --arg date "$(date -u +%F)" --arg gover "$(go env GOVERSION)" --arg arch "$(go env GOARCH)" '
  {date: $date, go_version: $gover, goarch: $arch, full: false,
   note: "benchlocality.sh: active-set scheduling gate run",
   experiments: [{name: "f2", ns_per_op: $ns}]}
' > "$tmp/f2.json"
if [ -n "${BENCH_OUT:-}" ]; then
    cp "$tmp/f2.json" "$BENCH_OUT"
fi

# A negative threshold flips benchdiff's regression check into a speedup
# floor: the new f2 must be at least 20% below the old baseline's ns/op.
REGRESS_PCT=${REGRESS_PCT:--20} ./scripts/benchdiff.sh "$baseline" "$tmp/f2.json" || {
    echo "FAIL: Figure2Heavy did not beat the pre-active-set baseline by the required margin" >&2
    exit 1
}
echo "benchlocality: OK"
