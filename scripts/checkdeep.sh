#!/bin/sh
# checkdeep.sh [minutes] — the deep correctness sweep behind `make check-deep`.
#
# Three stages, each with every invariant monitor armed:
#   1. the full monitor acceptance matrix and mutation suite (internal/check)
#   2. a scaled-up randomized cross-configuration fuzz sweep (via the
#      NIFDY_FUZZ_* environment overrides read by TestFuzzSweepClean)
#   3. native Go fuzzing of ring.Deque, of the wire's event ring against a
#      plain-slice reference (FuzzWire), of the flow solver's share-class
#      store (remainder FIFOs plus a 4-ary heap) against a sorted reference
#      (FuzzClassHeap) and of the flow solver against its advance-everything
#      reference (FuzzSolverDifferential)
#
# The argument (or CHECK_DEEP_MINUTES) caps the add-on budget: the fuzz sweep
# trial count and the per-target native fuzz time scale with it. Default 5
# minutes; stage 1 always runs in full regardless of the cap.
set -eu

MINUTES=${1:-${CHECK_DEEP_MINUTES:-5}}
case "$MINUTES" in
    ''|*[!0-9]*) echo "usage: $0 [minutes]" >&2; exit 2 ;;
esac
if [ "$MINUTES" -lt 1 ]; then
    MINUTES=1
fi

GO=${GO:-go}
# Scale: ~12 randomized fuzz-sweep trials and ~60s of native fuzzing per
# budget minute, 15s for each of the four native targets.
TRIALS=$((MINUTES * 12))
FUZZTIME=$((MINUTES * 15))s

echo "== check-deep: budget ${MINUTES}m (${TRIALS} sweep trials, ${FUZZTIME}/target native fuzz) =="

echo "-- monitor acceptance matrix + mutation suite --"
$GO test -count=1 ./internal/check/

echo "-- randomized cross-configuration sweep (${TRIALS} trials) --"
NIFDY_FUZZ_TRIALS=$TRIALS NIFDY_FUZZ_PACKETS=40 \
    $GO test -count=1 -run 'TestFuzzSweepClean' -timeout 3600s ./internal/harness/

echo "-- native fuzz: ring.Deque (${FUZZTIME}) --"
$GO test -run xxx -fuzz FuzzDeque -fuzztime "$FUZZTIME" ./internal/ring/

echo "-- native fuzz: wire event ring vs plain-slice reference (${FUZZTIME}) --"
$GO test -run xxx -fuzz FuzzWire -fuzztime "$FUZZTIME" ./internal/link/

echo "-- native fuzz: flow share-class FIFOs and heap vs sorted reference (${FUZZTIME}) --"
$GO test -run xxx -fuzz FuzzClassHeap -fuzztime "$FUZZTIME" ./internal/flow/

echo "-- native fuzz: flow solver vs reference (${FUZZTIME}) --"
$GO test -run xxx -fuzz FuzzSolverDifferential -fuzztime "$FUZZTIME" ./internal/flow/

echo "== check-deep: OK =="
