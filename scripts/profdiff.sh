#!/bin/sh
# profdiff.sh OLD.prof NEW.prof [N] — compare two CPU profiles function by
# function.
#
# Prints a table of the top N (default 15) functions by absolute flat-cost
# change between two pprof profiles of the same workload (e.g.
# `go run ./cmd/nifdy-bench -exp f2 -cpuprofile f2.prof` before and after
# an optimization). Positive deltas are functions that got more
# expensive, negative ones cheaper; functions present in only one profile
# show the full cost as the delta. Flat percentages are of each profile's
# own total, so the table is meaningful even when total wall clock changed —
# that shift is printed separately.
#
# Uses only `go tool pprof -top`, so it works wherever the go toolchain does.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 OLD.prof NEW.prof [N]" >&2
    exit 2
fi
old=$1
new=$2
n=${3:-15}
for f in "$old" "$new"; do
    if [ ! -r "$f" ]; then
        echo "profdiff: cannot read $f" >&2
        exit 2
    fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# -top lines: "  flat  flat%  sum%  cum  cum%  name". Units vary (ms/s), so
# normalize to milliseconds keyed by function name.
top() {
    go tool pprof -top -nodecount 100000 -unit ms "$1" 2>/dev/null |
        awk '/^ *[0-9.]+ms/ {
            flat = $1; sub(/ms$/, "", flat)
            name = $6; for (i = 7; i <= NF; i++) name = name " " $i
            print flat "\t" name
        }'
}
top "$old" > "$tmp/old.tsv"
top "$new" > "$tmp/new.tsv"
for f in old new; do
    if [ ! -s "$tmp/$f.tsv" ]; then
        echo "profdiff: no samples parsed from $(eval echo \$$f) (is it a CPU profile?)" >&2
        exit 2
    fi
done

awk -F'\t' -v n="$n" '
    FNR == 1 { file++ }
    file == 1 { o[$2] = $1; ototal += $1; next }
    { nn[$2] = $1; ntotal += $1 }
    END {
        for (k in o) seen[k] = 1
        for (k in nn) seen[k] = 1
        i = 0
        for (k in seen) {
            d = (k in nn ? nn[k] : 0) - (k in o ? o[k] : 0)
            keys[i] = k; delta[i] = d; i++
        }
        # selection sort by |delta|: n is small and portable awk has no sort
        for (a = 0; a < i && a < n; a++) {
            best = a
            for (b = a + 1; b < i; b++) {
                da = delta[best] < 0 ? -delta[best] : delta[best]
                db = delta[b] < 0 ? -delta[b] : delta[b]
                if (db > da) best = b
            }
            t = keys[a]; keys[a] = keys[best]; keys[best] = t
            t = delta[a]; delta[a] = delta[best]; delta[best] = t
        }
        printf "%12s %12s %12s  %s\n", "old(ms)", "new(ms)", "delta(ms)", "function"
        for (a = 0; a < i && a < n; a++) {
            k = keys[a]
            printf "%12.0f %12.0f %+12.0f  %s\n", (k in o ? o[k] : 0), (k in nn ? nn[k] : 0), delta[a], k
        }
        printf "\ntotal flat: %.0fms -> %.0fms (%+.1f%%)\n", ototal, ntotal, (ntotal/ototal - 1) * 100
    }
' "$tmp/old.tsv" "$tmp/new.tsv"
