#!/bin/sh
# Paired, alternating comparison of a base revision against the working
# tree on one bench/ workload:
#
#   scripts/benchpair.sh <base-rev> <pairs> <workload> [first-seed]
#
# The base revision is exported (git archive) into a temporary
# directory, removed on exit. Pair i rides
#   bash bench/run.sh --workload W --seconds 15 --trace 0 --seed S
# at seed S = first-seed + i - 1 (first-seed defaults to 1) once in the
# base and once in the working tree, uncommitted edits included; the base
# runs first in odd pairs. Each run builds its own side's sources.
#
# For every end-to-end metric BENCHMARK.json names, the report gives each
# side's median and quartiles, the change's wins (ties count for
# neither), each pair's change/base ratio, whether the change's median is
# worse than the base's by more than the metric's bound, and whether the
# rule for claiming a gain holds: the change wins at least nine tenths of
# the pairs, and the medians differ, in the better direction, by more
# than the base's quartile spread. A metric equal in every pair is
# reported as identical. Every failed or "correct":false run is listed;
# none is dropped, and a pair with a failed run counts as no win.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/benchpair.sh <base-rev> <pairs> <workload> [first-seed]" >&2
    exit 2
fi
base=$1 pairs=$2 workload=$3 seed0=${4:-1}
case "$pairs$seed0" in
*[!0-9]*)
    echo "benchpair: <pairs> and [first-seed] must be whole numbers" >&2
    exit 2
    ;;
esac
if [ "$pairs" -lt 1 ]; then
    echo "benchpair: <pairs> must be at least 1" >&2
    exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
tmp=$(mktemp -d)
# The base's bench build cache may hold read-only files.
trap 'chmod -R u+w "$tmp" 2>/dev/null; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base" "$tmp/runs"
git -C "$root" archive "$rev" | tar -x -C "$tmp/base"

# ride <side> <dir> <pair> <seed>: one bench run; appends its result
# line, or a failure marker, to $tmp/results.
ride() {
    out="$tmp/runs/$1-$3.txt"
    status=0
    (cd "$2" && bash bench/run.sh --workload "$workload" --seconds 15 --trace 0 --seed "$4") \
        >"$out" 2>&1 || status=$?
    line=$(grep '^{' "$out" | tail -n 1 || true)
    echo "pair $3 seed $4 $1: exit $status ${line:-(no result line)}" >&2
    printf '%s %s %s %s %s\n' "$1" "$3" "$4" "$status" "${line:-none}" >>"$tmp/results"
}

echo "benchpair: $workload, $pairs pairs from seed $seed0, base $rev against the working tree" >&2
i=1
while [ "$i" -le "$pairs" ]; do
    s=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        ride base "$tmp/base" "$i" "$s"
        ride change "$root" "$i" "$s"
    else
        ride change "$root" "$i" "$s"
        ride base "$tmp/base" "$i" "$s"
    fi
    i=$((i + 1))
done

# The end-to-end metrics, their direction and bound, from BENCHMARK.json.
awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/  { on = 0 }
    on && /"name"/   { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better[name] = $2 }
    on && /"bound"/  { gsub(/[",]/, "", $2); print name, better[name], $2 }
' "$root/BENCHMARK.json" >"$tmp/metrics"

awk -v pairs="$pairs" '
    # quant returns the p-quantile of v[1..n], sorted, by linear
    # interpolation between order statistics.
    function quant(v, n, p,   h, lo) {
        h = 1 + (n - 1) * p
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sortv(v, n,   i, j, x) {
        for (i = 2; i <= n; i++) {
            x = v[i]
            for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
            v[j + 1] = x
        }
    }
    FNR == NR { order[++nm] = $1; better[$1] = $2; bound[$1] = $3; next }
    {
        side = $1; pair = $2; seed[pair] = $3; status = $4
        line = $0
        sub(/^[^ ]+ [^ ]+ [^ ]+ [^ ]+ /, "", line)
        ok = status == 0 && line ~ /"correct":true/ && line ~ /"failed":0[,}]/
        if (!ok) {
            bad++
            printf "FAILED RUN: pair %d seed %s %s: exit %s %s\n", pair, seed[pair], side, status, substr(line, 1, 80)
            failedpair[pair] = 1
        }
        while (match(line, /"[A-Za-z0-9_.\/]+":\{"value":[^,}]+/)) {
            m = substr(line, RSTART, RLENGTH)
            line = substr(line, RSTART + RLENGTH)
            split(m, f, "\"")
            val = m
            sub(/.*"value":/, "", val)
            got[side, f[2], pair] = val
        }
    }
    END {
        printf "%d pairs, %d failed or incorrect runs\n", pairs, bad
        for (k = 1; k <= nm; k++) {
            name = order[k]
            nb = nc = wins = same = 0
            ratios = ""
            for (p = 1; p <= pairs; p++) {
                hb = (("base", name, p) in got); hc = (("change", name, p) in got)
                if (hb) b[++nb] = got["base", name, p] + 0
                if (hc) c[++nc] = got["change", name, p] + 0
                if (!hb || !hc) { ratios = ratios " -"; continue }
                x = got["base", name, p]; y = got["change", name, p]
                if (x == y) same++
                ratios = ratios sprintf(" %.3f", x + 0 != 0 ? y / x : 0)
                if (failedpair[p]) continue
                if (better[name] == "higher" ? y + 0 > x + 0 : y + 0 < x + 0) wins++
            }
            if (nb == 0 || nc == 0) { printf "%s: no results\n", name; continue }
            sortv(b, nb); sortv(c, nc)
            mb = quant(b, nb, 0.5); mc = quant(c, nc, 0.5)
            spread = quant(b, nb, 0.75) - quant(b, nb, 0.25)
            gap = better[name] == "higher" ? mc - mb : mb - mc
            worse = mb != 0 && -gap / (mb < 0 ? -mb : mb) > bound[name]
            claim = wins * 10 >= 9 * pairs && gap > spread
            printf "%s (%s is better, bound %s)\n", name, better[name], bound[name]
            printf "  base   median %.6g (quartiles %.6g-%.6g), %d runs\n", mb, quant(b, nb, 0.25), quant(b, nb, 0.75), nb
            printf "  change median %.6g (quartiles %.6g-%.6g), %d runs\n", mc, quant(c, nc, 0.25), quant(c, nc, 0.75), nc
            printf "  change/base per pair:%s\n", ratios
            if (same == pairs) {
                printf "  identical in all %d pairs\n", pairs
            } else {
                printf "  change wins %d of %d pairs; median gap %.6g against the base quartile spread %.6g\n", wins, pairs, gap, spread
                printf "  bound: %s; claim rule (>= 9/10 wins, gap > spread): %s\n", worse ? "WORSE than the bound" : "within", claim ? "holds" : "does not hold"
            }
        }
    }
' "$tmp/metrics" "$tmp/results"
