#!/bin/sh
# The claim harness: the serving benchmark's end-to-end metrics, parent
# against change, over alternated pairs of runs.
#
#   scripts/ab.sh [--pairs N] [--quick] PARENT [WORKLOAD...]
#
# PARENT is any git revision. Its committed files are exported (git
# archive) into a fresh directory under $TMPDIR and its benchmark built
# there; the change is the working tree, built in place. Then, per
# workload (all four when none is named), N pairs (default 10) run on
# seeds 1..N with `--seconds 15 --trace 0`, the parent first on odd seeds
# and the change first on even ones. `--quick` passes the benchmark's
# `--quick` instead: seconds per run, for checking the script itself, not
# for claims. A run that exits non-zero or does not print
# `"correct":true` fails the script.
#
# It prints one JSON object. Per workload and end-to-end metric: the
# direction that is better, the median of the per-pair change/parent
# ratios, how many pairs the change was better on, both sides' medians,
# the parent's interquartile range, and `claim`: true when the change was
# better on at least 9 in 10 pairs and its median beat the parent's by
# more than the parent's IQR. Two rules learnt from past claims are
# defaults: on `hot_zipf`, whose builds drift by up to ±2%, a ratio within
# 3% of 1 claims nothing, and `shards_2c` claims nothing at all (its noise
# is not yet measured).
#
# The machine should be otherwise idle while it runs; a compile beside a
# pair skews it. Ten full pairs of one workload take about three minutes.
set -eu

usage() {
    echo "usage: scripts/ab.sh [--pairs N] [--quick] PARENT [WORKLOAD...]" >&2
    exit 2
}

pairs=10
quick=0
while [ $# -gt 0 ]; do
    case $1 in
    --pairs)
        [ $# -ge 2 ] || usage
        pairs=$2
        shift 2
        ;;
    --quick)
        quick=1
        shift
        ;;
    -*) usage ;;
    *) break ;;
    esac
done
[ $# -ge 1 ] || usage
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
parent=$1
shift
workloads=${*:-hot_zipf cold_uniform churn shards_2c}

root=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$root" rev-parse --verify --quiet "$parent^{commit}") || {
    echo "ab.sh: '$parent' is not a revision" >&2
    exit 2
}
work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

# build SOURCE-DIR BINARY: the benchmark of that tree, copied out
build() {
    cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml" \
        --target-dir "$1/benchmark/target" >&2
    cp "$1/benchmark/target/release/gc_benchmark" "$2"
}
mkdir "$work/src"
git -C "$root" archive "$rev" | tar -C "$work/src" -xf -
build "$work/src" "$work/parent"
rm -rf "$work/src"
build "$root" "$work/change"

if [ "$quick" = 1 ]; then
    set -- --quick
else
    set -- --seconds 15 --trace 0
fi

# run SIDE WORKLOAD SEED BENCHMARK-ARGS...: appends one
# "workload side seed metric value" row per end-to-end metric
run() {
    side=$1 w=$2 seed=$3
    shift 3
    if ! "$work/$side" --workload "$w" --seed "$seed" "$@" >"$work/out" 2>"$work/err"; then
        echo "ab.sh: $side $w seed $seed failed:" >&2
        cat "$work/err" "$work/out" >&2
        exit 1
    fi
    if ! grep -q '^{"correct":true' "$work/out"; then
        echo "ab.sh: $side $w seed $seed is not correct:" >&2
        cat "$work/out" >&2
        exit 1
    fi
    awk -v w="$w" -v side="$side" -v seed="$seed" '
        /^\{"correct":/ {
            rest = substr($0, index($0, "\"metrics\":{") + 11)
            while (match(rest, /"[a-z0-9_]+":\{"value":[-0-9.e+]+/)) {
                pair = substr(rest, RSTART + 1, RLENGTH - 1)
                split(pair, kv, "\":\\{\"value\":")
                print w, side, seed, kv[1], kv[2]
                rest = substr(rest, RSTART + RLENGTH)
            }
        }' "$work/out" >>"$work/rows"
}

: >"$work/rows"
for workload in $workloads; do
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        if [ $((pair % 2)) = 1 ]; then
            run parent "$workload" "$pair" "$@"
            run change "$workload" "$pair" "$@"
        else
            run change "$workload" "$pair" "$@"
            run parent "$workload" "$pair" "$@"
        fi
        echo "ab.sh: $workload pair $pair of $pairs done" >&2
        pair=$((pair + 1))
    done
done

awk -v parent="$rev" -v pairs="$pairs" -v quick="$quick" '
# sorts v[1..n] ascending in place
function sort(v, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
}
# the p-quantile of sorted v[1..n], linearly interpolated
function quantile(v, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function num(x) { return x == "" ? "null" : sprintf("%.6g", x) }
BEGIN {
    better["setup_s"] = "lower"
    better["throughput_rps"] = "higher"
    better["query_p50_us"] = "lower"
    better["cpu_us_per_op"] = "lower"
    better["peak_rss_mb"] = "lower"
    nmetrics = split("setup_s throughput_rps query_p50_us cpu_us_per_op peak_rss_mb", metrics, " ")
}
{
    if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1 }
    value[$1, $2, $3, $4] = $5
}
END {
    printf "{\"parent\":\"%s\",\"pairs\":%d,\"quick\":%s,\"workloads\":{", parent, pairs, quick ? "true" : "false"
    for (i = 1; i <= nw; i++) {
        w = order[i]
        printf "%s\"%s\":{", (i > 1 ? "," : ""), w
        for (m = 1; m <= nmetrics; m++) {
            k = metrics[m]
            nr = np = nc = wins = 0
            delete ratios; delete ps; delete cs
            for (s = 1; s <= pairs; s++) {
                p = value[w, "parent", s, k]
                c = value[w, "change", s, k]
                ps[++np] = p
                cs[++nc] = c
                if (p != 0) ratios[++nr] = c / p
                wins += (better[k] == "lower" ? c < p : c > p)
            }
            sort(ps, np); sort(cs, nc); sort(ratios, nr)
            pmed = quantile(ps, np, 0.5)
            cmed = quantile(cs, nc, 0.5)
            iqr = quantile(ps, np, 0.75) - quantile(ps, np, 0.25)
            ratio = nr ? quantile(ratios, nr, 0.5) : ""
            gap = better[k] == "lower" ? pmed - cmed : cmed - pmed
            claim = wins * 10 >= pairs * 9 && gap > iqr && w != "shards_2c" \
                && !(w == "hot_zipf" && ratio != "" && ratio > 0.97 && ratio < 1.03)
            printf "%s\"%s\":{\"better\":\"%s\",\"median_ratio\":%s,\"pairs_better\":%d,\"parent_median\":%s,\"change_median\":%s,\"parent_iqr\":%s,\"claim\":%s}", \
                (m > 1 ? "," : ""), k, better[k], num(ratio), wins, num(pmed), num(cmed), num(iqr), claim ? "true" : "false"
        }
        printf "}"
    }
    print "}}"
}' "$work/rows"
