#!/bin/sh
# The per-layer budget of the serving benchmark: where a request's time
# goes, layer by layer, corrected for how slow the host was while it ran.
#
#   scripts/budget.sh [WORKLOAD...]
#
# Builds the benchmark of this tree once, then runs it full-scale with
# `--trace 1` on seeds 1, 2 and 3 for each workload (all four when none is
# named). It reads only what the benchmark prints and changes nothing
# under benchmark/; trace files go to a temporary directory under $TMPDIR.
#
# It prints one JSON object. Per workload: `per_layer`, every per-layer
# metric in us or ns as its median over the seeds at reference host
# speed; the medians of `trace.coverage_share`, `bench.pass_spread_share`
# and `bench.host_slowness`; and `correct`, true when every run was
# correct and had no shape violation. A run that is not correct is
# reported, not fatal; a run that could not start (exit 2) fails the
# script.
#
# The benchmark already prints every layer time at reference host speed,
# each divided by the slowness its probe measured while that layer ran,
# so those are taken as printed: dividing them again by
# `bench.host_slowness` would count the host twice. Only the `raw_`
# metrics are as the clock read them; each is divided by its run's
# `bench.host_slowness`, the slowness of the pass they come from.
#
# To read a parent commit the same way, export it (git archive), copy
# this script into the export and run it there. Keep the machine
# otherwise idle meanwhile. One traced run takes a few seconds.
set -eu

workloads=${*:-hot_zipf cold_uniform churn shards_2c}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/budget.XXXXXX")
trap 'rm -rf "$work"' EXIT

cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2
bench=$root/benchmark/target/release/gc_benchmark

: >"$work/rows"
for w in $workloads; do
    for seed in 1 2 3; do
        status=0
        "$bench" --workload "$w" --seed "$seed" --trace 1 --out "$work" \
            >"$work/out" 2>"$work/err" || status=$?
        if [ "$status" -gt 1 ]; then
            echo "budget.sh: $w seed $seed could not run:" >&2
            cat "$work/err" "$work/out" >&2
            exit 1
        fi
        # one "workload seed name value unit" row per metric, and a
        # "workload seed ok 0|1 -" row: correct, and no shape violation
        awk -v w="$w" -v seed="$seed" '
            /^\{"detail":/ { clean = index($0, "\"shape_violations\":[]") > 0 }
            /^\{"correct":/ {
                ok = clean && index($0, "{\"correct\":true,") == 1
                rest = substr($0, index($0, "\"metrics\":{") + 11)
                while (match(rest, /"[a-z0-9_.]+":\{"value":[-0-9.e+]+,"unit":"[a-zA-Z\/]+"/)) {
                    entry = substr(rest, RSTART + 1, RLENGTH - 2)
                    split(entry, kv, "\":\\{\"value\":|,\"unit\":\"")
                    print w, seed, kv[1], kv[2], kv[3]
                    rest = substr(rest, RSTART + RLENGTH)
                }
                print w, seed, "ok", ok + 0, "-"
                found = 1
            }
            END { if (!found || status) print w, seed, "ok", 0, "-" }' \
            status="$status" "$work/out" >>"$work/rows"
        echo "budget.sh: $w seed $seed done (exit $status)" >&2
    done
done

awk '
# the median of v[1..n], sorted in place
function median(v, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
function num(x) { return x == "" ? "null" : sprintf("%.6g", x) }
{
    if (!($1 in seen)) { seen[$1] = 1; order[++nw] = $1; ok[$1] = 1 }
    if (!(($1, $2) in run)) { run[$1, $2] = 1; seeds[$1, ++nseeds[$1]] = $2 }
    if ($3 == "ok") { ok[$1] = ok[$1] && $4; next }
    value[$1, $2, $3] = $4
    if (($5 == "us" || $5 == "ns") && !(($1, $3) in timed)) {
        timed[$1, $3] = 1
        names[$1, ++nnames[$1]] = $3
    }
}
END {
    nsummary = split("trace.coverage_share bench.pass_spread_share bench.host_slowness", summary, " ")
    printf "{\"seeds\":[1,2,3],\"workloads\":{"
    for (i = 1; i <= nw; i++) {
        w = order[i]
        printf "%s\"%s\":{\"correct\":%s", (i > 1 ? "," : ""), w, ok[w] ? "true" : "false"
        for (k = 1; k <= nsummary; k++) {
            n = 0
            delete v
            for (s = 1; s <= nseeds[w]; s++)
                if ((w, seeds[w, s], summary[k]) in value) v[++n] = value[w, seeds[w, s], summary[k]]
            printf ",\"%s\":%s", summary[k], n ? num(median(v, n)) : "null"
        }
        printf ",\"per_layer\":{"
        for (m = 1; m <= nnames[w]; m++) {
            name = names[w, m]
            n = 0
            delete v
            for (s = 1; s <= nseeds[w]; s++) {
                slow = index(name, ".raw_") ? value[w, seeds[w, s], "bench.host_slowness"] : 1
                if (((w, seeds[w, s], name) in value) && slow > 0)
                    v[++n] = value[w, seeds[w, s], name] / slow
            }
            printf "%s\"%s\":%s", (m > 1 ? "," : ""), name, n ? num(median(v, n)) : "null"
        }
        printf "}}"
    }
    print "}}"
}' "$work/rows"
