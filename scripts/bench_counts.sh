#!/bin/sh
# Reads the JSON lines of a traced serving-benchmark run on stdin and
# prints the counts that repeat exactly from run to run. For each
# one-connection workload it prints the answer hash and eight count
# metrics, each value exactly as the benchmark printed it, as a JSON
# array of one object per line. `shards_2c` is left out: its two
# connections interleave differently on every run.
#
# CI diffs the output against the committed BENCH_serve_counts.json. A
# change that moves a count regenerates the file:
#
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --quick --trace \
#     | scripts/bench_counts.sh > BENCH_serve_counts.json
set -eu

awk '
BEGIN {
    nkeys = split("system.tests_per_query system.candidates_per_query " \
        "system.exact_shortcut_share system.zero_test_share sharded.evictions " \
        "index.syncs protocol.req_bytes protocol.rsp_bytes", keys, " ")
    wanted["hot_zipf"] = wanted["cold_uniform"] = wanted["churn"] = 1
}
# the text between `"<key>":<opener>` and the next `closer` character
function field(line, key, opener, closer,    at, rest) {
    at = index(line, "\"" key "\":" opener)
    if (at == 0) {
        print "bench_counts: no " key " in a " workload " line" > "/dev/stderr"
        failed = 1
        exit 1
    }
    rest = substr(line, at + length(key) + 3 + length(opener))
    return substr(rest, 1, index(rest, closer) - 1)
}
/"detail":/ {
    workload = field($0, "workload", "\"", "\"")
    fnv = field($0, "answers_fnv", "\"", "\"")
    next
}
/"metrics":/ && (workload in wanted) {
    out = "{\"workload\":\"" workload "\",\"answers_fnv\":\"" fnv "\""
    for (i = 1; i <= nkeys; i++)
        out = out ",\"" keys[i] "\":" field($0, keys[i], "{\"value\":", ",")
    rows[++seen] = out "}"
}
END {
    if (failed) exit 1
    if (seen != 3) {
        print "bench_counts: " seen + 0 " of 3 workloads found" > "/dev/stderr"
        exit 1
    }
    print "["
    for (i = 1; i <= seen; i++)
        print "  " rows[i] (i < seen ? "," : "")
    print "]"
}
'
