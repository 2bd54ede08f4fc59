#!/bin/sh
# Reads the output of the kernel replay example on stdin and prints the
# counts in it that repeat exactly from run to run, one JSON object per
# output line, as a JSON array: the tests, local-pruning rejections,
# answers and searched negatives per engine, the path words gated and
# ungated, the pairs per outcome, the tables and word sets built (and how
# many passed the step cap), the lookups per kind, the extractions and
# classes canonicalized, the cap reads, the byte ledger and the inline
# bytes of a graph and of its signature. The ns and ms timings are left
# out.
#
# CI diffs the output against the committed BENCH_kernel.json. A change
# that moves a count regenerates the file:
#
#   cargo run --release -p gc_bench --example kernel_replay | scripts/kernel_counts.sh > BENCH_kernel.json
set -eu

awk '
function row(s) { rows[++seen] = "{" s "}" }
function str(k, v) { return "\"" k "\":\"" v "\"" }
function num(k, v) {
    if (v !~ /^[0-9]+$/) {
        print "kernel_counts: " k " is not a count in: " $0 > "/dev/stderr"
        failed = 1
        exit 1
    }
    return "\"" k "\":" v
}
# the position of the first field equal to `word`, 0 if none
function at(word,    i) {
    for (i = 1; i <= NF; i++)
        if ($i == word) return i
    return 0
}
# fields `from` to `to` joined by single spaces
function words(from, to,    i, s) {
    s = $from
    for (i = from + 1; i <= to; i++) s = s " " $i
    return s
}
/^kernel replay:/ {
    row(str("line", "kernel replay") "," num("graphs", $3) "," num("queries", $5))
    next
}
$2 == "tests" {
    row(str("line", "engine") "," str("engine", $1) "," num("tests", $3) "," \
        num("local_pruning", $6) "," num("path_words", $9) "," num("answers", $11) "," \
        num("searched_negatives", $14))
    next
}
/^path words / {
    row(str("line", "path words") "," num("gated", $3) "," num("ungated", $6))
    next
}
/^VF2 / {
    i = at("pairs")
    row(str("line", "VF2 outcome") "," str("outcome", words(2, i - 2)) "," num("pairs", $(i - 1)))
    next
}
/^query table build / {
    row(str("line", "table build") "," num("tables", $4))
    next
}
/ words build / {
    past = substr($0, index($0, "(") + 1)
    sub(/ .*/, "", past)
    row(str("line", "words build") "," str("of", $1) "," num("sets", $4) "," num("past_step_cap", past))
    next
}
/^index lookup / {
    row(str("line", "index lookup") "," str("kind", $3) "," num("queries", $4))
    next
}
/^canonical form / {
    row(str("line", "canonical form") "," num("extractions", $3) "," num("classes", $5))
    next
}
/^cap / {
    i = at("of")
    j = at("reads")
    row(str("line", "cap") "," str("quantity", words(2, i - 3)) "," num("cap", $(i - 2)) "," \
        num("above", $(i - 1)) "," num("of", $(i + 1)) "," str("reads", words(j + 1, NF)))
    next
}
/^bytes inline / {
    row(str("line", "bytes inline") "," num("graph", $4) "," num("signature", $7))
    next
}
/^bytes / {
    i = at("B")
    row(str("line", "bytes") "," str("owner", words(2, i - 2)) "," num("bytes", $(i - 1)))
    next
}
{
    print "kernel_counts: unknown line: " $0 > "/dev/stderr"
    failed = 1
    exit 1
}
END {
    if (failed) exit 1
    if (seen != 24) {
        print "kernel_counts: " seen + 0 " of 24 lines found" > "/dev/stderr"
        exit 1
    }
    print "["
    for (i = 1; i <= seen; i++)
        print "  " rows[i] (i < seen ? "," : "")
    print "]"
}
'
