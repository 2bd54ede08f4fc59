#!/bin/sh
# Committed mutation checks. Each `mutant` line at the bottom names a file,
# a `sed` edit that breaks it the way a tempting shortcut or a past bug
# would, and the `cargo test` arguments of a test that must then fail. The
# script copies the working tree (build outputs and .git left out) into a
# fresh temporary directory, applies each edit there in turn, builds the
# named test, runs it and restores the file. It exits non-zero if a mutant
# survives (its test passes), or if an edit changes nothing or does not
# compile: then the list is stale and must follow the code.
#
#   scripts/mutants.sh
#
# The copy builds in release mode in its own target directory unless
# CARGO_TARGET_DIR says otherwise, and PROPTEST_CASES scales the property
# tests as everywhere else. A change defended by a mutation check adds its
# line here.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
tar -C "$root" --exclude=./.git --exclude=./target --exclude=./benchmark/target -cf - . |
    tar -C "$work" -xf -

failed=0

# mutant FILE SED-EXPRESSION CARGO-TEST-ARGS...
mutant() {
    file=$1
    edit=$2
    shift 2
    cp "$work/$file" "$work/.mutant-orig"
    sed -i -e "$edit" "$work/$file"
    if cmp -s "$work/$file" "$work/.mutant-orig"; then
        echo "stale   $file: '$edit' changes nothing"
        failed=1
    elif ! (cd "$work" && cargo test --release -q --no-run "$@" >/dev/null 2>&1); then
        echo "stale   $file: '$edit' does not compile"
        failed=1
    elif (cd "$work" && cargo test --release -q "$@" >/dev/null 2>&1); then
        echo "SURVIVED $file: '$edit' passes cargo test $*"
        failed=1
    else
        echo "caught  $file: '$edit' fails cargo test $*"
    fi
    mv "$work/.mutant-orig" "$work/$file"
}

# --- the per-vertex profile table behind Method M's local pruning ---
# a neighbour exactly at a degree threshold is no longer counted
mutant crates/graph/src/features.rs \
    's/u64::from(degree >= threshold)/u64::from(degree > threshold)/' \
    -p gc_subiso --test prop_subiso profile_filter_degenerate_cases_agree_with_oracle
# UA keeps the table built before it
mutant crates/graph/src/graph.rs \
    '/pub fn add_edge(&mut self, u: VertexId/,/^    }$/s/self\.profiles\.take();//' \
    -p gc_graph --test prop_graph profile_table_follows_every_ua_and_ur
# UR keeps the table built before it
mutant crates/graph/src/graph.rs \
    '/pub fn remove_edge(&mut self, u: VertexId/,/^    }$/s/self\.profiles\.take();//' \
    -p gc_graph --test prop_graph profile_table_follows_every_ua_and_ur
# every vertex with 2 or more neighbours claims a ring: the lane rejects
# nothing
mutant crates/graph/src/features.rs \
    's/out\[len\] = all\[v as usize\];/out[len] = all[v as usize] | 1 << RING_SHIFT;/' \
    -p gc_subiso --test prop_subiso profile_filter_degenerate_cases_agree_with_oracle
# a tree edge whose subtree reaches exactly its parent counts as a bridge:
# ring vertices lose their bit depending on where the search starts
mutant crates/graph/src/features.rs \
    's/if low <= links\[p\] >> 32 {/if low < links[p] >> 32 {/' \
    -p gc_graph --lib ring_bit_marks_exactly_the_vertices_on_a_cycle
# labels fold back to residues: rare labels share lanes with common ones
mutant crates/graph/src/features.rs \
    's/u32::from(label).min(lanes - 1)/u32::from(label) % lanes/' \
    -p gc_subiso --test prop_subiso profile_filter_degenerate_cases_agree_with_oracle
# a lane that reaches 4 wraps to 0 instead of staying at 3: a hub with 4
# neighbours of one label no longer covers one with 3
mutant crates/graph/src/features.rs \
    's/entry -= (entry \& COUNT_GUARDS) >> 2;/entry -= entry \& COUNT_GUARDS;/' \
    -p gc_subiso --test screen_exhaustive

# --- the path words behind local pruning's third tier ---
# the arms of a path's middle edge keep their order: a path numbered the
# other way round in the pattern spells another word
mutant crates/graph/src/features.rs \
    '/let (x, y) = (x.min(y), x.max(y));/d' \
    -p gc_subiso --test prop_subiso profile_filter_passes_extractions_from_molecules
# UA keeps the words built before it
mutant crates/graph/src/graph.rs \
    '/pub fn add_edge(&mut self, u: VertexId/,/^    }$/s/self\.paths\.take();//' \
    -p gc_graph --test prop_graph path_words_follow_every_ua_and_ur
# every bit sets its twin, not only one a second path hashes to: still
# sound, but the twins no longer count anything
mutant crates/graph/src/features.rs \
    's/words.0\[twin >> 6\] |= again << (twin \& 63);/words.0[twin >> 6] |= 1 << (twin \& 63);/' \
    -p gc_bench --test scan_anchors
# a walk closing a triangle counts as a path: still sound, since an
# embedding maps walks to walks, but weaker
mutant crates/graph/src/features.rs \
    's/if a != m \&\& a != c {/if a != m {/' \
    -p gc_graph --lib path_words_count_only_simple_paths_of_three_edges
# a walk turning back at the middle edge's far end counts as a path: the
# build reads such a walk from one end only, so an embedding's image can
# miss a word of the pattern, and the anchor scan loses answers
mutant crates/graph/src/features.rs \
    's/if a != m \&\& a != c {/if a != c {/' \
    -p gc_bench --test scan_anchors

# --- local pruning as the hit probe's and Method M's one containment search ---
# pattern and target swapped: a probe or candidate whose target has more
# than the pattern is pruned as a negative
mutant crates/subiso/src/filter.rs \
    's/target.profiles().dominates(pattern.profiles())/pattern.profiles().dominates(target.profiles())/' \
    -p gc_core --test hit_discovery
# the hit probe prunes before it charges the budget: a pruned probe is
# counted but free, so a test cap lets later probes through
mutant crates/core/src/processor.rs \
    's/^    let token = match token {$/    if !filter::profile_may_contain(pattern, target) {\n        return Some(false);\n    }\n&/' \
    -p gc_core --test hit_discovery
# the identity probe returns before its charge
mutant crates/core/src/processor.rs \
    's/^    let token = match token {$/    if identical {\n        return Some(true);\n    }\n&/' \
    -p gc_core --lib identity_probe_uses_up_the_test_cap_like_a_search

# --- the entry table, HD replacement and the shard router's metric fold ---
# an evicted slot closes up instead of being filled from the end
mutant crates/core/src/entries.rs \
    's/self.entries.swap_remove(i);/self.entries.remove(i);/' \
    -p gc_core --lib flush_evicts_lowest_scorers_by_swap_remove
# a flush leaves the packed screens as they were before its evictions,
# so the walk reads records at positions other entries now hold
mutant crates/core/src/entries.rs \
    '/self.screens.rebuild(&self.entries);/d' \
    -p gc_core --test hit_discovery
# the walk drops the reverse (entry ⊆ query) fingerprint test: probes
# the fingerprint would have refused are charged and counted
mutant crates/core/src/entries.rs \
    's/let pairs_in_query = s.edge_pairs.is_subset_of(&sig.edge_pairs);/let pairs_in_query = true;/' \
    -p gc_core --test hit_discovery
# HD picks PIN at a squared CoV of exactly 1, where the paper's rule
# still picks PINC
mutant crates/core/src/policy.rs \
    's/if squared_cov(\&r) > 1.0 {/if squared_cov(\&r) >= 1.0 {/' \
    -p gc_core --lib squared_cov_of_exactly_one_resolves_to_pinc
# PINC scores by the tests saved instead of the estimated cost saved
mutant crates/core/src/policy.rs \
    's/ResolvedPolicy::Pinc => entry.stats.cost_saved,/ResolvedPolicy::Pinc => entry.stats.tests_saved as f64,/' \
    -p gc_core --lib pinc_ranks_by_cost_saved_not_tests_saved
# the shards' metric fold (`QueryMetrics::merge`) drops their direct hits
mutant crates/core/src/metrics.rs \
    '/self.hits.direct_hits += direct_hits;/d' \
    -p gc_core --lib routed_metrics_fold_hits_and_prefilter_skips

# --- one count per event: GC+'s one count site and the router's ---
# the retry arm forgets the panic its first attempt contained
mutant crates/core/src/system.rs \
    '/out.metrics.panics_recovered += 1;/d' \
    -p gc_core --lib injected_query_panic_is_contained_and_retried
# a counted query's degradation never reaches the health
mutant crates/core/src/fault.rs \
    's/u64::from(m.degraded.is_some())/0/' \
    -p gc_core --test prop_chaos
# the audit's span is recorded as zero
mutant crates/core/src/system.rs \
    's/record(Stage::Audit, t.elapsed().as_nanos() as u64)/record(Stage::Audit, 0)/' \
    -p gc_core --lib trace_flag_populates_stage_spans
# the router takes a stalled slot for one a shard counted
mutant crates/core/src/sharded.rs \
    's/(QueryOutcome::degraded(Interrupt::Deadline), false)/(QueryOutcome::degraded(Interrupt::Deadline), true)/' \
    -p gc_core --lib stalled_shard_burns_deadline_and_degrades
# ... and a failed-over shard's baseline slot likewise
mutant crates/core/src/sharded.rs \
    's/let counted = !baseline && served.is_ok();/let counted = served.is_ok();/' \
    -p gc_core --lib twice_panicking_shard_fails_over_to_baseline_until_audit

# --- the health table: one slot per HealthCounter ---
# the wire decoder fills the counters in reverse: every counter arrives in
# another's slot
mutant crates/server/src/protocol.rs \
    's/^        .map(|counter| Ok((counter, d.u64()?)))$/        .rev()\n&/' \
    -p gc_server --lib responses_round_trip
# every add bumps the first slot instead of its counter's
mutant crates/core/src/fault.rs \
    's/self.counts\[counter as usize\].fetch_add(n, Ordering::Relaxed);/self.counts[0].fetch_add(n, Ordering::Relaxed);/' \
    -p gc_core --lib health_counters_accumulate

# --- the label index's threshold postings (CS_M as bitset algebra) ---
# a lookup at count t reads the rung "at least t + 1": graphs with exactly
# the query's label count drop out
mutant crates/dataset/src/index.rs \
    's/self.rungs.get(t.min(LabelIndex::LABEL_CAP) as usize - 1)/self.rungs.get(t.min(LabelIndex::LABEL_CAP) as usize)/' \
    -p gc_dataset --lib cap_boundaries_read_the_right_rung
# UR leaves a graph on the fingerprint postings of the bits it lost
mutant crates/dataset/src/index.rs \
    '/self.flip(id, \&old.edge_pairs.difference(\&new.edge_pairs), false);/d' \
    -p gc_dataset --test incremental splice_sequences_converge_to_fresh_build
# a query above the cap keeps what the cap's rung lets through
mutant crates/dataset/src/index.rs \
    's/^        if q\.labels\.iter()\.any(/        if false \&\& q.labels.iter().any(/' \
    -p gc_dataset --test prop_index cap_boundaries_survive_histories

# --- the change log's window: what GC+ may forget ---
# a memo whose cursor the log forgot reads as current: its twin's stale
# CS_M is served unpatched
mutant crates/core/src/system.rs \
    's/let pending = self.log.records_since(at);/let pending = self.log.records_since(at).or(Some(\&[]));/' \
    -p gc_core --test csm_memo
# GC+ forgets up to the head instead of head - live_count: memos one
# patch away are looked up afresh
mutant crates/core/src/system.rs \
    's/self.log.head().0.saturating_sub(live).min(self.cursor.0)/self.log.head().0.min(self.cursor.0)/' \
    -p gc_core --test csm_memo
# GC+ forgets past the maintenance cursor: after a burst the pass finds
# its records gone, panics, and the query falls back to the cache-less path
mutant crates/core/src/system.rs \
    's/self.log.head().0.saturating_sub(live).min(self.cursor.0)/self.log.head().0.saturating_sub(live)/' \
    -p gc_core --test log_window window_stays_bounded_under_the_live_scan
# ... and past the label index's cursor, which an audit leaves behind
mutant crates/core/src/system.rs \
    '/upto = upto.min(idx.cursor().0);/d' \
    -p gc_core --test log_window window_stays_bounded_under_the_label_index

# --- canonical forms: refinement, the leaf encoding, automorphism pruning ---
# a node's orbits join automorphisms that move its individualized prefix
# (the oracle suite does not catch this one: an image of the smallest
# leaf survives the unsound pruning on every graph it tries)
mutant crates/graph/src/canon.rs \
    's/prefix.iter().all(|\&v| gamma\[v as usize\] == v)/prefix.iter().all(|\&v| gamma[v as usize] == v || true)/' \
    -p gc_graph --lib orbits_join_only_automorphisms_fixing_the_prefix
# the encoder drops the last partial word
mutant crates/graph/src/canon.rs \
    's/(n \* (n - 1) \/ 2).div_ceil(64)/(n * (n - 1) \/ 2) \/ 64/' \
    -p gc_graph --test canon_oracle
# refinement stops after its first round
mutant crates/graph/src/canon.rs \
    's/if next == classes || next == n {/if next >= classes || next == n {/' \
    -p gc_graph --test canon_oracle

# --- the graph's exact-size storage: two CSR buffers, an exact histogram
# of four-byte entries ---
# csr() splits the labels from the neighbours one word late, so the
# neighbours lose their first word
mutant crates/graph/src/graph.rs \
    's/\&self.data\[self.offsets.len() - 1..\]/\&self.data[self.offsets.len()..]/' \
    -p gc_graph --lib every_construction_and_mutation_leaves_no_slack
# the vertex cap admits one vertex too many, whose id a u16 row cannot hold
mutant crates/graph/src/graph.rs \
    's/if n > MAX_VERTICES {/if n > MAX_VERTICES + 1 {/' \
    -p gc_graph --lib the_vertex_cap_admits_65536_vertices_and_refuses_one_more
# the sort fallback's histogram pass drops its last run (the largest label)
mutant crates/graph/src/graph.rs \
    's/for i in 1..=sorted.len() {/for i in 1..sorted.len() {/' \
    -p gc_graph --lib counting_builders_equal_the_sorts_past_their_tables
# a label count read without the one its four-byte entry leaves out
mutant crates/graph/src/graph.rs \
    's/u32::from(self.less_one) + 1/u32::from(self.less_one)/' \
    -p gc_graph --lib label_counts_round_trip_at_their_limits
# histogram domination refuses a label count equal to its own
mutant crates/graph/src/graph.rs \
    's/big\[bi\].count() < s.count()/big[bi].count() <= s.count()/' \
    -p gc_graph --lib histograms_at_the_cap_dominate_the_right_way
# a rejected edge list's duplicate keyed by its orientation: an edge
# repeated end for end is not found, and naming the bad edge panics
mutant crates/graph/src/graph.rs \
    's/seen.insert((u.min(v), u.max(v)))/seen.insert((u, v))/' \
    -p gc_graph --test prop_graph from_parts_matches_the_builder

# --- the signature, built on its first read by counting ---
# the exact-match precondition without the edge count: a 6-path takes the
# cached 6-ring it embeds in, whose histogram and fingerprint it shares,
# as its twin and loses answers
mutant crates/core/src/entries.rs \
    '/\&\& s.edges as usize == self.edges$/d' \
    -p gc_core --lib a_path_is_no_exact_match_for_the_ring_it_embeds_in
# UA leaves a built fingerprint as it was
mutant crates/graph/src/graph.rs \
    '/pub fn add_edge(&mut self, u: VertexId/,/^    }$/s/self\.recount_edge_pairs();//' \
    -p gc_graph --test prop_graph signatures_read_before_after_and_afresh_agree
# the label table's fallback one label late: label 256 indexes past it
mutant crates/graph/src/graph.rs \
    's/if l >= LABEL_SLOTS {/if l > LABEL_SLOTS {/' \
    -p gc_graph --lib counting_builders_equal_the_sorts_past_their_tables

# --- the reproduction driver: GcConfig::paper() drives the paper arm ---
# the paper arm built from the default configuration (label index, repair)
mutant crates/bench/src/lib.rs \
    's/Arm::Paper(model) => Some(GcConfig::paper(method, model)),/Arm::Paper(model) => Arm::Default(model).config(method),/' \
    -p gc_bench --lib paper_arm_runs_the_paper_config

# --- the generators, straight into CSR: every draw in the old order ---
# Type A extraction stops one edge short of its target
mutant crates/graph/src/generate.rs \
    '/pub fn bfs_extract/,/^}$/s/if edges.len() >= target_edges {/if edges.len() + 1 >= target_edges {/' \
    -p graphcache_plus --test generator_pins
# the molecule ring walk no longer excludes the vertex it came from
mutant crates/graph/src/generate.rs \
    's/for \&x in ns.iter().filter(|\&\&x| x != prev) {/for \&x in ns.iter() {/' \
    -p graphcache_plus --test generator_pins
# the random walk keys an edge by its orientation: walking it back adds it
# twice
mutant crates/graph/src/generate.rs \
    's/let edge = (qu.min(qv), qu.max(qv));/let edge = (qu, qv);/' \
    -p graphcache_plus --test generator_pins
# an extra edge drawn high end first is not found among the sorted edges
mutant crates/graph/src/generate.rs \
    's/edges.binary_search(\&(u.min(v), u.max(v)))/edges.binary_search(\&(u, v))/' \
    -p graphcache_plus --test generator_pins

# --- the shards' published gauges, which a stats scrape reads unlocked ---
# a contained panic's quarantine is not recounted
mutant crates/core/src/sharded.rs \
    's/if panicked || self.quarantined.get() > 0 {/if self.quarantined.get() > 0 {/' \
    -p gc_core --lib published_gauges_equal_a_locked_read_after_a_mixed_run

exit "$failed"
