//! Hit discovery against a reference walk, and its count anchor.
//!
//! The reference walk is the literal model's (`model::discover`), written
//! without local pruning and without the identity short-cut: kind match,
//! quarantine skip, the two signature filters, one budget-token charge per
//! probe, brute-force decisions, and the same-signature exact rule (one
//! direction plus an equal signature and edge count is an isomorphism, so
//! the reverse probe is not run). `discover_hits` must
//! return exactly its `Hits` — lists, exact twin and probe count — on
//! seeded entry tables, with no token, an unlimited token and a test cap.
//! The tables are grown through `Entries::admit` between queries, with
//! window flushes that evict, purges and quarantine toggles, so the walk
//! also checks that the table's packed screens follow its entries.
//! Labels are drawn from {0, 2, 11, 14}, which share lanes of the
//! per-vertex profile table (11 and 14 the last label lane, 2, 11 and 14
//! the last degree lane), and most graphs carry rings, so local pruning
//! settles probes that the signature filters let through. A pruned probe
//! must be charged and counted like the search it replaces, or the capped
//! runs disagree.
//!
//! The anchor pins the probe's counts on a table shaped like the serving
//! benchmark's `hot_zipf` pool: answers and charges may never move; the
//! matcher-call total moves only with a change to what decides a probe
//! before the matcher.

use std::sync::atomic::{AtomicU64, Ordering};

use gc_core::entries::Entries;
use gc_core::entry::CachedQuery;
use gc_core::processor::{discover_hits, Hits};
use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_graph::generate::{bfs_extract, permute, random_connected_graph};
use gc_graph::{canonical_form, BitSet, LabeledGraph, VertexId};
use gc_subiso::{Algorithm, CancelToken, Interrupt, MatchStats, QueryKind, SubgraphMatcher};
use gc_workload::{generate_type_a, TypeAConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod model;

/// VF2+ that counts how often it is asked.
#[derive(Default)]
struct CountingVf2Plus(AtomicU64);

impl CountingVf2Plus {
    fn calls(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn vf2plus(&self) -> &'static dyn SubgraphMatcher {
        self.0.fetch_add(1, Ordering::Relaxed);
        Algorithm::Vf2Plus.matcher()
    }
}

impl SubgraphMatcher for CountingVf2Plus {
    fn name(&self) -> &'static str {
        "counting VF2+"
    }

    fn contains_with_stats(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> (bool, MatchStats) {
        self.vf2plus().contains_with_stats(pattern, target)
    }

    fn contains_budgeted(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        token: &CancelToken,
    ) -> Result<bool, Interrupt> {
        self.vf2plus().contains_budgeted(pattern, target, token)
    }

    fn find_embedding(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> Option<Vec<VertexId>> {
        self.vf2plus().find_embedding(pattern, target)
    }
}

/// The literal model's walk (`model::discover`) over the table's
/// entries: every probe decided by brute force, and how many compared a
/// query with its verbatim twin.
fn reference_hits(
    query: &LabeledGraph,
    kind: QueryKind,
    entries: &[CachedQuery],
    token: Option<&CancelToken>,
) -> (Hits, u64) {
    let walk = entries.iter().map(|e| (e.graph(), e.kind(), e.quarantined));
    model::discover(query, kind, walk, token)
}

/// Labels that collide in the profile table's lanes.
const LABELS: [u16; 4] = [0, 2, 11, 14];

/// Half the vertices get label 0, so signatures often pass.
fn random_label(rng: &mut StdRng) -> u16 {
    LABELS[rng.random_range(0..6usize).saturating_sub(2)]
}

/// A connected graph of `2..=max_n` vertices; three in four carry rings.
fn random_graph(rng: &mut StdRng, max_n: usize) -> LabeledGraph {
    let n = rng.random_range(2..=max_n);
    let extra = if rng.random_bool(0.75) {
        rng.random_range(1..4usize)
    } else {
        0
    };
    random_connected_graph(rng, n, extra, random_label)
}

fn random_kind(rng: &mut StdRng) -> QueryKind {
    if rng.random_bool(0.5) {
        QueryKind::Subgraph
    } else {
        QueryKind::Supergraph
    }
}

/// `src` with one more edge or one more pendant vertex.
fn grow(rng: &mut StdRng, src: &LabeledGraph) -> LabeledGraph {
    let mut g = src.clone();
    let n = g.vertex_count() as u32;
    let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
    if u == v || g.add_edge(u, v).is_err() {
        let mut labels = g.labels().to_vec();
        labels.push(random_label(rng));
        let mut edges: Vec<_> = g.edges().collect();
        edges.push((u, n));
        g = LabeledGraph::from_parts(labels, &edges).expect("far under the vertex cap");
    }
    g
}

/// `src` with one edge moved elsewhere: the same size and labels, often
/// the same signature, seldom the same neighbourhoods.
fn rewire(rng: &mut StdRng, src: &LabeledGraph) -> LabeledGraph {
    let mut g = src.clone();
    let n = g.vertex_count() as u32;
    let u = rng.random_range(0..n);
    let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
    if let Some(v) = g.neighbors(u).first().map(|&v| v.into()) {
        if a != b && !g.has_edge(a, b) {
            g.remove_edge(u, v).expect("an edge of the graph");
            g.add_edge(a, b).expect("checked absent");
        }
    }
    g
}

/// What one seed exercised, summed over its runs without a token.
#[derive(Default)]
struct Tally {
    probes: u64,
    matcher_calls: u64,
    verbatim: u64,
    evictions: u64,
}

impl Tally {
    /// Probes decided by neither the matcher nor identity: local pruning's.
    fn pruned(&self) -> u64 {
        self.probes - self.matcher_calls - self.verbatim
    }
}

/// Admits a random graph, or `graph` when given, with small random
/// statistics (so replacement sees ties) and a one-in-seven chance of
/// arriving quarantined.
fn admit(rng: &mut StdRng, entries: &mut Entries, graph: Option<&LabeledGraph>, at: u64) {
    let graph = graph.cloned().unwrap_or_else(|| random_graph(rng, 6));
    let mut e = CachedQuery::new(graph, random_kind(rng), BitSet::new(), 4, at);
    e.stats.tests_saved = rng.random_range(0..4);
    e.stats.cost_saved = f64::from(rng.random_range(0..4u8));
    e.quarantined = rng.random_bool(0.15);
    entries.admit(e);
}

/// One seeded entry table and twenty queries against it, each discovered
/// with no token, an unlimited token and a test cap, against the
/// reference walk under the same budget. Between queries the table
/// admits (some queries, some fresh graphs), purges or toggles
/// quarantine flags.
fn run(seed: u64) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Entries::new(rng.random_range(1..12), rng.random_range(1..5));
    let mut admitted = 0;
    for _ in 0..rng.random_range(1..16) {
        admit(&mut rng, &mut entries, None, admitted);
        admitted += 1;
    }

    let matcher = CountingVf2Plus::default();
    let mut tally = Tally::default();
    let mut last_query: Option<LabeledGraph> = None;
    for step in 0..20 {
        match rng.random_range(0..10u32) {
            0..=3 => {
                admit(&mut rng, &mut entries, last_query.as_ref(), admitted);
                admitted += 1;
            }
            4 => {
                for pos in 0..entries.len() {
                    entries[pos].quarantined = rng.random_bool(0.15);
                }
            }
            5 if rng.random_bool(0.3) => entries.clear(),
            _ => {}
        }
        if entries.is_empty() {
            admit(&mut rng, &mut entries, None, admitted);
            admitted += 1;
        }
        let pick = &entries[rng.random_range(0..entries.len())];
        let (src, src_kind) = (pick.graph().clone(), pick.kind());
        let query = match rng.random_range(0..7u32) {
            0 => src.clone(),
            1 => permute(&mut rng, &src),
            2 => {
                let start = rng.random_range(0..src.vertex_count() as u32);
                let want = rng.random_range(1..=src.edge_count());
                bfs_extract(&mut rng, &src, start, want).unwrap_or_else(|| src.clone())
            }
            3 => grow(&mut rng, &src),
            4 | 5 => rewire(&mut rng, &src),
            _ => random_graph(&mut rng, 7),
        };
        let kind = if rng.random_bool(0.8) {
            src_kind
        } else {
            random_kind(&mut rng)
        };
        let cap = rng.random_range(0..8u64);
        // no token, an unlimited one, a test cap: one token for each walk
        for (b, limit) in [None, Some(None), Some(Some(cap))].into_iter().enumerate() {
            let budget = limit.map(|c| CancelToken::new(None, c));
            let reference = limit.map(|c| CancelToken::new(None, c));
            let (expected, verbatim) = reference_hits(&query, kind, &entries, reference.as_ref());
            let before = matcher.calls();
            let got = discover_hits(&query, kind, &entries, &matcher, budget.as_ref());
            assert_eq!(
                got, expected,
                "seed {seed} step {step} {kind:?} budget #{b} cap {cap}\nquery {query:?}"
            );
            if let (Some(t), Some(r)) = (&budget, &reference) {
                assert_eq!(
                    t.tests_charged(),
                    r.tests_charged(),
                    "seed {seed} step {step}"
                );
            }
            if b == 0 {
                tally.probes += got.probes;
                tally.matcher_calls += matcher.calls() - before;
                tally.verbatim += verbatim;
            }
        }
        last_query = Some(query);
    }
    tally.evictions = entries.evictions();
    tally
}

/// Non-vacuity: on fixed seeds, local pruning decides a floor of probes
/// without the matcher (measured: 326 of 6,584 probes over these 256
/// seeds, beside 2,123 verbatim twins), so the capped runs above really
/// compare pruned probes with searched ones; and the tables' flushes
/// evict (1,974 evictions), so the walks run over screens rebuilt after
/// `swap_remove`s.
#[test]
fn local_pruning_decides_probes_on_fixed_seeds() {
    let mut total = Tally::default();
    for seed in 0..256 {
        let t = run(seed);
        total.probes += t.probes;
        total.matcher_calls += t.matcher_calls;
        total.verbatim += t.verbatim;
        total.evictions += t.evictions;
    }
    assert!(
        total.pruned() >= 200,
        "only {} of {} probes pruned ({} verbatim)",
        total.pruned(),
        total.probes,
        total.verbatim
    );
    assert!(
        total.evictions >= 1_000,
        "only {} evictions",
        total.evictions
    );
}

proptest! {
    #[test]
    fn discovery_equals_the_reference_walk(seed in 0u64..1_000_000) {
        run(seed);
    }
}

/// The anchor table: 120 entries (the default cache plus window) from a
/// 160-query pool built as the serving benchmark builds `hot_zipf`'s —
/// distinct Type A ZU extractions over synthetic AIDS — and probed by all
/// 160 queries. Returns, over those probes: total `Hits::probes`, direct
/// and exclusion hits, exact twins, an FNV-1a digest of every hit list,
/// and matcher calls.
fn hot_pool_probe_counts() -> [u64; 6] {
    let dataset = synthetic_aids(&AidsConfig::scaled(600, 2017));
    let mut seen = std::collections::HashSet::new();
    let pool: Vec<LabeledGraph> = generate_type_a(&dataset, &TypeAConfig::zu(320, 2018))
        .queries
        .into_iter()
        .filter(|q| seen.insert(canonical_form(q)))
        .take(160)
        .collect();
    assert_eq!(pool.len(), 160);
    // a cache of 120 that the full window joins without an eviction, so
    // positions are admission order
    let mut entries = Entries::new(120, 120);
    for (i, q) in pool[..120].iter().enumerate() {
        entries.admit(CachedQuery::new(
            q.clone(),
            QueryKind::Subgraph,
            BitSet::new(),
            0,
            i as u64,
        ));
    }
    assert_eq!(entries.occupancy(), (120, 0));

    let matcher = CountingVf2Plus::default();
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |x: u64| {
        fnv ^= x;
        fnv = fnv.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let [mut probes, mut direct, mut exclusion, mut exact] = [0u64; 4];
    for q in &pool {
        let hits = discover_hits(q, QueryKind::Subgraph, &entries, &matcher, None);
        probes += hits.probes;
        direct += hits.direct.len() as u64;
        exclusion += hits.exclusion.len() as u64;
        exact += u64::from(hits.exact.is_some());
        for list in [&hits.direct, &hits.exclusion] {
            feed(list.len() as u64);
            list.iter().for_each(|&r| feed(r as u64));
        }
        feed(hits.exact.map_or(u64::MAX, |r| r as u64));
    }
    [probes, direct, exclusion, exact, fnv, matcher.calls()]
}

#[test]
fn hot_pool_probe_anchor() {
    let [probes, direct, exclusion, exact, digest, calls] = hot_pool_probe_counts();
    assert_eq!(exact, 120, "every entry's own query finds it");
    assert_eq!(
        (probes, direct, exclusion),
        (1_216, 405, 410),
        "probes and hits moved"
    );
    assert_eq!(digest, 0x320d_c189_7ddd_6eb8, "a hit list moved");
    // 1,089 before the probe went through local pruning: every probe but
    // the 120 verbatim twins searched
    assert_eq!(calls, 652, "matcher calls moved");
}
