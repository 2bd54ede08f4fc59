//! Property tests for the postings-bitset label index: the candidate sets
//! produced by bitword intersection/subtraction are checked against a
//! brute-force reference model recomputed from raw graph data per graph.
//! The model is a *sandwich*, not a copy of the filter: the index hashes
//! its one-hop edge feature, the model counts it exactly, so
//!
//! ```text
//! answers ⊆ label-dominated ∧ exact pair-multiset-dominated   (lower)
//!         ⊆ candidates                                        (the index)
//!         ⊆ label-dominated                                   (upper)
//! ```
//!
//! and a hash collision can only move the candidates inside that band.
//! Covers arbitrary graphs, arbitrary query label multisets, and the
//! degenerate cases the set algebra must get right: the empty
//! intersection (a query label no graph carries), the single-label
//! query (intersection of one posting), and graphs and queries on either
//! side of the label ladders' cap.

use std::collections::HashMap;

use gc_dataset::{ChangeLog, GraphStore, LabelIndex, OpType};
use gc_graph::generate::{bfs_extract, random_connected_graph};
use gc_graph::{BitSet, Label, LabeledGraph, QueryKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Label histogram computed from raw vertex labels — independent of the
/// maintained `GraphSignature`.
fn hist(g: &LabeledGraph) -> HashMap<Label, u32> {
    let mut h = HashMap::new();
    for &l in g.labels() {
        *h.entry(l).or_insert(0u32) += 1;
    }
    h
}

/// Label-multiset domination: `big` could contain `small`, judged only
/// from raw vertex labels. Every candidate the index emits must pass it.
fn dominates_model(big: &LabeledGraph, small: &LabeledGraph) -> bool {
    let bh = hist(big);
    hist(small)
        .iter()
        .all(|(l, c)| bh.get(l).copied().unwrap_or(0) >= *c)
}

/// How many edges join each unordered label pair — the one-hop feature,
/// counted exactly from `edges()`.
fn pair_counts(g: &LabeledGraph) -> HashMap<(Label, Label), u32> {
    let mut h = HashMap::new();
    for (u, v) in g.edges() {
        let (a, b) = (g.label(u), g.label(v));
        *h.entry((a.min(b), a.max(b))).or_insert(0u32) += 1;
    }
    h
}

/// Exact pair-multiset domination: an embedding of `small` into `big`
/// maps edges injectively onto edges of the same label pair, so every
/// graph a matcher accepts passes this and [`dominates_model`].
fn pairs_dominate(big: &LabeledGraph, small: &LabeledGraph) -> bool {
    let bp = pair_counts(big);
    pair_counts(small)
        .iter()
        .all(|(p, c)| bp.get(p).copied().unwrap_or(0) >= *c)
}

/// Asserts `lower ⊆ got ⊆ upper` over the live graphs, where `upper` is
/// the label model and `lower` adds exact pair-multiset domination.
/// `subgraph` picks the direction: the graph must contain the query, or
/// the query the graph.
fn assert_sandwiched(
    store: &GraphStore,
    got: &BitSet,
    query: &LabeledGraph,
    subgraph: bool,
    ctx: &str,
) {
    for (id, g) in store.iter_live() {
        let (big, small) = if subgraph { (g, query) } else { (query, g) };
        let counts = dominates_model(big, small);
        if counts && pairs_dominate(big, small) {
            assert!(got.get(id), "{ctx}: graph {id} must be a candidate");
        }
        if got.get(id) {
            assert!(counts, "{ctx}: candidate {id} fails label domination");
        }
    }
}

fn random_dataset(seed: u64) -> (GraphStore, ChangeLog, Vec<LabeledGraph>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(4..20usize);
    let label_span = rng.random_range(1..5u16);
    let graphs: Vec<LabeledGraph> = (0..n)
        .map(|_| {
            let v = rng.random_range(2..12usize);
            let extra = rng.random_range(0..v);
            random_connected_graph(&mut rng, v, extra, |r| r.random_range(0..label_span))
        })
        .collect();
    let store = GraphStore::from_graphs(graphs.clone());
    (store, ChangeLog::new(), graphs)
}

proptest! {
    /// Subgraph candidates from postings intersection + folded signature
    /// refine sit between the two brute-force filters over raw graph data,
    /// for structured queries extracted from (or generated independently
    /// of) the dataset.
    #[test]
    fn subgraph_candidates_match_bruteforce(seed in 0u64..300) {
        let (store, log, graphs) = random_dataset(seed);
        let idx = LabelIndex::build(&store, &log);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51AB);
        for round in 0..4u64 {
            let query = if round.is_multiple_of(2) {
                let src = &graphs[rng.random_range(0..graphs.len())];
                let start = rng.random_range(0..src.vertex_count() as u32);
                let want = rng.random_range(1..=src.edge_count().min(4));
                match bfs_extract(&mut rng, src, start, want) {
                    Some(q) => q,
                    None => continue,
                }
            } else {
                random_connected_graph(&mut rng, 3, 1, |r| r.random_range(0..6u16))
            };
            let got = idx.subgraph_candidates(&query);
            let ctx = format!("seed {seed} round {round}");
            assert_sandwiched(&store, &got, &query, true, &ctx);
        }
    }

    /// Supergraph candidates (live set minus foreign-label postings,
    /// refined by reverse domination) sit between the same two filters.
    #[test]
    fn supergraph_candidates_match_bruteforce(seed in 0u64..300) {
        let (store, log, _) = random_dataset(seed);
        let idx = LabelIndex::build(&store, &log);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50B1);
        for round in 0..4u64 {
            let v = rng.random_range(2..14usize);
            let extra = rng.random_range(0..v);
            let query = random_connected_graph(&mut rng, v, extra, |r| r.random_range(0..5u16));
            let got = idx.supergraph_candidates(&query);
            let ctx = format!("seed {seed} round {round}");
            assert_sandwiched(&store, &got, &query, false, &ctx);
        }
    }

    /// Arbitrary label *multisets* (edge-free query graphs, so only the
    /// label/vertex-count fragment of the signature bites): the postings
    /// intersection must equal brute-force multiset inclusion. Includes
    /// the empty-intersection case (labels drawn from a wider span than
    /// the dataset's) and the single-label degenerate case.
    #[test]
    fn label_multiset_filter_matches_bruteforce(
        seed in 0u64..200,
        labels in prop::collection::vec(0u16..8, 1..6),
    ) {
        let (store, log, _) = random_dataset(seed);
        let idx = LabelIndex::build(&store, &log);
        let query = LabeledGraph::from_parts(labels.clone(), &[]).unwrap();
        let got: Vec<usize> = idx.subgraph_candidates(&query).iter_ones().collect();
        let qh = hist(&query);
        let want: Vec<usize> = store
            .iter_live()
            .filter(|(_, g)| {
                let gh = hist(g);
                g.vertex_count() >= query.vertex_count()
                    && qh.iter().all(|(l, c)| gh.get(l).copied().unwrap_or(0) >= *c)
            })
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(got, want);
        // datasets use labels < 5; a query containing label 7 must hit the
        // missing-posting fast path and return the empty set
        if labels.contains(&7) {
            prop_assert!(idx.subgraph_candidates(&query).is_empty());
        }
    }

    /// Single-label degenerate case: the candidate set is exactly that
    /// label's posting (every graph holding the label has ≥ 1 vertex and
    /// dominates a 1-vertex edge-free query).
    #[test]
    fn single_label_query_returns_the_posting(seed in 0u64..200, label in 0u16..5) {
        let (store, log, _) = random_dataset(seed);
        let idx = LabelIndex::build(&store, &log);
        let query = LabeledGraph::from_parts(vec![label], &[]).unwrap();
        let got: Vec<usize> = idx.subgraph_candidates(&query).iter_ones().collect();
        let want: Vec<usize> = store
            .iter_live()
            .filter(|(_, g)| g.labels().contains(&label))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Candidates are always a subset of the live set, in both directions.
    #[test]
    fn candidates_are_live(seed in 0u64..200) {
        let (store, log, graphs) = random_dataset(seed);
        let idx = LabelIndex::build(&store, &log);
        let live = store.live_bitset();
        let q = &graphs[0];
        prop_assert!(idx.subgraph_candidates(q).is_subset_of(&live));
        prop_assert!(idx.supergraph_candidates(q).is_subset_of(&live));
    }

    /// The per-graph predicate is the sweeps' membership test. After an
    /// arbitrary ADD/DEL/UA/UR history replayed through `sync` (at random
    /// points), `admits(id, q, kind)` equals `id ∈ candidates(q, kind)` of
    /// a fresh build, and of the synced index itself, for every id up to
    /// two past the span, both kinds, and label-less queries. Deleted ids
    /// and ids past the span read false.
    #[test]
    fn admits_is_candidate_membership(seed in 0u64..300, steps in 0usize..30) {
        let (mut store, mut log, graphs) = random_dataset(seed);
        let mut idx = LabelIndex::build(&store, &log);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAD17);
        for _ in 0..steps {
            random_op(&mut rng, &mut store, &mut log, &graphs);
            if rng.random_bool(0.3) {
                idx.sync(&store, &log);
            }
        }
        idx.sync(&store, &log);
        let fresh = LabelIndex::build(&store, &log);
        let src = &graphs[rng.random_range(0..graphs.len())];
        let queries = [
            bfs_extract(&mut rng, src, 0, 3).unwrap_or_else(|| src.clone()),
            random_connected_graph(&mut rng, 3, 1, |r| r.random_range(0..5u16)),
            random_connected_graph(&mut rng, 9, 6, |r| r.random_range(0..5u16)),
            LabeledGraph::new(),
        ];
        let span = store.id_span();
        for q in &queries {
            for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
                let want = fresh.candidates(q, kind);
                prop_assert_eq!(&idx.candidates(q, kind), &want);
                for id in 0..span + 2 {
                    let admitted = idx.admits(id, q, kind);
                    prop_assert_eq!(admitted, want.get(id), "id {} {:?}", id, kind);
                    if store.get(id).is_none() {
                        prop_assert!(!admitted, "dead or unassigned id {} admitted", id);
                    }
                }
            }
        }
    }
}

/// A path on `count` vertices of one label, then one vertex of each other
/// label below `span`.
fn at_count(rng: &mut StdRng, count: u32, span: u16) -> LabeledGraph {
    let l = rng.random_range(0..span);
    let mut labels = vec![l; count as usize];
    labels.extend((0..span).filter(|&o| o != l));
    let path: Vec<(u32, u32)> = (1..labels.len() as u32).map(|v| (v - 1, v)).collect();
    LabeledGraph::from_parts(labels, &path).unwrap()
}

/// cap - 1, cap and cap + 1 of the label ladders.
fn boundary_values() -> impl Iterator<Item = u32> {
    LabelIndex::LABEL_CAP - 1..=LabelIndex::LABEL_CAP + 1
}

proptest! {
    /// Dataset graphs and queries at cap - 1, cap and cap + 1 of a label
    /// count, after random ADD/DEL/UA/UR histories: both lookups sit
    /// between the label and pair models, equal a fresh build's, and
    /// `admits` is their membership; the synced index is a fresh build
    /// structurally.
    #[test]
    fn cap_boundaries_survive_histories(seed in 0u64..400, steps in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCA95);
        let span = rng.random_range(1..4u16);
        let seeds: Vec<LabeledGraph> = boundary_values()
            .map(|count| at_count(&mut rng, count, span))
            .collect();
        let mut store = GraphStore::from_graphs(seeds.clone());
        let mut log = ChangeLog::new();
        let mut idx = LabelIndex::build(&store, &log);
        for _ in 0..steps {
            random_op(&mut rng, &mut store, &mut log, &seeds);
            if rng.random_bool(0.3) {
                idx.sync(&store, &log);
            }
        }
        idx.sync(&store, &log);
        let fresh = LabelIndex::build(&store, &log);
        prop_assert!(idx.same_structure(&fresh));
        let queries: Vec<LabeledGraph> = boundary_values()
            .map(|count| at_count(&mut rng, count, span))
            .chain(store.iter_live().map(|(_, g)| g.clone()))
            .collect();
        for (i, q) in queries.iter().enumerate() {
            for (kind, subgraph) in [(QueryKind::Subgraph, true), (QueryKind::Supergraph, false)] {
                let got = idx.candidates(q, kind);
                prop_assert_eq!(&got, &fresh.candidates(q, kind));
                let ctx = format!("seed {seed} query {i} {kind:?}");
                assert_sandwiched(&store, &got, q, subgraph, &ctx);
                for id in 0..store.id_span() {
                    prop_assert_eq!(idx.admits(id, q, kind), got.get(id));
                }
            }
        }
    }
}

/// One random logged change: ADD (a copy of a seed graph), DEL, UA of a
/// missing edge or UR of a present one. Skipped when it does not apply.
fn random_op(
    rng: &mut StdRng,
    store: &mut GraphStore,
    log: &mut ChangeLog,
    seeds: &[LabeledGraph],
) {
    let live: Vec<usize> = store.iter_live().map(|(id, _)| id).collect();
    let op = rng.random_range(0..6u32);
    if op == 0 || live.is_empty() {
        let id = store.add_graph(seeds[rng.random_range(0..seeds.len())].clone());
        log.append(id, OpType::Add);
        return;
    }
    let id = live[rng.random_range(0..live.len())];
    let g = store.get(id).expect("live");
    let n = g.vertex_count() as u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    let (present, missing): (Vec<_>, Vec<_>) =
        pairs.into_iter().partition(|&(u, v)| g.has_edge(u, v));
    match op {
        1 => {
            store.delete(id).unwrap();
            log.append(id, OpType::Del);
        }
        2 | 3 if !missing.is_empty() => {
            let (u, v) = missing[rng.random_range(0..missing.len())];
            store.add_edge(id, u, v).unwrap();
            log.append_edge(id, OpType::Ua, u, v);
        }
        4 | 5 if !present.is_empty() => {
            let (u, v) = present[rng.random_range(0..present.len())];
            store.remove_edge(id, u, v).unwrap();
            log.append_edge(id, OpType::Ur, u, v);
        }
        _ => {}
    }
}
