//! Property tests for the CON validity machinery.
//!
//! The key semantic invariant behind Algorithm 2 (and hence Theorems 3/6):
//! **whenever a `CGvalid` bit survives refreshing, the cached relation it
//! protects still holds against the live dataset.** We verify it directly:
//! build a cache entry with ground-truth answers, apply arbitrary change
//! sequences, refresh validity incrementally, and compare every surviving
//! bit against a recomputed ground truth.

use gc_core::entry::CachedQuery;
use gc_core::validator::refresh;
use gc_dataset::{ChangeLog, Deltas, GraphStore, LogCursor, OpType};
use gc_graph::generate::random_connected_graph;
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::{Algorithm, QueryKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ground_truth_answer(query: &LabeledGraph, kind: QueryKind, store: &GraphStore) -> BitSet {
    let m = Algorithm::Vf2.matcher();
    let mut answer = BitSet::new();
    for (id, g) in store.iter_live() {
        let contained = match kind {
            QueryKind::Subgraph => m.contains(query, g),
            QueryKind::Supergraph => m.contains(g, query),
        };
        if contained {
            answer.set(id, true);
        }
    }
    answer
}

/// Applies one random change, logging it. Returns false if nothing could
/// be applied.
fn apply_random_change(rng: &mut StdRng, store: &mut GraphStore, log: &mut ChangeLog) -> bool {
    let live: Vec<usize> = store.iter_live().map(|(i, _)| i).collect();
    match OpType::ALL[rng.random_range(0..4usize)] {
        OpType::Add => {
            let n = rng.random_range(2..8usize);
            let g = random_connected_graph(rng, n, 1, |r| r.random_range(0..3u16));
            let id = store.add_graph(g);
            log.append(id, OpType::Add);
            true
        }
        OpType::Del => match live.first() {
            Some(_) => {
                let id = live[rng.random_range(0..live.len())];
                store.delete(id).expect("live");
                log.append(id, OpType::Del);
                true
            }
            None => false,
        },
        OpType::Ua => {
            for _ in 0..8 {
                if live.is_empty() {
                    return false;
                }
                let id = live[rng.random_range(0..live.len())];
                let g = store.get(id).expect("live");
                let n = g.vertex_count() as u32;
                if n < 2 {
                    continue;
                }
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v && !g.has_edge(u, v) {
                    store.add_edge(id, u, v).expect("absent");
                    log.append_edge(id, OpType::Ua, u, v);
                    return true;
                }
            }
            false
        }
        OpType::Ur => {
            for _ in 0..8 {
                if live.is_empty() {
                    return false;
                }
                let id = live[rng.random_range(0..live.len())];
                let g = store.get(id).expect("live");
                let edges: Vec<_> = g.edges().collect();
                if edges.is_empty() {
                    continue;
                }
                let (u, v) = edges[rng.random_range(0..edges.len())];
                store.remove_edge(id, u, v).expect("present");
                log.append_edge(id, OpType::Ur, u, v);
                return true;
            }
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Surviving validity bits always tell the truth, for both entry
    /// polarities, across multi-round incremental refreshes.
    #[test]
    fn surviving_validity_bits_are_truthful(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = if seed % 2 == 0 { QueryKind::Subgraph } else { QueryKind::Supergraph };

        // dataset of 8 small graphs
        let graphs: Vec<LabeledGraph> = (0..8)
            .map(|_| {
                let n = rng.random_range(3..8usize);
                random_connected_graph(&mut rng, n, 1, |r| r.random_range(0..3u16))
            })
            .collect();
        let mut store = GraphStore::from_graphs(graphs);
        let mut log = ChangeLog::new();

        // the cached query: a small random pattern
        let qn = rng.random_range(2..5usize);
        let query = random_connected_graph(&mut rng, qn, 0, |r| r.random_range(0..3u16));
        let answer = ground_truth_answer(&query, kind, &store);
        let mut entry = CachedQuery::new(query.clone(), kind, answer, store.id_span(), 0);

        let mut cursor = LogCursor::default();
        // three rounds of changes + incremental refresh
        for _round in 0..3 {
            let changes = rng.random_range(1..5usize);
            for _ in 0..changes {
                apply_random_change(&mut rng, &mut store, &mut log);
            }
            let deltas = Deltas::by_category(log.records_since(cursor).unwrap());
            cursor = log.head();
            refresh([&mut entry], &deltas, &store, false);

            // every surviving valid bit on a LIVE graph must match the
            // freshly recomputed truth
            let truth = ground_truth_answer(&query, kind, &store);
            for (id, _) in store.iter_live() {
                if entry.cg_valid.get(id) {
                    prop_assert_eq!(
                        entry.answer.get(id),
                        truth.get(id),
                        "stale bit survived: graph {} round {} kind {:?} (seed {})",
                        id, _round, kind, seed
                    );
                }
            }
        }
    }

    /// EVI-equivalent safety net: after refreshing, re-validating with an
    /// empty delta set changes nothing (idempotence of Algorithm 2 under
    /// an empty incremental log).
    #[test]
    fn refresh_with_empty_counters_is_identity(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graphs: Vec<LabeledGraph> = (0..5)
            .map(|_| random_connected_graph(&mut rng, 4, 1, |r| r.random_range(0..2u16)))
            .collect();
        let store = GraphStore::from_graphs(graphs);
        let query = random_connected_graph(&mut rng, 2, 0, |r| r.random_range(0..2u16));
        let answer = ground_truth_answer(&query, QueryKind::Subgraph, &store);
        let mut entry = CachedQuery::new(query, QueryKind::Subgraph, answer, store.id_span(), 0);
        let before = entry.cg_valid.clone();
        refresh([&mut entry], &Deltas::by_category(&[]), &store, false);
        prop_assert_eq!(entry.cg_valid, before);
    }
}
