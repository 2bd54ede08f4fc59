//! Property tests for the delta-repair maintenance pipeline.
//!
//! The repair refresh only touches bits Algorithm 2 would invalidate, so
//! its contract splits in two:
//!
//! 1. **Splice correctness** — every bit the repair pass resolves (kept
//!    valid by a signature disproof where plain validation would clear it)
//!    equals a from-scratch recomputation against the live dataset;
//! 2. **Mode equivalence** — a repair-mode cache and an invalidate-mode
//!    cache produce bit-identical answers over any shared workload: the
//!    repaired bits are ground truth, and the bits repair leaves alone
//!    are exactly the bits invalidation leaves alone.
//!
//! Both are exercised under randomized UA/UR splice sequences, with
//! degraded (partially-invalid) and quarantined entries in the mix.

use gc_core::entry::CachedQuery;
use gc_core::validator::refresh;
use gc_core::{baseline_execute, GcConfig, GraphCachePlus, MaintenanceMode, QueryBudget};
use gc_dataset::{ChangeLog, ChangeOp, Deltas, GraphStore, LogCursor, OpType};
use gc_graph::generate::{bfs_extract, random_connected_graph};
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

/// Applies one random UA or UR to a live graph, logging it. Splice-only
/// churn: the graph population is fixed, edges oscillate.
fn apply_random_splice(rng: &mut StdRng, store: &mut GraphStore, log: &mut ChangeLog) -> bool {
    let live: Vec<usize> = store.iter_live().map(|(i, _)| i).collect();
    if live.is_empty() {
        return false;
    }
    for _ in 0..8 {
        let id = live[rng.random_range(0..live.len())];
        let g = store.get(id).expect("live");
        if rng.random::<bool>() {
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
        } else {
            let edges: Vec<_> = g.edges().collect();
            if edges.is_empty() {
                continue;
            }
            let (u, v) = edges[rng.random_range(0..edges.len())];
            store.remove_edge(id, u, v).expect("present");
            log.append_edge(id, OpType::Ur, u, v);
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// After a repair refresh, every valid bit on a live graph — repaired
    /// or kept — matches a recomputed ground truth, for both query
    /// polarities, across multiple splice rounds. Degraded entries
    /// (pre-cleared validity bits) never get bits resurrected, and
    /// quarantine survives the repair untouched.
    #[test]
    fn repaired_bits_match_recomputation(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = if seed % 2 == 0 { QueryKind::Subgraph } else { QueryKind::Supergraph };

        let graphs: Vec<LabeledGraph> = (0..8)
            .map(|_| {
                let n = rng.random_range(3..8usize);
                random_connected_graph(&mut rng, n, 1, |r| r.random_range(0..3u16))
            })
            .collect();
        let mut store = GraphStore::from_graphs(graphs);
        let mut log = ChangeLog::new();

        let qn = rng.random_range(2..5usize);
        let query = random_connected_graph(&mut rng, qn, 0, |r| r.random_range(0..3u16));
        let answer = ground_truth_answer(&query, kind, &store);
        let mut entry = CachedQuery::new(query.clone(), kind, answer, store.id_span(), 0);
        // degrade the entry: a few bits start invalid
        let degraded: Vec<usize> = (0..store.id_span())
            .filter(|_| rng.random::<f64>() < 0.25)
            .collect();
        for &i in &degraded {
            entry.cg_valid.set(i, false);
        }
        entry.quarantined = seed % 3 == 0;
        let was_quarantined = entry.quarantined;

        let mut cursor = LogCursor::default();
        for _round in 0..3 {
            let changes = rng.random_range(1..5usize);
            for _ in 0..changes {
                apply_random_splice(&mut rng, &mut store, &mut log);
            }
            let deltas = Deltas::by_category(log.records_since(cursor).unwrap());
            cursor = log.head();
            refresh([&mut entry], &deltas, &store, true);

            let truth = ground_truth_answer(&query, kind, &store);
            for (id, _) in store.iter_live() {
                if entry.cg_valid.get(id) {
                    prop_assert_eq!(
                        entry.answer.get(id),
                        truth.get(id),
                        "untruthful bit after repair: graph {} kind {:?} (seed {})",
                        id, kind, seed
                    );
                }
            }
        }
        prop_assert_eq!(entry.quarantined, was_quarantined, "repair must not touch quarantine");
        for &i in &degraded {
            prop_assert!(!entry.cg_valid.get(i), "repair resurrected a pre-invalid bit");
        }
    }

    /// End-to-end mode equivalence: a repair-mode cache and an
    /// invalidate-mode cache replay the same workload — splice churn plus
    /// ADD/DEL to exercise the always-invalidate legs — and every query's
    /// answer is bit-identical, and exact against a cache-less oracle.
    #[test]
    fn repair_and_invalidate_answers_are_identical(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let initial: Vec<LabeledGraph> = (0..10)
            .map(|_| {
                let n = rng.random_range(4..9usize);
                random_connected_graph(&mut rng, n, 2, |r| r.random_range(0..3u16))
            })
            .collect();
        let mk = |maintenance| {
            GraphCachePlus::new(
                GcConfig {
                    maintenance,
                    cache_capacity: 16,
                    window_capacity: 2,
                    ..GcConfig::default()
                },
                initial.clone(),
            )
        };
        let mut repair = mk(MaintenanceMode::Repair);
        let mut invalidate = mk(MaintenanceMode::Invalidate);
        let oracle = gc_subiso::MethodM::new(Algorithm::Vf2);

        let mut wrng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        for step in 0..20 {
            if step % 3 == 1 {
                // the same change applied to both instances
                let live: Vec<usize> = repair.store().iter_live().map(|(i, _)| i).collect();
                let id = live[wrng.random_range(0..live.len())];
                let g = repair.store().get(id).expect("live").clone();
                let op = match wrng.random_range(0..4u8) {
                    0 => ChangeOp::Add(random_connected_graph(&mut wrng, 4, 1, |r| {
                        r.random_range(0..3u16)
                    })),
                    1 if live.len() > 2 => ChangeOp::Del(id),
                    _ => match g.edges().next() {
                        Some((u, v)) => ChangeOp::Ur { id, u, v },
                        None => continue,
                    },
                };
                repair.apply(op.clone()).unwrap();
                invalidate.apply(op).unwrap();
            }
            let q = {
                let live: Vec<usize> = repair.store().iter_live().map(|(i, _)| i).collect();
                let src = repair
                    .store()
                    .get(live[wrng.random_range(0..live.len())])
                    .expect("live");
                match bfs_extract(&mut wrng, src, 0, src.edge_count().clamp(1, 4)) {
                    Some(q) => q,
                    None => continue,
                }
            };
            let kind = if step % 4 == 0 { QueryKind::Supergraph } else { QueryKind::Subgraph };
            let a = repair.execute(&q, kind, QueryBudget::UNLIMITED);
            let b = invalidate.execute(&q, kind, QueryBudget::UNLIMITED);
            prop_assert_eq!(&a.answer, &b.answer, "modes diverged at step {} (seed {})", step, seed);
            let truth = baseline_execute(repair.store(), &oracle, &q, kind);
            prop_assert_eq!(&a.answer, &truth.answer, "repair inexact at step {} (seed {})", step, seed);
        }
    }
}
