//! CON-R (retrospective validation) — correctness and dominance.
//!
//! Two properties:
//!
//! 1. **Exactness** (Theorems 3/6 extended): GC+ under CON-R returns
//!    exactly the cache-less Method M answers under arbitrary churn;
//! 2. **Dominance**: CON-R preserves a superset of the validity bits CON
//!    preserves — it never invalidates knowledge that plain Algorithm 2
//!    would keep (and keeps strictly more when changes oscillate).

use gc_core::entry::CachedQuery;
use gc_core::validator::refresh;
use gc_core::{baseline_execute, CacheModel, GcConfig, GraphCachePlus, MaintenanceMode};
use gc_dataset::{ChangeOp, ChangeRecord, Deltas, GraphStore, OpType};
use gc_graph::generate::random_connected_graph;
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::{Algorithm, MethodM, QueryKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_records(seed: u64, n: usize, span: usize) -> Vec<ChangeRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let id = rng.random_range(0..span);
            match rng.random_range(0..6) {
                0 => ChangeRecord::structural(id, OpType::Add),
                1 => ChangeRecord::structural(id, OpType::Del),
                k => {
                    // few distinct edges → oscillation is common
                    let u = rng.random_range(0..3u32);
                    let v = rng.random_range(3..6u32);
                    let op = if k % 2 == 0 { OpType::Ua } else { OpType::Ur };
                    ChangeRecord::edge(id, op, u, v)
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Validity dominance: every bit CON keeps, CON-R keeps.
    #[test]
    fn retro_dominates_plain_validation(seed in 0u64..10_000) {
        let span = 12usize;
        let records = random_records(seed, 10, span);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let kind = if seed % 2 == 0 { QueryKind::Subgraph } else { QueryKind::Supergraph };
        let answer = BitSet::from_indices((0..span).filter(|_| rng.random::<bool>()));
        let graph = LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap();

        let store = GraphStore::from_graphs(vec![graph.clone(); span]);
        let mut plain = CachedQuery::new(graph.clone(), kind, answer.clone(), span, 0);
        let mut retro = CachedQuery::new(graph, kind, answer, span, 0);
        refresh([&mut plain], &Deltas::by_category(&records), &store, false);
        refresh([&mut retro], &Deltas::by_net_edge(&records), &store, false);

        prop_assert!(
            plain.cg_valid.is_subset_of(&retro.cg_valid),
            "CON kept {:?} but CON-R only kept {:?} (seed {})",
            plain.cg_valid, retro.cg_valid, seed
        );
    }
}

/// End-to-end exactness of CON-R under oscillating churn, checked against
/// ground truth on every query.
#[test]
fn con_retro_is_exact_under_oscillating_churn() {
    let mut rng = StdRng::seed_from_u64(31);
    let initial: Vec<LabeledGraph> = (0..20)
        .map(|_| {
            let n = rng.random_range(5..12usize);
            random_connected_graph(&mut rng, n, 2, |r| r.random_range(0..3u16))
        })
        .collect();
    let config = GcConfig {
        model: CacheModel::ConRetro,
        cache_capacity: 10,
        window_capacity: 3,
        method: MethodM::new(Algorithm::Vf2Plus),
        ..GcConfig::default()
    };
    let mut gc = GraphCachePlus::new(config, initial.clone());
    let oracle = MethodM::new(Algorithm::Vf2);

    for i in 0..150 {
        // oscillating churn: flip an edge back and forth on a random graph
        if i % 3 == 0 {
            let live: Vec<usize> = gc.store().iter_live().map(|(id, _)| id).collect();
            let id = live[rng.random_range(0..live.len())];
            let g = gc.store().get(id).expect("live").clone();
            let first_edge = g.edges().next();
            if let Some((u, v)) = first_edge {
                gc.apply(ChangeOp::Ur { id, u, v }).unwrap();
                if i % 6 == 0 {
                    // half the time the change nets out before the query
                    gc.apply(ChangeOp::Ua { id, u, v }).unwrap();
                }
            }
        }
        let q = {
            let live: Vec<usize> = gc.store().iter_live().map(|(id, _)| id).collect();
            let src = gc
                .store()
                .get(live[rng.random_range(0..live.len())])
                .expect("live");
            match gc_graph::generate::bfs_extract(&mut rng, src, 0, src.edge_count().clamp(1, 4)) {
                Some(q) => q,
                None => continue,
            }
        };
        let got = gc.execute(&q, QueryKind::Subgraph);
        let truth = baseline_execute(gc.store(), &oracle, &q, QueryKind::Subgraph);
        assert_eq!(got.answer, truth.answer, "CON-R diverged at step {i}");
    }
}

/// CON-R saves at least as many tests as CON on a workload whose churn
/// oscillates (the scenario the extension targets).
#[test]
fn con_retro_saves_more_tests_on_oscillating_workload() {
    let mut rng = StdRng::seed_from_u64(41);
    let initial: Vec<LabeledGraph> = (0..30)
        .map(|_| random_connected_graph(&mut rng, 10, 3, |r| r.random_range(0..3u16)))
        .collect();
    // one fixed query pool replayed with oscillating edge churn
    let pool: Vec<LabeledGraph> = (0..6)
        .map(|i| gc_graph::generate::bfs_extract(&mut rng, &initial[i], 0, 4).expect("extractable"))
        .collect();

    let run = |model: CacheModel| {
        // Pin invalidate-mode maintenance: this test compares how much
        // knowledge each *validation model* discards, a distinction delta
        // repair erases by restoring every touched bit to ground truth.
        let mut gc = GraphCachePlus::new(
            GcConfig {
                model,
                method: MethodM::new(Algorithm::Vf2Plus),
                maintenance: MaintenanceMode::Invalidate,
                ..GcConfig::default()
            },
            initial.clone(),
        );
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..200 {
            if step % 4 == 3 {
                // UA+UR of the same edge: net neutral
                let id = rng.random_range(0..30);
                let g = gc.store().get(id).expect("live").clone();
                let first_edge = g.edges().next();
                if let Some((u, v)) = first_edge {
                    gc.apply(ChangeOp::Ur { id, u, v }).unwrap();
                    gc.apply(ChangeOp::Ua { id, u, v }).unwrap();
                }
            }
            let q = &pool[rng.random_range(0..pool.len())];
            gc.execute(q, QueryKind::Subgraph);
        }
        gc.aggregate_metrics().total_tests
    };

    let con = run(CacheModel::Con);
    let retro = run(CacheModel::ConRetro);
    assert!(
        retro < con,
        "CON-R ({retro} tests) should beat CON ({con} tests) under oscillation"
    );
}
