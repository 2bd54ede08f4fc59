//! Theorems 3 & 6, enforced empirically: for ANY interleaving of queries
//! and dataset changes, under either cache model, any replacement policy
//! and any Method M, GC+ returns exactly the answer set that cache-less
//! Method M computes on the live dataset — no false positives, no false
//! negatives.
//!
//! These tests drive a miniature GC+ deployment through randomized
//! workloads with aggressive churn (far more changes per query than the
//! paper's plan) to stress the validity machinery, comparing every single
//! answer to a freshly computed ground truth.

use gc_core::{
    baseline_execute, CacheModel, CandidateSource, GcConfig, GraphCachePlus, Policy, QueryBudget,
};
use gc_dataset::{ChangeOp, OpType};
use gc_graph::generate::{bfs_extract, random_connected_graph};
use gc_graph::LabeledGraph;
use gc_subiso::{Algorithm, MethodM, QueryKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_dataset(rng: &mut StdRng, count: usize) -> Vec<LabeledGraph> {
    (0..count)
        .map(|_| {
            let n = rng.random_range(4..14usize);
            let extra = rng.random_range(0..4usize);
            random_connected_graph(rng, n, extra, |r| r.random_range(0..3u16))
        })
        .collect()
}

/// Draws a query: usually extracted from a random live graph (guaranteed
/// hits), sometimes random (often empty answers).
fn random_query(rng: &mut StdRng, gc: &GraphCachePlus) -> LabeledGraph {
    let store = gc.store();
    let live: Vec<usize> = store.iter_live().map(|(i, _)| i).collect();
    if !live.is_empty() && rng.random::<f64>() < 0.7 {
        let id = live[rng.random_range(0..live.len())];
        let g = store.get(id).expect("live");
        if g.edge_count() > 0 {
            let start = rng.random_range(0..g.vertex_count() as u32);
            let want = rng.random_range(1..=g.edge_count().min(6));
            if let Some(q) = bfs_extract(rng, g, start, want) {
                return q;
            }
        }
    }
    let n = rng.random_range(2..6usize);
    random_connected_graph(rng, n, 1, |r| r.random_range(0..3u16))
}

/// Applies a random dataset change through the GC+ facade.
fn random_change(rng: &mut StdRng, gc: &mut GraphCachePlus, initial: &[LabeledGraph]) {
    let op = OpType::ALL[rng.random_range(0..4usize)];
    let live: Vec<usize> = gc.store().iter_live().map(|(i, _)| i).collect();
    match op {
        OpType::Add => {
            let g = initial[rng.random_range(0..initial.len())].clone();
            gc.apply(ChangeOp::Add(g)).expect("add never fails");
        }
        OpType::Del if !live.is_empty() => {
            let id = live[rng.random_range(0..live.len())];
            gc.apply(ChangeOp::Del(id)).expect("picked live id");
        }
        OpType::Ua if !live.is_empty() => {
            let id = live[rng.random_range(0..live.len())];
            let g = gc.store().get(id).expect("live");
            let n = g.vertex_count() as u32;
            if n >= 2 {
                for _ in 0..16 {
                    let u = rng.random_range(0..n);
                    let v = rng.random_range(0..n);
                    if u != v && !g.has_edge(u, v) {
                        gc.apply(ChangeOp::Ua { id, u, v }).expect("edge absent");
                        return;
                    }
                }
            }
        }
        OpType::Ur if !live.is_empty() => {
            let id = live[rng.random_range(0..live.len())];
            let g = gc.store().get(id).expect("live");
            let edges: Vec<_> = g.edges().collect();
            if !edges.is_empty() {
                let (u, v) = edges[rng.random_range(0..edges.len())];
                gc.apply(ChangeOp::Ur { id, u, v }).expect("edge present");
            }
        }
        _ => {}
    }
}

/// Runs `queries` interleaved with aggressive churn, checking every answer
/// against cache-less ground truth.
fn run_equivalence(
    seed: u64,
    model: CacheModel,
    policy: Policy,
    algorithm: Algorithm,
    kind: QueryKind,
    queries: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = random_dataset(&mut rng, 25);
    let config = GcConfig {
        cache_capacity: 8,
        window_capacity: 3,
        model,
        policy,
        method: MethodM::new(algorithm),
        internal_matcher: Algorithm::Vf2Plus,
        // half the runs exercise the index-backed CS_M path, half the
        // paper's full live scan
        candidate_source: if seed.is_multiple_of(2) {
            CandidateSource::LabelIndex
        } else {
            CandidateSource::LiveScan
        },
        ..GcConfig::default()
    };
    let mut gc = GraphCachePlus::new(config, initial.clone());
    let oracle_method = MethodM::new(Algorithm::Vf2);

    for i in 0..queries {
        // heavy churn: ~1.2 ops per query on a 25-graph dataset
        let ops = rng.random_range(0..3);
        for _ in 0..ops {
            random_change(&mut rng, &mut gc, &initial);
        }
        let q = random_query(&mut rng, &gc);
        let got = gc.execute(&q, kind, QueryBudget::UNLIMITED);
        let expected = baseline_execute(gc.store(), &oracle_method, &q, kind);
        assert_eq!(
            got.answer, expected.answer,
            "answer divergence at query {i} (seed {seed}, {model}, {policy:?}, {algorithm}, {kind:?})\nquery: {q:?}"
        );
    }
}

#[test]
fn con_model_is_exact_subgraph() {
    run_equivalence(
        1,
        CacheModel::Con,
        Policy::Hybrid,
        Algorithm::Vf2,
        QueryKind::Subgraph,
        120,
    );
}

#[test]
fn evi_model_is_exact_subgraph() {
    run_equivalence(
        2,
        CacheModel::Evi,
        Policy::Hybrid,
        Algorithm::Vf2,
        QueryKind::Subgraph,
        120,
    );
}

#[test]
fn con_model_is_exact_supergraph() {
    run_equivalence(
        3,
        CacheModel::Con,
        Policy::Hybrid,
        Algorithm::Vf2Plus,
        QueryKind::Supergraph,
        120,
    );
}

#[test]
fn evi_model_is_exact_supergraph() {
    run_equivalence(
        4,
        CacheModel::Evi,
        Policy::Pin,
        Algorithm::GraphQl,
        QueryKind::Supergraph,
        80,
    );
}

#[test]
fn all_policies_preserve_correctness() {
    for (i, policy) in [
        Policy::Lru,
        Policy::Lfu,
        Policy::Pin,
        Policy::Pinc,
        Policy::Hybrid,
    ]
    .into_iter()
    .enumerate()
    {
        run_equivalence(
            10 + i as u64,
            CacheModel::Con,
            policy,
            Algorithm::Vf2Plus,
            QueryKind::Subgraph,
            60,
        );
    }
}

#[test]
fn all_methods_produce_identical_answers_and_test_counts() {
    // Figure 5's premise: the pruned candidate set — hence the test count —
    // is identical whatever SI algorithm Method M uses.
    let mut rng = StdRng::seed_from_u64(77);
    let initial = random_dataset(&mut rng, 20);
    let mk = |algo| {
        GraphCachePlus::new(
            GcConfig {
                cache_capacity: 8,
                window_capacity: 3,
                method: MethodM::new(algo),
                ..GcConfig::default()
            },
            initial.clone(),
        )
    };
    let mut systems: Vec<GraphCachePlus> = Algorithm::ALL.into_iter().map(mk).collect();

    // Each system replays the SAME seeded stream of changes and queries;
    // state evolution is identical, so answers and pruned-candidate sizes
    // must coincide exactly across SI algorithms.
    let mut counts: Vec<Vec<(Vec<usize>, u64)>> = vec![Vec::new(); systems.len()];
    for (si, gc) in systems.iter_mut().enumerate() {
        let mut rng = StdRng::seed_from_u64(555);
        for _ in 0..60 {
            if rng.random::<f64>() < 0.3 {
                random_change(&mut rng, gc, &initial);
            }
            let q = random_query(&mut rng, gc);
            let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
            counts[si].push((
                out.answer.iter_ones().collect::<Vec<_>>(),
                out.metrics.subiso_tests,
            ));
        }
    }
    assert_eq!(counts[0], counts[1], "VF2 vs VF2+ diverged");
    assert_eq!(counts[1], counts[2], "VF2+ vs GQL diverged");
}

#[test]
fn zero_capacity_cache_degenerates_to_baseline() {
    let mut rng = StdRng::seed_from_u64(99);
    let initial = random_dataset(&mut rng, 15);
    let config = GcConfig {
        cache_capacity: 0,
        window_capacity: 0,
        ..GcConfig::default()
    };
    let mut gc = GraphCachePlus::new(config, initial.clone());
    for _ in 0..30 {
        let q = random_query(&mut rng, &gc);
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(out.metrics.tests_saved, 0, "nothing cached, nothing saved");
        let truth = baseline_execute(
            gc.store(),
            &MethodM::new(Algorithm::Vf2),
            &q,
            QueryKind::Subgraph,
        );
        assert_eq!(out.answer, truth.answer);
    }
}
