//! Failure injection and degenerate-configuration tests: GC+ must stay
//! exact (or fail loudly) when the deployment is hostile — empty datasets,
//! single-slot caches, dataset wiped mid-stream, graphs shrunk to the
//! empty edge set, and every combination of degenerate window/cache
//! capacities.

use gc_core::{baseline_execute, CacheModel, GcConfig, GraphCachePlus, QueryBudget};
use gc_dataset::ChangeOp;
use gc_graph::LabeledGraph;
use gc_subiso::{Algorithm, MethodM, QueryKind};

fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
    LabeledGraph::from_parts(labels, edges).unwrap()
}

fn check_exact(gc: &mut GraphCachePlus, q: &LabeledGraph, kind: QueryKind, what: &str) {
    let got = gc.execute(q, kind, QueryBudget::UNLIMITED);
    let truth = baseline_execute(gc.store(), &MethodM::new(Algorithm::Vf2), q, kind);
    assert_eq!(got.answer, truth.answer, "{what}");
}

#[test]
fn empty_dataset_everything_is_empty() {
    let mut gc = GraphCachePlus::new(GcConfig::default(), Vec::new());
    let q = g(vec![0], &[]);
    for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
        let out = gc.execute(&q, kind, QueryBudget::UNLIMITED);
        assert!(out.answer.is_empty());
        assert_eq!(out.metrics.subiso_tests, 0);
    }
    // adding the first graph wakes everything up
    gc.apply(ChangeOp::Add(g(vec![0, 0], &[(0, 1)]))).unwrap();
    let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0]);
}

#[test]
fn dataset_wiped_mid_stream() {
    let initial = vec![
        g(vec![0, 0], &[(0, 1)]),
        g(vec![0, 0, 0], &[(0, 1), (1, 2)]),
        g(vec![1, 1], &[(0, 1)]),
    ];
    let mut gc = GraphCachePlus::new(GcConfig::default(), initial);
    let q = g(vec![0, 0], &[(0, 1)]);
    check_exact(&mut gc, &q, QueryKind::Subgraph, "before wipe");

    for id in 0..3 {
        gc.apply(ChangeOp::Del(id)).unwrap();
    }
    let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert!(out.answer.is_empty(), "all graphs deleted");
    assert_eq!(out.metrics.subiso_tests, 0);

    // repopulate; ids continue from 3
    let id = gc.apply(ChangeOp::Add(g(vec![0, 0], &[(0, 1)]))).unwrap();
    assert_eq!(id, 3);
    let out2 = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert_eq!(out2.answer.iter_ones().collect::<Vec<_>>(), vec![3]);
}

#[test]
fn graph_stripped_to_no_edges() {
    let initial = vec![g(vec![0, 0, 0], &[(0, 1), (1, 2)])];
    let mut gc = GraphCachePlus::new(GcConfig::default(), initial);
    let edge_q = g(vec![0, 0], &[(0, 1)]);
    check_exact(&mut gc, &edge_q, QueryKind::Subgraph, "full graph");

    gc.apply(ChangeOp::Ur { id: 0, u: 0, v: 1 }).unwrap();
    gc.apply(ChangeOp::Ur { id: 0, u: 1, v: 2 }).unwrap();
    let out = gc.execute(&edge_q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert!(out.answer.is_empty(), "edgeless graph contains no edge");
    // a single labeled vertex still matches
    let dot_q = g(vec![0], &[]);
    check_exact(
        &mut gc,
        &dot_q,
        QueryKind::Subgraph,
        "dot query on edgeless graph",
    );

    // rebuild the edges — positive answers must come back
    gc.apply(ChangeOp::Ua { id: 0, u: 0, v: 1 }).unwrap();
    check_exact(&mut gc, &edge_q, QueryKind::Subgraph, "edge restored");
}

#[test]
fn degenerate_capacities() {
    let initial = vec![
        g(vec![0, 0], &[(0, 1)]),
        g(vec![0, 0, 0], &[(0, 1), (1, 2)]),
    ];
    let q = g(vec![0, 0], &[(0, 1)]);
    for (cache, window) in [(0usize, 0usize), (0, 5), (1, 1), (1, 0), (100, 1)] {
        for model in [CacheModel::Evi, CacheModel::Con, CacheModel::ConRetro] {
            let mut gc = GraphCachePlus::new(
                GcConfig {
                    cache_capacity: cache,
                    window_capacity: window,
                    model,
                    ..GcConfig::default()
                },
                initial.clone(),
            );
            for i in 0..10 {
                if i == 5 {
                    gc.apply(ChangeOp::Ua { id: 1, u: 0, v: 2 }).unwrap();
                }
                check_exact(
                    &mut gc,
                    &q,
                    QueryKind::Subgraph,
                    &format!("cache={cache} window={window} model={model} step={i}"),
                );
            }
            let (c, w) = gc.occupancy();
            assert!(c <= cache && w <= window.max(1), "capacity respected");
        }
    }
}

#[test]
fn rapid_alternation_of_queries_and_inverse_changes() {
    let initial = vec![
        g(vec![0, 0, 1], &[(0, 1), (1, 2)]),
        g(vec![0, 1], &[(0, 1)]),
    ];
    for model in [CacheModel::Con, CacheModel::ConRetro] {
        let mut gc = GraphCachePlus::new(
            GcConfig {
                model,
                ..GcConfig::default()
            },
            initial.clone(),
        );
        let q = g(vec![0, 0], &[(0, 1)]);
        for round in 0..20 {
            // flip the 0-0 edge of graph 0 every round
            if round % 2 == 0 {
                gc.apply(ChangeOp::Ur { id: 0, u: 0, v: 1 }).unwrap();
            } else {
                gc.apply(ChangeOp::Ua { id: 0, u: 0, v: 1 }).unwrap();
            }
            check_exact(
                &mut gc,
                &q,
                QueryKind::Subgraph,
                &format!("{model} round {round}"),
            );
        }
    }
}

/// A dense query from the wire must not hang its request. Building a
/// graph's path words cannot be cancelled, so a graph past their step cap
/// has none (a 200-vertex clique passes it on its first edge). The clique
/// as a subgraph query, and K(100,100) as a supergraph query whose scan
/// first searches a negative (a triangle, which no bipartite graph holds)
/// and so asks the path words of every later pair, each return within
/// twice a 50 ms deadline, with the exact answer or a degraded one.
#[test]
fn dense_queries_return_within_twice_their_deadline() {
    use std::time::{Duration, Instant};
    let clique = {
        let n = 200u32;
        let edges: Vec<_> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        g(vec![0; n as usize], &edges)
    };
    let biclique = {
        let edges: Vec<_> = (0..100u32)
            .flat_map(|u| (100..200u32).map(move |v| (u, v)))
            .collect();
        g(vec![0; 200], &edges)
    };
    let dataset = vec![
        g(vec![0; 3], &[(0, 1), (1, 2), (0, 2)]),
        g(vec![0; 4], &[(0, 1), (1, 2), (2, 3), (0, 3)]),
        g(vec![0; 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]),
    ];
    let mut gc = GraphCachePlus::new(GcConfig::default(), dataset);
    let deadline = Duration::from_millis(50);
    let budget = QueryBudget {
        deadline: Some(deadline),
        max_tests: None,
    };
    for (q, kind, exact) in [
        (&clique, QueryKind::Subgraph, vec![]),
        (&biclique, QueryKind::Supergraph, vec![1, 2]),
    ] {
        let start = Instant::now();
        let out = gc.execute(q, kind, budget);
        let took = start.elapsed();
        assert!(took < 2 * deadline, "{kind:?} took {took:?}");
        if out.metrics.degraded.is_none() {
            assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), exact);
        }
    }
}
