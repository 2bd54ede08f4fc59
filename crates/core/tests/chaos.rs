//! Failure injection and degenerate-configuration tests: GC+ must stay
//! exact (or fail loudly) when the deployment is hostile — empty datasets,
//! single-slot caches, dataset wiped mid-stream, bulk mutations bypassing
//! the facade, graphs shrunk to the empty edge set, and every combination
//! of degenerate window/cache capacities.

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
fn bulk_mutation_bypassing_apply_is_still_seen() {
    // with_dataset gives raw access; as long as the caller logs, the
    // validators and the postings index must pick the changes up lazily
    // (the index-backed candidate source is the default)
    let initial = vec![g(vec![0, 0], &[(0, 1)]), g(vec![1, 1], &[(0, 1)])];
    let mut gc = GraphCachePlus::new(GcConfig::default(), initial);
    let q = g(vec![2, 2], &[(0, 1)]);
    assert!(gc
        .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
        .answer
        .is_empty());

    // bulk-add a matching graph through the raw interface
    gc.with_dataset(|store, log| {
        let id =
            store.add_graph(LabeledGraph::from_parts(vec![2, 2, 2], &[(0, 1), (1, 2)]).unwrap());
        log.append(id, gc_dataset::OpType::Add);
    });
    let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![2]);
}

#[test]
fn unlogged_mutation_is_a_documented_hazard() {
    // The contract of with_dataset says: log every mutation or the cache
    // will not see it. This test documents the failure mode: an unlogged
    // change can leave stale validity behind. (EVI/CON equally affected —
    // consistency machinery keys off the log, exactly like the paper's
    // Log Analyzer.)
    let initial = vec![g(vec![0, 0, 0], &[(0, 1), (1, 2)])];
    let mut gc = GraphCachePlus::new(GcConfig::default(), initial);
    let q = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
    let first = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert_eq!(first.answer.count_ones(), 1);

    // silently remove an edge (no log record)
    gc.with_dataset(|store, _log| {
        store.remove_edge(0, 0, 1).unwrap();
    });
    let stale = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    // the cached exact-match answer is now stale — and that is exactly the
    // behavior the change log exists to prevent
    assert_eq!(
        stale.answer.count_ones(),
        1,
        "unlogged change must go unnoticed (documents the contract)"
    );
    // logging a compensating record heals the cache on the next query
    gc.with_dataset(|_store, log| {
        log.append_edge(0, gc_dataset::OpType::Ur, 0, 1);
    });
    check_exact(&mut gc, &q, QueryKind::Subgraph, "after healing log record");
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
