//! Incremental-maintenance coverage for the postings-bitset index: after
//! arbitrary UA/UR splice sequences (interleaved with ADD/DEL and synced
//! at random points), the index must equal a fresh `LabelIndex::build`
//! **structurally** — same postings, same retained signatures, same
//! indexed set — not merely answer queries the same way. The
//! `records_replayed` counter additionally witnesses that convergence
//! went through log replay, never a rebuild.

use gc_dataset::{ChangeLog, GraphStore, LabelIndex, OpType};
use gc_graph::generate::random_connected_graph;
use gc_graph::LabeledGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
    LabeledGraph::from_parts(labels, edges).unwrap()
}

fn seed_dataset(seed: u64, n: usize) -> (GraphStore, ChangeLog) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graphs: Vec<LabeledGraph> = (0..n)
        .map(|_| {
            let v = rng.random_range(3..10usize);
            let extra = rng.random_range(0..v);
            random_connected_graph(&mut rng, v, extra, |r| r.random_range(0..4u16))
        })
        .collect();
    (GraphStore::from_graphs(graphs), ChangeLog::new())
}

/// Picks a live graph id, if any.
fn pick_live(rng: &mut StdRng, store: &GraphStore) -> Option<usize> {
    let live: Vec<usize> = store.iter_live().map(|(id, _)| id).collect();
    if live.is_empty() {
        None
    } else {
        Some(live[rng.random_range(0..live.len())])
    }
}

/// Applies one random op to the store + log. UA adds a random missing
/// edge, UR removes a random present one; both are skipped (returning
/// false) when the target graph has no such edge.
fn random_op(rng: &mut StdRng, store: &mut GraphStore, log: &mut ChangeLog) -> bool {
    match rng.random_range(0..6u32) {
        0 => {
            let v = rng.random_range(2..8usize);
            let fresh = random_connected_graph(rng, v, 1, |r| r.random_range(0..4u16));
            let id = store.add_graph(fresh);
            log.append(id, OpType::Add);
            true
        }
        1 => match pick_live(rng, store) {
            Some(id) => {
                store.delete(id).unwrap();
                log.append(id, OpType::Del);
                true
            }
            None => false,
        },
        // UA/UR get double weight: the splice path is the one under test
        2 | 3 => match pick_live(rng, store) {
            Some(id) => {
                let graph = store.get(id).unwrap();
                let n = graph.vertex_count() as u32;
                let missing: Vec<(u32, u32)> = (0..n)
                    .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                    .filter(|&(u, v)| !graph.has_edge(u, v))
                    .collect();
                if missing.is_empty() {
                    return false;
                }
                let (u, v) = missing[rng.random_range(0..missing.len())];
                store.add_edge(id, u, v).unwrap();
                log.append_edge(id, OpType::Ua, u, v);
                true
            }
            None => false,
        },
        _ => match pick_live(rng, store) {
            Some(id) => {
                let edges: Vec<(u32, u32)> = store.get(id).unwrap().edges().collect();
                if edges.is_empty() {
                    return false;
                }
                let (u, v) = edges[rng.random_range(0..edges.len())];
                store.remove_edge(id, u, v).unwrap();
                log.append_edge(id, OpType::Ur, u, v);
                true
            }
            None => false,
        },
    }
}

#[test]
fn add_then_remove_same_edge_is_structurally_neutral() {
    let (mut store, mut log) = seed_dataset(11, 6);
    let mut idx = LabelIndex::build(&store, &log);
    let before = LabelIndex::build(&store, &log);

    // splice an edge in and straight back out, syncing in between so the
    // index really walks through the intermediate state
    let id = pick_live(&mut StdRng::seed_from_u64(1), &store).unwrap();
    let graph = store.get(id).unwrap();
    let n = graph.vertex_count() as u32;
    let (u, v) = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| !graph.has_edge(u, v))
        .expect("seeded graphs are not complete");
    store.add_edge(id, u, v).unwrap();
    log.append_edge(id, OpType::Ua, u, v);
    idx.sync(&store, &log);
    store.remove_edge(id, u, v).unwrap();
    log.append_edge(id, OpType::Ur, u, v);
    idx.sync(&store, &log);

    let fresh = LabelIndex::build(&store, &log);
    assert!(idx.same_structure(&fresh), "incremental ≠ fresh build");
    assert!(
        idx.same_structure(&before),
        "net-zero splice changed structure"
    );
    assert_eq!(
        idx.records_replayed(),
        2,
        "both records replayed, no rebuild"
    );
}

#[test]
fn a_pair_count_crossing_every_threshold_is_mirrored() {
    // graph 0: a path of six 0-labelled vertices beside a path of six
    // 1-labelled ones, no 0-1 edge yet. The query "k disjoint 0-1 edges"
    // is count-dominated throughout (≤ 12 vertices, ≤ 10 edges, degree 1),
    // so only the edge-pair fingerprint decides: UA by UA the rungs
    // (i, 6 + i) raise the pair's count past each threshold, UR by UR it
    // drops back to 0. Past the 4th rung the fingerprint is saturated and
    // lets the larger queries through — the matcher's job, not the filter's.
    let rails: Vec<(u32, u32)> = (0..5).flat_map(|i| [(i, i + 1), (6 + i, 7 + i)]).collect();
    let mut labels = vec![0u16; 6];
    labels.extend([1; 6]);
    let rungs = |k: u32| {
        let mut labels = vec![0u16; k as usize];
        labels.extend((0..k).map(|_| 1));
        g(labels, &(0..k).map(|i| (i, k + i)).collect::<Vec<_>>())
    };
    let mut store = GraphStore::from_graphs(vec![
        g(labels, &rails),
        g(vec![0, 0, 1], &[(0, 1), (1, 2)]),
        g(vec![1, 1], &[(0, 1)]),
    ]);
    let mut log = ChangeLog::new();
    let mut idx = LabelIndex::build(&store, &log);
    let check = |idx: &LabelIndex, store: &GraphStore, log: &ChangeLog, count: u32| {
        assert!(idx.same_structure(&LabelIndex::build(store, log)));
        for k in 1..=6 {
            assert_eq!(
                idx.subgraph_candidates(&rungs(k)).get(0),
                k.min(4) <= count,
                "{k} rungs wanted, {count} present"
            );
        }
    };
    check(&idx, &store, &log, 0);
    for i in 0..6 {
        store.add_edge(0, i, 6 + i).unwrap();
        log.append_edge(0, OpType::Ua, i, 6 + i);
        idx.sync(&store, &log);
        check(&idx, &store, &log, i + 1);
    }
    for i in (0..6).rev() {
        store.remove_edge(0, i, 6 + i).unwrap();
        log.append_edge(0, OpType::Ur, i, 6 + i);
        idx.sync(&store, &log);
        check(&idx, &store, &log, i);
    }
    assert_eq!(idx.records_replayed(), 12, "maintained, never rebuilt");
}

#[test]
fn label_churn_on_a_vertex_reindexes_postings() {
    // vertex labels are immutable under the paper's four ops; label churn
    // is expressed as DEL + ADD of the modified graph. The old label's
    // posting must drop the graph, the new label's must gain the fresh id.
    let (mut store, mut log) = seed_dataset(7, 4);
    let mut idx = LabelIndex::build(&store, &log);

    let victim = 2;
    let old = store.get(victim).unwrap();
    let mut labels: Vec<u16> = old.labels().to_vec();
    let edges: Vec<(u32, u32)> = old.edges().collect();
    labels[0] = 9; // churn vertex 0's label to one nothing else uses
    store.delete(victim).unwrap();
    log.append(victim, OpType::Del);
    let new_id = store.add_graph(g(labels, &edges));
    log.append(new_id, OpType::Add);
    idx.sync(&store, &log);

    let fresh = LabelIndex::build(&store, &log);
    assert!(idx.same_structure(&fresh));
    let probe = g(vec![9], &[]);
    assert_eq!(
        idx.subgraph_candidates(&probe)
            .iter_ones()
            .collect::<Vec<_>>(),
        vec![new_id]
    );
}

proptest! {
    /// Random op soup (ADD/DEL with UA/UR splices double-weighted),
    /// synced at random cut points: the incrementally maintained index is
    /// structurally identical to a fresh build at every cut and at the
    /// end, and replayed exactly the logged records.
    #[test]
    fn splice_sequences_converge_to_fresh_build(seed in 0u64..120) {
        let (mut store, mut log) = seed_dataset(seed, 8);
        let mut idx = LabelIndex::build(&store, &log);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let ops = rng.random_range(5..40usize);
        for _ in 0..ops {
            random_op(&mut rng, &mut store, &mut log);
            if rng.random_range(0..4u32) == 0 {
                idx.sync(&store, &log);
                let fresh = LabelIndex::build(&store, &log);
                prop_assert!(idx.same_structure(&fresh), "diverged mid-sequence");
            }
        }
        idx.sync(&store, &log);
        let fresh = LabelIndex::build(&store, &log);
        prop_assert!(idx.same_structure(&fresh), "diverged at end");
        prop_assert_eq!(idx.records_replayed(), log.len() as u64);
        prop_assert_eq!(fresh.records_replayed(), 0);
    }
}
