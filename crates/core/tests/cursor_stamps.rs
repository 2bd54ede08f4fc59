//! Cursor stamps: every answer names the change-log cursor it reflects.
//!
//! A GC+ read runs at one cursor and stamps its outcome with it
//! (`QueryOutcome::cursor`); a routed query carries one stamp per shard
//! (`RoutedOutcome::cursors`). On seeded UA / UR streams, each stamped
//! answer must equal cache-less Method M on the store replayed to its
//! cursor: the initial graphs with the first `cursor` changes applied.
//! The sharded stream has a writer thread beside the reader, so a stamp is
//! the only way to know which of the writer's changes an answer saw.

use std::sync::Barrier;

use gc_core::{baseline_execute, GcConfig, GraphCachePlus, QueryBudget, ShardedGraphCache};
use gc_dataset::{ChangeLog, ChangeOp, GraphStore, LogCursor};
use gc_graph::generate::{bfs_extract, random_connected_graph};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::{MethodM, QueryKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(rng: &mut StdRng, n: usize) -> Vec<LabeledGraph> {
    (0..n)
        .map(|_| {
            let v = rng.random_range(4..8usize);
            let extra = rng.random_range(0..v);
            random_connected_graph(rng, v, extra, |r| r.random_range(0..3u16))
        })
        .collect()
}

fn query_pool(rng: &mut StdRng, data: &[LabeledGraph]) -> Vec<LabeledGraph> {
    (0..8)
        .filter_map(|_| {
            let src = &data[rng.random_range(0..data.len())];
            let start = rng.random_range(0..src.vertex_count() as u32);
            let want = rng.random_range(1..=src.edge_count().min(3));
            bfs_extract(rng, src, start, want)
        })
        .collect()
}

/// A UA of a missing edge or a UR of a present one on graph `id`.
fn edge_op(rng: &mut StdRng, g: &LabeledGraph, id: usize) -> ChangeOp {
    let n = g.vertex_count() as u32;
    let u = rng.random_range(0..n);
    let v = (u + rng.random_range(1..n)) % n;
    if g.has_edge(u, v) {
        ChangeOp::Ur { id, u, v }
    } else {
        ChangeOp::Ua { id, u, v }
    }
}

/// Method M's answer on `initial` with the first `cursor` of `ops`
/// applied.
fn replayed(
    initial: &[LabeledGraph],
    ops: &[ChangeOp],
    cursor: LogCursor,
    method: &MethodM,
    query: &LabeledGraph,
    kind: QueryKind,
) -> BitSet {
    let (mut store, mut log) = (GraphStore::from_graphs(initial.to_vec()), ChangeLog::new());
    for op in &ops[..cursor.0] {
        op.clone()
            .apply(&mut store, &mut log)
            .expect("replays as applied");
    }
    baseline_execute(&store, method, query, kind).answer
}

fn kind(rng: &mut StdRng) -> QueryKind {
    if rng.random_bool(0.75) {
        QueryKind::Subgraph
    } else {
        QueryKind::Supergraph
    }
}

#[test]
fn every_stamped_answer_is_method_m_at_its_cursor() {
    let mut rng = StdRng::seed_from_u64(5);
    let data = dataset(&mut rng, 20);
    let pool = query_pool(&mut rng, &data);
    let mut gc = GraphCachePlus::new(GcConfig::default(), data.clone());
    let mut ops = Vec::new();
    for step in 0..300 {
        for _ in 0..rng.random_range(0..4) {
            let id = rng.random_range(0..data.len());
            let op = edge_op(&mut rng, gc.store().get(id).expect("no DEL"), id);
            gc.apply(op.clone()).unwrap();
            ops.push(op);
        }
        let (q, kind) = (&pool[rng.random_range(0..pool.len())], kind(&mut rng));
        let out = gc.execute(q, kind, QueryBudget::UNLIMITED);
        assert_eq!(out.cursor, LogCursor(ops.len()), "step {step}");
        let want = replayed(&data, &ops, out.cursor, &gc.config().method, q, kind);
        assert_eq!(out.answer, want, "step {step}");
    }
}

/// Two shards, a writer thread applying UA / UR and a reader querying
/// beside it, in rounds a barrier closes: a round's queries run while the
/// writer applies that round's changes. Each shard's slice of a routed
/// answer is Method M on that shard's partition replayed to the shard's
/// stamp.
#[test]
fn every_shard_slice_is_method_m_at_its_stamp() {
    const SHARDS: usize = 2;
    const ROUNDS: usize = 60;
    let mut rng = StdRng::seed_from_u64(9);
    let data = dataset(&mut rng, 16);
    let pool = query_pool(&mut rng, &data);
    let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), SHARDS);
    // round-robin placement: global id g is local id g / SHARDS on shard
    // g % SHARDS, and no ADD or DEL moves it
    let partition =
        |s: usize| -> Vec<LabeledGraph> { data.iter().skip(s).step_by(SHARDS).cloned().collect() };
    let rounds = Barrier::new(2);
    let (routed, shard_ops) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // the one writer: each shard's changes in the order it applied
            // them, in local ids
            let mut ops: [Vec<ChangeOp>; SHARDS] = Default::default();
            let mut rng = StdRng::seed_from_u64(10);
            for _ in 0..ROUNDS {
                for _ in 0..4 {
                    let id = rng.random_range(0..data.len());
                    let g = sharded.get(id).expect("no DEL");
                    let op = edge_op(&mut rng, &g, id);
                    sharded.apply(op.clone()).unwrap();
                    let local = match op {
                        ChangeOp::Ua { u, v, .. } => ChangeOp::Ua {
                            id: id / SHARDS,
                            u,
                            v,
                        },
                        ChangeOp::Ur { u, v, .. } => ChangeOp::Ur {
                            id: id / SHARDS,
                            u,
                            v,
                        },
                        _ => unreachable!("only edge changes"),
                    };
                    ops[id % SHARDS].push(local);
                }
                rounds.wait();
            }
            ops
        });
        let mut routed = Vec::new();
        for _ in 0..ROUNDS {
            for _ in 0..2 {
                let (qi, kind) = (rng.random_range(0..pool.len()), kind(&mut rng));
                let out = sharded.execute(&pool[qi], kind, QueryBudget::UNLIMITED, None);
                routed.push((qi, kind, out));
            }
            rounds.wait();
        }
        (routed, writer.join().expect("the writer panicked"))
    });
    let method = sharded.config().method;
    let mut inside = 0;
    for (step, (qi, kind, out)) in routed.iter().enumerate() {
        assert_eq!(out.cursors.len(), SHARDS);
        for (s, ops) in shard_ops.iter().enumerate() {
            let cursor = out.cursors[s].expect("every shard served the slot");
            let want = replayed(&partition(s), ops, cursor, &method, &pool[*qi], *kind);
            let got: Vec<usize> = (out.outcome.answer.iter_ones())
                .filter(|g| g % SHARDS == s)
                .map(|g| g / SHARDS)
                .collect();
            assert_eq!(
                got,
                want.iter_ones().collect::<Vec<_>>(),
                "step {step} shard {s}"
            );
            inside += usize::from(cursor.0 > 0 && cursor.0 < ops.len());
        }
    }
    // every round after the first sees the changes of the rounds before
    assert!(inside > ROUNDS, "only {inside} stamps inside the stream");
}
