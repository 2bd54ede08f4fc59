//! The change log's window: GC+ forgets the records no consumer can read
//! any more, so under a long stream of updates the log stays bounded by
//! its live graphs instead of growing with the stream.
//!
//! 20,000 UA / UR over a 30-graph dataset, interleaved with queries (now
//! and then a burst longer than the live set between two queries, and
//! audits, which move the maintenance cursor without an index sync).
//! After every query:
//!
//! * the log holds at most 2 records per live graph plus the records
//!   appended since the previous query;
//! * the answer equals cache-less `baseline_execute`'s, and no panic was
//!   contained on the way: a maintenance pass or an index sync that found
//!   its records forgotten would panic, and the retry and the cache-less
//!   fallback would still answer correctly.
//!
//! It runs under the label index (the default) and the paper's live scan,
//! where the maintenance cursor is the only cursor bounding the window.

use gc_core::{
    baseline_execute, CandidateSource, GcConfig, GraphCachePlus, HealthCounter, QueryBudget,
    ShardedGraphCache,
};
use gc_dataset::ChangeOp;
use gc_graph::generate::{bfs_extract, random_connected_graph};
use gc_graph::LabeledGraph;
use gc_subiso::QueryKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UPDATES: usize = 20_000;

fn dataset(rng: &mut StdRng) -> Vec<LabeledGraph> {
    (0..30)
        .map(|_| {
            let v = rng.random_range(4..10usize);
            let extra = rng.random_range(0..v);
            random_connected_graph(rng, v, extra, |r| r.random_range(0..3u16))
        })
        .collect()
}

fn query_pool(rng: &mut StdRng, data: &[LabeledGraph]) -> Vec<LabeledGraph> {
    (0..12)
        .filter_map(|_| {
            let src = &data[rng.random_range(0..data.len())];
            let start = rng.random_range(0..src.vertex_count() as u32);
            let want = rng.random_range(1..=src.edge_count().min(4));
            bfs_extract(rng, src, start, want)
        })
        .collect()
}

/// A UA or UR on a random graph of `data`'s id range: removes a present
/// edge or puts a missing one back, so every op is valid.
fn random_edge_op(rng: &mut StdRng, g: &LabeledGraph, id: usize) -> ChangeOp {
    let n = g.vertex_count() as u32;
    let u = rng.random_range(0..n);
    let v = (u + rng.random_range(1..n)) % n;
    if g.has_edge(u, v) {
        ChangeOp::Ur { id, u, v }
    } else {
        ChangeOp::Ua { id, u, v }
    }
}

/// How many updates go in before the next query: mostly a few, now and
/// then a burst of more than one record per live graph.
fn batch(rng: &mut StdRng) -> usize {
    if rng.random_bool(0.02) {
        rng.random_range(40..100)
    } else {
        rng.random_range(0..8)
    }
}

/// Every 50th query, and every other one after a burst, is preceded by an
/// audit: its maintenance pass reads the burst before the index does.
fn audits_before(query: u64, batch: usize) -> bool {
    query.is_multiple_of(50) || (batch >= 40 && query.is_multiple_of(2))
}

fn run(seed: u64, config: GcConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = dataset(&mut rng);
    let pool = query_pool(&mut rng, &data);
    let mut gc = GraphCachePlus::new(config, data.clone());
    let live = gc.store().live_count();
    let (mut updates, mut queries, mut last_head) = (0, 0u64, 0);
    while updates < UPDATES {
        let n = batch(&mut rng);
        for _ in 0..n {
            let id = rng.random_range(0..data.len());
            let op = random_edge_op(&mut rng, gc.store().get(id).expect("no DEL"), id);
            gc.apply(op).unwrap();
        }
        updates += n;
        queries += 1;
        if audits_before(queries, n) {
            gc.audit(0.2, queries);
        }
        let q = &pool[rng.random_range(0..pool.len())];
        let kind = if rng.random_bool(0.25) {
            QueryKind::Supergraph
        } else {
            QueryKind::Subgraph
        };
        let head = gc.log_len();
        let out = gc.execute(q, kind, QueryBudget::UNLIMITED);
        let ctx = format!("seed {seed}, query {queries}, {updates} updates");
        assert_eq!(out.metrics.panics_recovered, 0, "{ctx}");
        assert!(out.metrics.degraded.is_none(), "{ctx}");
        let oracle = baseline_execute(gc.store(), &gc.config().method, q, kind);
        assert_eq!(out.answer, oracle.answer, "{ctx}");
        let pending = head - last_head;
        assert!(
            gc.log_retained() <= 2 * live + pending,
            "{ctx}: {} records retained, {pending} pending",
            gc.log_retained()
        );
        last_head = head;
    }
    assert_eq!(
        gc.log_len(),
        updates,
        "log_len counts forgotten records too"
    );
    assert_eq!(gc.health_snapshot().get(HealthCounter::PanicsRecovered), 0);
    assert!(
        gc.memory_bytes().log < (updates * 24 / 10) as u64,
        "the log's buffer stays far below a record per update"
    );
}

#[test]
fn window_stays_bounded_under_the_label_index() {
    for seed in 0..2 {
        run(seed, GcConfig::default());
    }
}

#[test]
fn window_stays_bounded_under_the_live_scan() {
    let config = GcConfig {
        candidate_source: CandidateSource::LiveScan,
        ..GcConfig::default()
    };
    run(7, config);
}

/// Each shard's lock-free gauge follows its own log: after a query it is at
/// most 2 records per live graph of the shard plus what arrived since the
/// shard's previous query.
#[test]
fn every_shard_publishes_its_bounded_window() {
    let mut rng = StdRng::seed_from_u64(11);
    let data = dataset(&mut rng);
    let pool = query_pool(&mut rng, &data);
    let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 2);
    // round-robin placement: 15 live graphs per shard, none added or deleted
    let live_per_shard = data.len() / 2;
    let mut updates = 0;
    while updates < 2_000 {
        let mut pending = [0usize; 2];
        for _ in 0..batch(&mut rng) {
            let id = rng.random_range(0..data.len());
            let g = sharded.get(id).expect("no DEL");
            sharded.apply(random_edge_op(&mut rng, &g, id)).unwrap();
            pending[sharded.owner_shard(id).unwrap()] += 1;
            updates += 1;
        }
        let records = |s: usize| sharded.shard_counters()[s].log_records.get() as usize;
        let q = &pool[rng.random_range(0..pool.len())];
        sharded.execute(q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        for (s, pending) in pending.into_iter().enumerate() {
            assert!(records(s) <= 2 * live_per_shard + pending, "shard {s}");
        }
        let scraped: u64 = sharded.shard_stats().iter().map(|s| s.log_records).sum();
        assert_eq!(scraped as usize, records(0) + records(1));
    }
    let ledger = sharded.memory_bytes();
    assert!(
        ledger.log > 0 && ledger.store.csr > 0 && ledger.index > 0 && ledger.entries > 0,
        "{ledger:?}"
    );
}
