//! `ShardedGraphCache` under real threads: the per-shard locks must keep
//! every answer explainable as Method M on a state each graph actually
//! had during the request (Theorems 3/6 restated per graph), the
//! per-shard ledger exact, and ADD/DEL routing free of deadlocks and
//! torn `reverse` maps.
//!
//! Threads are released together by a barrier and race freely from
//! there; what is asserted holds under *every* interleaving, so no
//! schedule needs forcing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gc_core::{baseline_execute, GcConfig, GraphCachePlus, QueryBudget, ShardedGraphCache};
use gc_dataset::{ChangeOp, GraphStore};
use gc_graph::generate::{bfs_extract, random_connected_graph};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::QueryKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Query = (LabeledGraph, QueryKind);

fn dataset(n: usize, seed: u64) -> Vec<LabeledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let v = rng.random_range(5..10usize);
            random_connected_graph(&mut rng, v, 2, |r| r.random_range(0..3u16))
        })
        .collect()
}

/// Small patterns cut out of the dataset, every fourth one asked as a
/// supergraph query.
fn queries(data: &[LabeledGraph], count: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let src = &data[rng.random_range(0..data.len())];
            let q = bfs_extract(&mut rng, src, 0, 2 + i % 4).expect("extractable");
            let kind = if i % 4 == 3 {
                QueryKind::Supergraph
            } else {
                QueryKind::Subgraph
            };
            (q, kind)
        })
        .collect()
}

/// Cache-less Method M over `graphs`.
fn method_m(graphs: &[LabeledGraph], (q, kind): &Query) -> BitSet {
    let store = GraphStore::from_graphs(graphs.to_vec());
    baseline_execute(&store, &GcConfig::default().method, q, *kind).answer
}

fn ids(answer: &BitSet) -> Vec<usize> {
    answer.iter_ones().collect()
}

#[test]
fn sharded_cache_is_send_and_sync() {
    // `CacheService`'s twin of this assertion lives in gc_server's own
    // tests: gc_core cannot name a crate that depends on it
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedGraphCache>();
}

#[test]
fn read_only_storm_matches_sequential_oracle() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    let data = dataset(30, 41);
    let pool = queries(&data, 12, 42);
    let mut single = GraphCachePlus::new(GcConfig::default(), data.clone());
    let oracle: Vec<Vec<usize>> = pool
        .iter()
        .map(|(q, kind)| ids(&single.execute(q, *kind, QueryBudget::UNLIMITED).answer))
        .collect();

    for shards in [1usize, 2, 3] {
        let cache = ShardedGraphCache::new(GcConfig::default(), data.clone(), shards);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (cache, start, pool, oracle) = (&cache, &start, &pool, &oracle);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..ROUNDS * pool.len() {
                        // each thread walks the pool from its own offset
                        let k = (i + 3 * t) % pool.len();
                        let (q, kind) = &pool[k];
                        let out = cache
                            .execute(q, *kind, QueryBudget::UNLIMITED, None)
                            .outcome;
                        assert!(out.metrics.degraded.is_none());
                        assert_eq!(ids(&out.answer), oracle[k], "{shards} shards, query {k}");
                    }
                });
            }
        });
        let executed = (THREADS * ROUNDS * pool.len()) as u64;
        for (i, s) in cache.shard_stats().iter().enumerate() {
            assert_eq!(s.hits + s.misses, executed, "{shards} shards, shard {i}");
        }
    }
}

#[test]
fn answers_under_concurrent_toggles_are_method_m_per_graph() {
    const READERS: usize = 3;
    const TOGGLE_ROUNDS: usize = 120;
    const MIN_QUERIES: usize = 200;
    let data = dataset(24, 51);
    // the writer removes and restores one fixed edge of each of these
    let toggled: Vec<(usize, u32, u32)> = [0usize, 1, 5, 8, 13, 22]
        .into_iter()
        .map(|id| {
            let (u, v) = data[id].edges().next().expect("has edges");
            (id, u, v)
        })
        .collect();
    let mut post_data = data.clone();
    for &(id, u, v) in &toggled {
        post_data[id].remove_edge(u, v).expect("edge exists");
    }
    // a toggled graph asked for as a subgraph pattern matches itself only
    // while its edge is there, so these queries see every toggle
    let mut pool = queries(&data, 8, 52);
    pool.extend(
        toggled
            .iter()
            .map(|&(id, ..)| (data[id].clone(), QueryKind::Subgraph)),
    );
    let pre: Vec<BitSet> = pool.iter().map(|q| method_m(&data, q)).collect();
    let post: Vec<BitSet> = pool.iter().map(|q| method_m(&post_data, q)).collect();
    assert!(
        toggled
            .iter()
            .all(|&(id, ..)| (0..pool.len()).any(|k| pre[k].get(id) != post[k].get(id))),
        "every toggle must be visible to some query"
    );
    let is_toggled = |g: usize| toggled.iter().any(|&(id, ..)| id == g);
    let graphs = data.len();

    let cache = ShardedGraphCache::new(GcConfig::default(), data.clone(), 3);
    let start = Barrier::new(READERS + 1);
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            for _ in 0..TOGGLE_ROUNDS {
                for &(id, u, v) in &toggled {
                    cache
                        .apply(ChangeOp::Ur { id, u, v })
                        .expect("edge is there");
                }
                for &(id, u, v) in &toggled {
                    cache
                        .apply(ChangeOp::Ua { id, u, v })
                        .expect("edge is gone");
                }
            }
            writer_done.store(true, SeqCst);
        });
        for t in 0..READERS {
            let (cache, start, pool, pre, post) = (&cache, &start, &pool, &pre, &post);
            let (writer_done, is_toggled) = (&writer_done, &is_toggled);
            scope.spawn(move || {
                start.wait();
                let mut i = 0;
                while i < MIN_QUERIES || !writer_done.load(SeqCst) {
                    let k = (i + 5 * t) % pool.len();
                    let (q, kind) = &pool[k];
                    let out = cache
                        .execute(q, *kind, QueryBudget::UNLIMITED, None)
                        .outcome;
                    assert!(out.metrics.degraded.is_none());
                    for g in 0..graphs {
                        let got = out.answer.get(g);
                        assert!(
                            got == pre[k].get(g) || (is_toggled(g) && got == post[k].get(g)),
                            "query {k}, graph {g}: {got} is Method M on no state the graph had"
                        );
                    }
                    i += 1;
                }
            });
        }
    });
    // the writer left every edge in place: quiescent answers are exact
    for (k, (q, kind)) in pool.iter().enumerate() {
        assert_eq!(
            ids(&cache
                .execute(q, *kind, QueryBudget::UNLIMITED, None)
                .outcome
                .answer),
            ids(&pre[k]),
            "query {k}"
        );
    }
}

#[test]
fn add_del_racing_queries_stay_visible_and_deadlock_free() {
    const READERS: usize = 3;
    const ADDS: usize = 200;
    /// The writer deletes the graph it added this many steps ago.
    const LAG: usize = 5;
    let data = dataset(12, 61);
    let base = data.len();
    // a label the dataset does not use: the probe matches exactly the
    // graphs the writer has added and not yet deleted
    let probe = LabeledGraph::from_parts(vec![9; 3], &[(0, 1), (1, 2), (0, 2)]).unwrap();
    let (edge_u, edge_v) = data[0].edges().next().expect("has edges");
    let base_query = queries(&data[1..], 1, 62).remove(0);
    let base_answer = ids(&method_m(&data, &base_query));
    let base_answer: Vec<usize> = base_answer.into_iter().filter(|&g| g != 0).collect();

    /// What the writer and the readers share. The three counts are "ADD k
    /// returned", "DEL k is about to be sent" and "DEL k returned": they
    /// only grow, and the writer is their only writer.
    struct Shared {
        cache: ShardedGraphCache,
        start: Barrier,
        add_done: AtomicUsize,
        del_started: AtomicUsize,
        del_done: AtomicUsize,
        writer_done: AtomicBool,
        probe: LabeledGraph,
        base_query: Query,
        base_answer: Vec<usize>,
    }
    // plain threads on an `Arc`, not a scope: a scope would join a
    // deadlocked thread forever instead of letting the watchdog fail
    let shared = Arc::new(Shared {
        cache: ShardedGraphCache::new(GcConfig::default(), data, 3),
        start: Barrier::new(READERS + 1),
        add_done: AtomicUsize::new(0),
        del_started: AtomicUsize::new(0),
        del_done: AtomicUsize::new(0),
        writer_done: AtomicBool::new(false),
        probe,
        base_query,
        base_answer,
    });

    let s = Arc::clone(&shared);
    let mut threads = vec![std::thread::spawn(move || {
        s.start.wait();
        for k in 0..ADDS {
            let global = s.cache.apply(ChangeOp::Add(s.probe.clone())).expect("add");
            assert_eq!(global, base + k, "one writer: ids are dense");
            s.add_done.store(k + 1, SeqCst);
            // a UA/UR pair on the table's read path, between the writes
            let (id, u, v) = (0, edge_u, edge_v);
            s.cache.apply(ChangeOp::Ur { id, u, v }).expect("ur");
            s.cache.apply(ChangeOp::Ua { id, u, v }).expect("ua");
            if let Some(j) = k.checked_sub(LAG) {
                s.del_started.store(j + 1, SeqCst);
                s.cache.apply(ChangeOp::Del(base + j)).expect("del");
                s.del_done.store(j + 1, SeqCst);
            }
        }
        s.writer_done.store(true, SeqCst);
    })];
    for _ in 0..READERS {
        let s = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            s.start.wait();
            while !s.writer_done.load(SeqCst) {
                let (added, deleted) = (s.add_done.load(SeqCst), s.del_done.load(SeqCst));
                let out = s
                    .cache
                    .execute(&s.probe, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
                    .outcome;
                let deleting = s.del_started.load(SeqCst);
                assert!(out.metrics.degraded.is_none());
                let got = ids(&out.answer);
                assert!(got.iter().all(|&g| (base..base + ADDS).contains(&g)));
                for k in 0..deleted {
                    assert!(!got.contains(&(base + k)), "{} was deleted", base + k);
                }
                for k in deleting..added {
                    assert!(got.contains(&(base + k)), "{} was added", base + k);
                }
                // graphs nobody adds or deletes answer as ever (graph 0's
                // edge is in flux, so it is left out of the comparison)
                let out = s
                    .cache
                    .execute(
                        &s.base_query.0,
                        s.base_query.1,
                        QueryBudget::UNLIMITED,
                        None,
                    )
                    .outcome;
                let got: Vec<usize> = out.answer.iter_ones().filter(|&g| g != 0).collect();
                assert_eq!(got, s.base_answer);
                // the scrape paths walk every shard lock too
                assert_eq!(s.cache.shard_stats().len(), 3);
                assert!(s.cache.live_count() >= base);
                assert_eq!(s.cache.health_snapshot().panics_recovered, 0);
            }
        }));
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while !threads.iter().all(|t| t.is_finished()) {
        assert!(Instant::now() < deadline, "deadlock: threads still running");
        std::thread::sleep(Duration::from_millis(2));
    }
    for t in threads {
        t.join().expect("no thread panicked");
    }
    assert_eq!(shared.cache.live_count(), base + LAG);
    let survivors: Vec<usize> = (base + ADDS - LAG..base + ADDS).collect();
    let last = shared
        .cache
        .execute(
            &shared.probe,
            QueryKind::Subgraph,
            QueryBudget::UNLIMITED,
            None,
        )
        .outcome;
    assert_eq!(ids(&last.answer), survivors);
}
