//! The decoded-query table behind `CacheService::handle_frame`: a query
//! frame whose graph bytes the service has kept is answered on the kept
//! graph, exactly as `handle(Request::decode(body))` answers it, with the
//! kind and deadline of its own header; only a query its own execution
//! found cached is kept, the table never holds more than the cache and
//! window can, and malformed or oversized frames are never kept.

use std::sync::Arc;
use std::time::Instant;

use gc_core::{FaultInjector, GcConfig, QueryBudget, ShardedGraphCache};
use gc_graph::generate::random_connected_graph;
use gc_graph::LabeledGraph;
use gc_server::service::KEEP_MAX_BODY;
use gc_server::{CacheService, Request, Response};
use gc_subiso::QueryKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Labels that collide in the profile lanes, as the core suites draw them.
fn label(rng: &mut StdRng) -> u16 {
    [0, 2, 11, 14][rng.random_range(0..4usize)]
}

fn dataset(rng: &mut StdRng, n: usize) -> Vec<LabeledGraph> {
    (0..n)
        .map(|_| {
            let v = rng.random_range(5..11);
            random_connected_graph(rng, v, 2, label)
        })
        .collect()
}

/// Query graphs small enough to be in some dataset graphs and large
/// enough to contain some.
fn pool(rng: &mut StdRng, n: usize) -> Vec<LabeledGraph> {
    (0..n)
        .map(|_| {
            let v = rng.random_range(2..7);
            random_connected_graph(rng, v, 1, label)
        })
        .collect()
}

fn service(config: GcConfig, data: Vec<LabeledGraph>) -> CacheService {
    CacheService::new(
        ShardedGraphCache::new(config, data, 2),
        16,
        QueryBudget::UNLIMITED,
    )
}

fn query(kind: QueryKind, deadline_ms: u32, graph: &LabeledGraph) -> Vec<u8> {
    Request::Query {
        kind,
        deadline_ms,
        graph: graph.clone(),
    }
    .encode()
}

/// What the connection loop answered before the table: decode, then
/// `handle`.
fn decoded_reply(twin: &CacheService, body: &[u8]) -> Response {
    match Request::decode(body) {
        Ok(req) => twin.handle(req, Instant::now(), None),
        Err(e) => Response::Error(format!("bad request: {e}")),
    }
}

#[test]
fn frames_answer_as_their_decoded_requests() {
    let mut table_hits = 0;
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = dataset(&mut rng, 24);
        let queries = pool(&mut rng, 10);
        let (framed, twin) = (
            service(GcConfig::default(), data.clone()),
            service(GcConfig::default(), data.clone()),
        );
        for step in 0..240 {
            let body = if rng.random_range(0..5) == 0 {
                // UA or UR between repeats; a refused one answers the same
                // error on both
                let id = rng.random_range(0..data.len() as u64);
                let (u, v) = (rng.random_range(0..5), rng.random_range(5..10));
                if rng.random() {
                    Request::Ua { id, u, v }.encode()
                } else {
                    Request::Ur { id, u, v }.encode()
                }
            } else {
                // skewed towards the front of the pool: first sightings
                // early, repeats throughout
                let q = rng
                    .random_range(0..queries.len())
                    .min(rng.random_range(0..queries.len()));
                let kind = if rng.random_range(0..3) == 0 {
                    QueryKind::Supergraph
                } else {
                    QueryKind::Subgraph
                };
                query(kind, 0, &queries[q])
            };
            let got = framed.handle_frame(&body, Instant::now(), None);
            assert_eq!(got, decoded_reply(&twin, &body), "seed {seed} step {step}");
        }
        let (stats, twin_stats) = (framed.stats(), twin.stats());
        assert_eq!(stats.queries, twin_stats.queries);
        assert_eq!(stats.updates, twin_stats.updates);
        assert_eq!(stats.shards, twin_stats.shards, "seed {seed}");
        assert_eq!(
            twin_stats.decoded_query_hits, 0,
            "handle never reads the table"
        );
        table_hits += stats.decoded_query_hits;
    }
    assert!(
        table_hits > 1_000,
        "{table_hits} frames answered from the table"
    );
}

#[test]
fn a_kept_graph_answers_with_its_frames_own_kind_and_deadline() {
    let single =
        |labels: Vec<u16>, edges: &[(u32, u32)]| LabeledGraph::from_parts(labels, edges).unwrap();
    let data = vec![
        single(vec![0; 3], &[(0, 1), (1, 2), (0, 2)]),
        single(vec![0; 2], &[(0, 1)]),
        single(vec![1; 3], &[(0, 1), (1, 2), (0, 2)]),
        single(vec![0], &[]),
    ];
    let path = single(vec![0; 3], &[(0, 1), (1, 2)]);
    // shard 0 sleeps 50 ms before its fourth query
    let mut cache = ShardedGraphCache::new(GcConfig::default(), data.clone(), 2);
    let plan: gc_core::FaultPlan = "delay-query@4:50".parse().unwrap();
    cache.set_fault_injectors(|i| (i == 0).then(|| Arc::new(FaultInjector::new(plan.clone()))));
    let svc = CacheService::new(cache, 4, QueryBudget::UNLIMITED);
    let twin = service(GcConfig::default(), data);
    let ids = |rsp: Response| match rsp {
        Response::Answer {
            ids,
            degraded: None,
            ..
        } => ids,
        other => panic!("{other:?}"),
    };

    // the second sighting is an exact match: its graph is kept
    let sub = query(QueryKind::Subgraph, 0, &path);
    for _ in 0..2 {
        let rsp = svc.handle_frame(&sub, Instant::now(), None);
        assert_eq!(ids(rsp), [0]);
    }
    let stats = svc.stats();
    assert_eq!((stats.decoded_queries, stats.decoded_query_hits), (1, 0));

    // the same graph bytes as a supergraph query: a table hit, answered
    // as a supergraph query
    let sup = query(QueryKind::Supergraph, 0, &path);
    let rsp = svc.handle_frame(&sup, Instant::now(), None);
    assert_eq!(rsp, decoded_reply(&twin, &sup));
    assert_eq!(ids(rsp), [1, 3]);
    assert_eq!(svc.stats().decoded_query_hits, 1);

    // with a 1 ms deadline through shard 0's 50 ms delay: the kept graph
    // came in frames without a deadline, this frame's deadline expires
    let hurried = query(QueryKind::Subgraph, 1, &path);
    let rsp = svc.handle_frame(&hurried, Instant::now(), None);
    assert!(
        matches!(
            rsp,
            Response::Answer {
                degraded: Some(_),
                ..
            }
        ),
        "{rsp:?}"
    );
    assert_eq!(svc.stats().decoded_query_hits, 2);
}

#[test]
fn a_stream_sent_once_keeps_nothing() {
    let mut rng = StdRng::seed_from_u64(7);
    let svc = service(GcConfig::default(), dataset(&mut rng, 24));
    // paths of 1..=60 edges over one label: no two are isomorphic, so no
    // query finds its own twin in the cache
    for n in 2..=61u32 {
        let path: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
        let graph = LabeledGraph::from_parts(vec![2; n as usize], &path).unwrap();
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            let rsp = svc.handle_frame(&query(kind, 0, &graph), Instant::now(), None);
            assert!(matches!(rsp, Response::Answer { .. }), "{rsp:?}");
        }
        let stats = svc.stats();
        assert_eq!((stats.decoded_queries, stats.decoded_query_hits), (0, 0));
    }
    assert_eq!(svc.stats().queries, 120);
}

#[test]
fn repeats_past_the_bound_never_grow_the_table_past_it() {
    let config = GcConfig {
        cache_capacity: 4,
        window_capacity: 2,
        ..GcConfig::default()
    };
    let bound = (config.cache_capacity + config.window_capacity) as u64;
    let mut rng = StdRng::seed_from_u64(11);
    let data = dataset(&mut rng, 24);
    let (svc, twin) = (service(config, data.clone()), service(config, data));
    let paths: Vec<LabeledGraph> = (2..=21u32)
        .map(|n| {
            let path: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
            LabeledGraph::from_parts(vec![0; n as usize], &path).unwrap()
        })
        .collect();
    let mut most = 0;
    for round in 0..6 {
        for graph in &paths {
            // each sent three times in a row: the second finds it cached
            for _ in 0..3 {
                let body = query(QueryKind::Subgraph, 0, graph);
                let rsp = svc.handle_frame(&body, Instant::now(), None);
                assert_eq!(rsp, decoded_reply(&twin, &body), "round {round}");
                let kept = svc.stats().decoded_queries;
                assert!(kept <= bound, "{kept} graphs kept, bound {bound}");
                most = most.max(kept);
            }
        }
    }
    assert_eq!(most, bound, "the table fills up to its bound");
    assert!(svc.stats().decoded_query_hits >= 120, "{:?}", svc.stats());
}

#[test]
fn a_repeated_frame_above_the_size_limit_is_answered_but_not_kept() {
    let mut rng = StdRng::seed_from_u64(3);
    let data = dataset(&mut rng, 12);
    let (svc, twin) = (
        service(GcConfig::default(), data.clone()),
        service(GcConfig::default(), data),
    );
    // a path on n vertices is a 6 + 10n byte body
    let path_query = |n: u32| {
        let path: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
        let graph = LabeledGraph::from_parts(vec![0; n as usize], &path).unwrap();
        query(QueryKind::Subgraph, 0, &graph)
    };
    let (at_limit, past_limit) = (path_query(409), path_query(410));
    assert_eq!(at_limit.len(), KEEP_MAX_BODY);
    assert_eq!(past_limit.len(), KEEP_MAX_BODY + 10);
    for _ in 0..3 {
        let rsp = svc.handle_frame(&past_limit, Instant::now(), None);
        assert_eq!(rsp, decoded_reply(&twin, &past_limit));
        assert!(matches!(rsp, Response::Answer { degraded: None, .. }));
    }
    let stats = svc.stats();
    assert_eq!((stats.decoded_queries, stats.decoded_query_hits), (0, 0));
    // the largest body that may be kept is kept
    for _ in 0..3 {
        let rsp = svc.handle_frame(&at_limit, Instant::now(), None);
        assert_eq!(rsp, decoded_reply(&twin, &at_limit));
    }
    let stats = svc.stats();
    assert_eq!((stats.decoded_queries, stats.decoded_query_hits), (1, 1));
}

#[test]
fn a_malformed_frame_is_a_bad_request_and_is_not_kept() {
    let mut rng = StdRng::seed_from_u64(5);
    let data = dataset(&mut rng, 12);
    let (svc, twin) = (
        service(GcConfig::default(), data.clone()),
        service(GcConfig::default(), data),
    );
    let kept = pool(&mut rng, 1).remove(0);
    let good = query(QueryKind::Subgraph, 0, &kept);
    for _ in 0..2 {
        svc.handle_frame(&good, Instant::now(), None);
    }
    assert_eq!(svc.stats().decoded_queries, 1);

    let mut bad = Vec::new();
    // an edge past the vertex count
    let mut frame = query(QueryKind::Subgraph, 0, &kept);
    let last = frame.len() - 1;
    frame[last] = 200;
    bad.push(frame);
    // the kept graph's bytes cut short, and with a byte behind them
    bad.push(good[..good.len() - 1].to_vec());
    let mut long = good.clone();
    long.push(0);
    bad.push(long);
    // the kept graph's bytes behind a kind code no query has, and behind
    // another request's tag
    let mut frame = good.clone();
    frame[1] = 2;
    bad.push(frame);
    let mut frame = good.clone();
    frame[0] = 0x02;
    bad.push(frame);
    for body in &bad {
        for _ in 0..3 {
            let rsp = svc.handle_frame(body, Instant::now(), None);
            assert!(
                matches!(&rsp, Response::Error(m) if m.starts_with("bad request: ")),
                "{rsp:?}"
            );
            assert_eq!(rsp, decoded_reply(&twin, body));
        }
    }
    let stats = svc.stats();
    assert_eq!((stats.decoded_queries, stats.decoded_query_hits), (1, 0));
    assert_eq!(stats.queries, 2);
}

#[test]
fn threads_sharing_kept_graphs_get_correct_answers() {
    let mut rng = StdRng::seed_from_u64(19);
    let data = dataset(&mut rng, 30);
    let queries = pool(&mut rng, 12);
    let bodies: Vec<Vec<u8>> = queries
        .iter()
        .flat_map(|g| [QueryKind::Subgraph, QueryKind::Supergraph].map(|k| query(k, 0, g)))
        .collect();
    // read-only traffic: every answer is the decoded request's, whatever
    // the order the threads interleave in
    let twin = service(GcConfig::default(), data.clone());
    let expected: Vec<Response> = bodies.iter().map(|b| decoded_reply(&twin, b)).collect();
    let svc = service(GcConfig::default(), data);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (svc, bodies, expected) = (&svc, &bodies, &expected);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for step in 0..400 {
                    let i = rng.random_range(0..bodies.len());
                    let rsp = svc.handle_frame(&bodies[i], Instant::now(), None);
                    assert_eq!(rsp, expected[i], "thread {t} step {step}");
                }
            });
        }
    });
    let stats = svc.stats();
    assert_eq!(stats.queries, 1_600);
    assert!(stats.decoded_query_hits > 1_000, "{stats:?}");
    assert!(stats.decoded_queries <= bodies.len() as u64 / 2);
}
