//! End-to-end tests over real loopback TCP: answers must match the
//! in-process oracle, and every injected failure must resolve as success,
//! tagged-degraded, or an explicit error — never a hang, never silent
//! divergence.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gc_core::{
    FaultInjector, GcConfig, GraphCachePlus, HealthCounter, QueryBudget, ShardedGraphCache,
};
use gc_graph::LabeledGraph;
use gc_server::protocol::read_frame;
use gc_server::{
    serve, CacheClient, CacheService, ClientError, Request, Response, RetryPolicy, ServerHandle,
};
use gc_subiso::QueryKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize, seed: u64) -> Vec<LabeledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let v = rng.random_range(4..10usize);
            gc_graph::generate::random_connected_graph(&mut rng, v, 2, |r| r.random_range(0..3u16))
        })
        .collect()
}

fn query_graph(data: &[LabeledGraph], seed: u64) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    gc_graph::generate::bfs_extract(&mut rng, &data[0], 0, 3).expect("extractable")
}

fn start_server(
    data: Vec<LabeledGraph>,
    shards: usize,
    max_inflight: usize,
    shard_faults: Option<(usize, &str)>,
    net_plan: Option<&str>,
) -> ServerHandle {
    let mut cache = ShardedGraphCache::new(GcConfig::default(), data, shards);
    if let Some((shard, plan)) = shard_faults {
        let plan = plan.to_string();
        cache.set_fault_injectors(move |i| {
            (i == shard).then(|| Arc::new(FaultInjector::new(plan.parse().unwrap())))
        });
    }
    let service = CacheService::new(cache, max_inflight, QueryBudget::UNLIMITED);
    let injector = net_plan.map(|p| Arc::new(FaultInjector::new(p.parse().unwrap())));
    serve(service, 0, injector).expect("bind loopback")
}

fn ids_of(gc: &mut GraphCachePlus, q: &LabeledGraph, kind: QueryKind) -> Vec<u64> {
    gc.execute(q, kind, QueryBudget::UNLIMITED)
        .answer
        .iter_ones()
        .map(|g| g as u64)
        .collect()
}

/// Panics inside the server's shards print to stderr unless muted.
fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(prev);
    r
}

#[test]
fn answers_match_oracle_over_loopback() {
    let data = dataset(20, 1);
    let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
    let server = start_server(data.clone(), 2, 64, None, None);
    let mut client = CacheClient::connect(server.addr());

    for seed in 0..4 {
        let q = query_graph(&data, 100 + seed);
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            let reply = client.query(&q, kind, None).expect("query");
            assert_eq!(reply.ids, ids_of(&mut oracle, &q, kind), "seed {seed}");
            assert_eq!(reply.degraded, None);
            assert_eq!(reply.baseline_shards, 0);
        }
    }

    // updates round-trip and stay consistent with the oracle
    let g0 = data[0].clone();
    let (u, v) = g0.edges().next().expect("has edges");
    assert_eq!(client.ur(0, u, v).expect("ur"), 0);
    oracle
        .apply(gc_dataset::ChangeOp::Ur { id: 0, u, v })
        .unwrap();
    let q = query_graph(&data, 100);
    let reply = client.query(&q, QueryKind::Subgraph, None).expect("query");
    assert_eq!(reply.ids, ids_of(&mut oracle, &q, QueryKind::Subgraph));

    let health = client.health().expect("health");
    assert_eq!(health.get(HealthCounter::PanicsRecovered), 0);
    assert_eq!(health.get(HealthCounter::LoadShed), 0);
    server.shutdown();
}

#[test]
fn stats_scrape_reconciles_with_request_ledger() {
    let data = dataset(20, 8);
    let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
    // metrics-enabled config so the latency histogram records; the shared
    // start_server helper uses defaults, so build this server by hand
    let config = GcConfig {
        metrics: true,
        trace: true,
        ..GcConfig::default()
    };
    let cache = ShardedGraphCache::new(config, data.clone(), 2);
    let service = CacheService::new(cache, 64, QueryBudget::UNLIMITED);
    let server = serve(service, 0, None).expect("bind loopback");
    let mut client = CacheClient::connect(server.addr());

    let mut executed = 0u64;
    for seed in 0..5 {
        let q = query_graph(&data, 200 + seed);
        let reply = client.query(&q, QueryKind::Subgraph, None).expect("query");
        assert_eq!(
            reply.ids,
            ids_of(&mut oracle, &q, QueryKind::Subgraph),
            "seed {seed}"
        );
        executed += 1;
    }
    let g0 = data[0].clone();
    let (u, v) = g0.edges().next().expect("has edges");
    assert_eq!(client.ur(0, u, v).expect("ur"), 0);

    let stats = client.stats().expect("stats scrape");
    assert_eq!(stats.queries, executed);
    assert_eq!(stats.updates, 1);
    // reconciliation: every executed query classified exactly once per shard
    for (i, s) in stats.shards.iter().enumerate() {
        assert_eq!(s.hits + s.misses, executed, "shard {i}: {s:?}");
        assert_eq!(s.shed, 0, "shard {i}");
    }
    // metrics flag on: one latency sample per executed query
    assert_eq!(stats.latency.count, executed);
    assert!(stats.latency.max > 0, "latency recorded in microseconds");
    assert!(stats.latency.quantile(0.5) <= stats.latency.quantile(0.99));
    // trace flag on: pipeline stages accumulated real time
    assert!(
        stats.stages.total() > 0,
        "stage spans must accumulate: {:?}",
        stats.stages
    );

    // health carries the same counters as the scrape's health table
    let health = client.health().expect("health");
    assert_eq!(health.get(HealthCounter::LoadShed), 0);
    assert_eq!(health, stats.health);

    // the exposition text renders the same numbers
    let text = stats.render_prometheus();
    assert!(text.contains(&format!("gc_requests_total{{kind=\"query\"}} {executed}")));
    assert!(text.contains("gc_requests_total{kind=\"update\"} 1"));
    assert!(text.contains(&format!("gc_request_latency_microseconds_count {executed}")));
    server.shutdown();
}

#[test]
fn stalled_shard_returns_sound_partial_within_deadline() {
    let data = dataset(16, 2);
    let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
    // request #1 gets one shard stalled
    let server = start_server(data.clone(), 2, 64, None, Some("stall-shard@1"));
    let mut client = CacheClient::connect(server.addr());

    let q = query_graph(&data, 50);
    let exact = ids_of(&mut oracle, &q, QueryKind::Subgraph);
    let deadline = Duration::from_millis(60);
    let t = Instant::now();
    let reply = client
        .query(&q, QueryKind::Subgraph, Some(deadline))
        .expect("degraded is a success, not an error");
    let elapsed = t.elapsed();
    assert!(reply.degraded.is_some(), "stall must tag the answer");
    assert_eq!(reply.retries, 0, "degraded answers are never retried");
    assert!(elapsed >= deadline, "stall burns the deadline: {elapsed:?}");
    assert!(
        elapsed < deadline * 2,
        "must resolve within 2x deadline: {elapsed:?}"
    );
    for id in &reply.ids {
        assert!(exact.contains(id), "unsound positive {id}");
    }

    // request #2 is fault-free: exact again
    let reply = client
        .query(&q, QueryKind::Subgraph, Some(Duration::from_secs(5)))
        .expect("query");
    assert_eq!(reply.ids, exact);
    assert_eq!(reply.degraded, None);
    server.shutdown();
}

#[test]
fn dropped_connection_retries_idempotent_queries() {
    let data = dataset(12, 3);
    let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
    // the server kills the connection on the first request, before replying
    let server = start_server(data.clone(), 2, 64, None, Some("drop-conn@1"));
    let mut client = CacheClient::connect(server.addr()).with_policy(RetryPolicy {
        max_retries: 3,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(10),
    });

    let q = query_graph(&data, 60);
    let reply = client
        .query(&q, QueryKind::Subgraph, None)
        .expect("retried");
    assert_eq!(reply.ids, ids_of(&mut oracle, &q, QueryKind::Subgraph));
    assert_eq!(reply.retries, 1, "one drop, one retry");
    assert_eq!(client.retries_total(), 1);
    server.shutdown();
}

#[test]
fn updates_are_not_retried_on_transport_errors() {
    let data = dataset(12, 4);
    let server = start_server(data.clone(), 2, 64, None, Some("drop-conn@1"));
    let mut client = CacheClient::connect(server.addr());

    let g0 = &data[0];
    let (u, v) = g0.edges().next().expect("has edges");
    let err = client.ur(0, u, v).expect_err("dropped before reply");
    assert!(matches!(err, ClientError::Transport(_)), "{err}");
    assert_eq!(client.retries_total(), 0, "no blind replay of updates");

    // the drop fired before execution, so the edge is still there; the
    // caller decides to re-issue, and the second request goes through
    assert_eq!(client.ur(0, u, v).expect("reissued"), 0);
    let reply = client.query(g0, QueryKind::Subgraph, None).expect("query");
    assert!(
        !reply.ids.contains(&0),
        "graph 0 lost an edge, no longer a supergraph of its old self"
    );
    server.shutdown();
}

#[test]
fn explicit_overload_shedding_and_retry() {
    let data = dataset(10, 5);
    // one in-flight request per shard; request #1 stalls a shard long
    // enough for a second client to hit the saturated gate
    let server = start_server(data.clone(), 2, 1, None, Some("stall-shard@1"));
    let q = query_graph(&data, 70);

    let addr = server.addr();
    let slow = {
        let q = q.clone();
        std::thread::spawn(move || {
            let mut c = CacheClient::connect(addr);
            c.query(&q, QueryKind::Subgraph, Some(Duration::from_millis(400)))
        })
    };
    // give the stalled query time to take every gate slot
    std::thread::sleep(Duration::from_millis(100));
    let mut fast = CacheClient::connect(addr).with_policy(RetryPolicy {
        max_retries: 0,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(1),
    });
    let err = fast.query(&q, QueryKind::Subgraph, None).expect_err("shed");
    assert!(matches!(err, ClientError::Overloaded), "{err}");

    let slow_reply = slow.join().expect("no panic").expect("degraded success");
    assert!(slow_reply.degraded.is_some());

    // once the stall clears, the same client succeeds with retries allowed
    let mut fast = CacheClient::connect(addr).with_policy(RetryPolicy {
        max_retries: 5,
        base: Duration::from_millis(20),
        cap: Duration::from_millis(100),
    });
    let reply = fast.query(&q, QueryKind::Subgraph, None).expect("recovers");
    assert_eq!(reply.degraded, None);

    let health = fast.health().expect("health");
    assert!(
        health.get(HealthCounter::LoadShed) >= 1,
        "shed must be counted: {health:?}"
    );
    server.shutdown();
}

#[test]
fn twice_panicking_shard_serves_baseline_until_audit_clears() {
    let data = dataset(18, 6);
    let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
    // shard 1's first query panics, and so does the isolation retry:
    // that crosses the failover threshold
    let server = start_server(
        data.clone(),
        3,
        64,
        Some((1, "panic-query@1;panic-query@2")),
        None,
    );
    let mut client = CacheClient::connect(server.addr());

    let q = query_graph(&data, 80);
    let exact = ids_of(&mut oracle, &q, QueryKind::Subgraph);

    let first = quiet_panics(|| client.query(&q, QueryKind::Subgraph, None)).expect("query");
    assert_eq!(first.ids, exact, "shard-level baseline keeps it exact");
    assert_eq!(server.service().unhealthy_shards(), vec![1]);

    // while failed over, the shard's slice comes from router baseline
    let second = client.query(&q, QueryKind::Subgraph, None).expect("query");
    assert_eq!(second.ids, exact);
    assert_eq!(second.degraded, None, "baseline answers are exact");
    assert_eq!(second.baseline_shards, 1);
    let health = client.health().expect("health");
    assert_eq!(health.get(HealthCounter::ShardFailovers), 1);
    assert!(health.get(HealthCounter::BaselineServed) >= 1);

    // a full audit clears the quarantine and rejoins the shard
    client.audit(1.0, 9).expect("audit");
    assert!(server.service().unhealthy_shards().is_empty());
    let third = client.query(&q, QueryKind::Subgraph, None).expect("query");
    assert_eq!(third.ids, exact);
    assert_eq!(third.baseline_shards, 0, "traffic is back on the cache");
    server.shutdown();
}

#[test]
fn delayed_frames_burn_the_deadline_not_the_client() {
    let data = dataset(12, 7);
    // 80 ms server-side delay on request #1
    let server = start_server(data.clone(), 2, 64, None, Some("delay-conn@1:80"));
    let mut client = CacheClient::connect(server.addr());
    let q = query_graph(&data, 90);

    let t = Instant::now();
    let reply = client
        .query(&q, QueryKind::Subgraph, Some(Duration::from_millis(50)))
        .expect("a delayed reply is still a reply");
    let elapsed = t.elapsed();
    // the injected delay outlives the deadline, so the budget was spent
    // before execution: sound degraded answer, bounded latency
    assert!(reply.degraded.is_some(), "{reply:?}");
    assert!(elapsed >= Duration::from_millis(80));
    assert!(elapsed < Duration::from_millis(400), "{elapsed:?}");
    server.shutdown();
}

#[test]
fn a_stall_degrades_only_the_request_that_carries_it() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let data = dataset(16, 9);
    let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
    let cache = ShardedGraphCache::new(GcConfig::default(), data.clone(), 2);
    let service = CacheService::new(cache, 64, QueryBudget::UNLIMITED);
    // the server's 3rd request gets shard 0 stalled
    let injector = Arc::new(FaultInjector::new("stall-shard@3".parse().unwrap()));
    let server = serve(service, 0, Some(Arc::clone(&injector))).expect("bind loopback");
    let q = query_graph(&data, 110);
    let exact = ids_of(&mut oracle, &q, QueryKind::Subgraph);

    let stalled_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stalled = scope.spawn(|| {
            let mut a = CacheClient::connect(server.addr());
            for _ in 0..2 {
                let reply = a.query(&q, QueryKind::Subgraph, None).expect("query");
                assert_eq!(reply.degraded, None);
            }
            let reply = a
                .query(&q, QueryKind::Subgraph, Some(Duration::from_secs(2)))
                .expect("degraded is a success");
            stalled_done.store(true, Ordering::SeqCst);
            reply
        });
        // the other connection starts once the server has taken request #3
        // in, i.e. while shard 0 is stalled for it
        while injector.requests_seen() < 3 {
            std::thread::yield_now();
        }
        let mut b = CacheClient::connect(server.addr());
        for _ in 0..5 {
            let reply = b.query(&q, QueryKind::Subgraph, None).expect("query");
            assert_eq!(reply.degraded, None, "the stall is not this request's");
            assert_eq!(reply.ids, exact);
        }
        assert!(
            !stalled_done.load(Ordering::SeqCst),
            "shard 0 served five requests while it was stalled for another"
        );
        let reply = stalled.join().expect("no panic");
        assert!(reply.degraded.is_some(), "the stalled request is tagged");
        for id in &reply.ids {
            assert!(exact.contains(id), "unsound positive {id}");
        }
    });
    server.shutdown();
}

/// Longer than the server's 100 ms read tick: a frame's pieces sent this
/// far apart reach the server on separate wakeups.
const PAUSE: Duration = Duration::from_millis(250);

/// One request as it goes on the wire: length word, then body.
fn frame(req: &Request) -> Vec<u8> {
    let body = req.encode();
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

/// A client socket with no framing of its own.
fn raw_connect(server: &ServerHandle) -> TcpStream {
    let conn = TcpStream::connect(server.addr()).expect("connect");
    conn.set_nodelay(true).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn
}

fn reply(conn: &mut TcpStream) -> Response {
    Response::decode(&read_frame(conn).expect("a reply frame")).expect("the reply decodes")
}

#[test]
fn pipelined_and_trickled_frames_get_their_replies_in_order() {
    let data = dataset(20, 10);
    let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
    let server = start_server(data.clone(), 2, 64, None, None);
    let mut conn = raw_connect(&server);

    // k frames in one write — queries of both kinds, a health ping among
    // them — must come back as k replies, each answering its own frame
    let mut requests: Vec<Request> = (0..4)
        .flat_map(|seed| {
            let graph = query_graph(&data, 300 + seed);
            [QueryKind::Subgraph, QueryKind::Supergraph].map(|kind| Request::Query {
                kind,
                deadline_ms: 0,
                graph: graph.clone(),
            })
        })
        .collect();
    requests.insert(3, Request::Health);
    let burst: Vec<u8> = requests.iter().flat_map(frame).collect();
    conn.write_all(&burst).unwrap();
    for req in &requests {
        match (req, reply(&mut conn)) {
            (
                Request::Query { kind, graph, .. },
                Response::Answer {
                    ids,
                    degraded: None,
                    ..
                },
            ) => assert_eq!(ids, ids_of(&mut oracle, graph, *kind)),
            (Request::Health, Response::Health { .. }) => {}
            (req, rsp) => panic!("{req:?} answered by {rsp:?}"),
        }
    }

    // one query frame a byte at a time, pausing past the read tick inside
    // the length word and inside the body, gets the reply a single-write
    // frame of the same query gets
    let one = frame(&requests[0]);
    conn.write_all(&one).unwrap();
    let expected = reply(&mut conn);
    for (i, byte) in one.iter().enumerate() {
        if i == 2 || i == 7 {
            std::thread::sleep(PAUSE);
        }
        conn.write_all(std::slice::from_ref(byte)).unwrap();
    }
    assert_eq!(reply(&mut conn), expected);
    server.shutdown();
}

#[test]
fn shutdown_closes_connections_part_way_through_a_frame() {
    let data = dataset(8, 11);
    let server = start_server(data.clone(), 2, 64, None, None);
    let idle = raw_connect(&server);
    let mut in_length_word = raw_connect(&server);
    in_length_word.write_all(&[0, 0]).unwrap();
    let mut in_body = raw_connect(&server);
    let query = frame(&Request::Query {
        kind: QueryKind::Subgraph,
        deadline_ms: 0,
        graph: query_graph(&data, 120),
    });
    in_body.write_all(&query[..query.len() - 3]).unwrap();
    // every connection thread is now blocked reading its socket
    std::thread::sleep(PAUSE);
    server.shutdown();

    let started = Instant::now();
    for (at, mut conn) in [
        ("idle", idle),
        ("inside the length word", in_length_word),
        ("inside the body", in_body),
    ] {
        match conn.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("{at}: the connection outlived shutdown: {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "closed only after {:?}",
        started.elapsed()
    );
}
