//! The traced run: a *boundary ladder*.
//!
//! The servers' layers have no spans of their own yet (ROADMAP item 5), so
//! the layers are timed from outside: the identical op stream is replayed
//! on fresh same-population instances, each time calling one layer deeper
//! through that layer's public functions and timing every call.
//!
//! ```text
//!   rtt      CacheClient::{query,ua,ur} over loopback     (loopback.rs)
//!   ping     CacheClient::health on the same connection   — the wire floor
//!   codec    Request/Response::{encode,decode}
//!   service  CacheService::handle
//!   sharded  ShardedGraphCache::{execute_deadline,apply}
//!   system   GraphCachePlus::{execute_isolated_budgeted,apply}, trace on
//!   index    LabelIndex::{build,sync,*_candidates} on a replica store
//!   subiso   MethodM::run without a cache                  (the oracle)
//! ```
//!
//! A layer's self time is its boundary time minus the next-inner
//! boundary's. Every level must give the same answer to every op
//! (`bench.boundary_disagreements`); the op's position in its
//! connection's stream is the request id that ties the levels together.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use gc_core::{GraphCachePlus, QueryBudget};
use gc_dataset::{ChangeLog, ChangeOp, GraphStore, LabelIndex, OpType};
use gc_server::{Request, Response};
use gc_subiso::QueryKind;
use gc_telemetry::{Stage, StageSpans};

use crate::child::{build_cache, build_service, server_config, Placement, ServerChild};
use crate::json::Json;
use crate::loopback::{self, LoopbackRun, OracleReport};
use crate::probe::{GroupProbe, HostProbe};
use crate::stats::{mean, median, spread_share, Fnv};
use crate::workload::{apply_to_store, Op, Population, Scale, Spec, Streams, PASSES};

/// Requests written to the trace file (all of them when the run is shorter).
const TRACE_REQUESTS: usize = 2000;

/// Health round-trips that measure the wire floor.
const PINGS: usize = 2000;

/// Answer hash of an op that did not produce a usable reply.
const NO_ANSWER: u64 = u64::MAX;

/// Per-op timings and answers of one ladder level: `[connection][position]`.
struct Level {
    /// As the clock read them.
    ns: Vec<Vec<u64>>,
    hash: Vec<Vec<u64>>,
    /// Host slowness while the measured part of this level replayed (see
    /// [`crate::probe`]); levels run minutes apart on a host whose speed
    /// wanders, so they are only comparable at reference speed.
    slowness: f64,
}

impl Level {
    fn new(streams: &Streams) -> Level {
        let shape = || vec![vec![0u64; streams.len_per_conn()]; streams.conns.len()];
        Level {
            ns: shape(),
            hash: shape(),
            slowness: 1.0,
        }
    }

    /// One op's time at reference host speed.
    fn at(&self, c: usize, i: usize) -> f64 {
        self.ns[c][i] as f64 / self.slowness
    }
}

/// Probe points spread over the measured part of an interleaved replay;
/// the warm-up is not timed, so it is not probed.
fn tick(probe: &mut HostProbe, streams: &Streams, c: usize, i: usize) {
    if c == 0 && i >= streams.warmup_ops {
        probe.tick(
            i - streams.warmup_ops,
            streams.len_per_conn() - streams.warmup_ops,
        );
    }
}

fn request_of(pop: &Population, op: &Op) -> Request {
    match *op {
        Op::Query(k) => {
            let (graph, kind) = &pop.pool[k as usize];
            Request::Query {
                kind: *kind,
                deadline_ms: 0,
                graph: graph.clone(),
            }
        }
        Op::Ua { id, u, v } => Request::Ua { id, u, v },
        Op::Ur { id, u, v } => Request::Ur { id, u, v },
    }
}

fn response_hash(rsp: &Response) -> u64 {
    match rsp {
        Response::Answer {
            ids,
            degraded: None,
            ..
        } => Fnv::of_ids(ids),
        Response::Updated { .. } => 0,
        _ => NO_ANSWER,
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Codec and service boundary: every message of the run is encoded and
/// decoded in both directions around an in-process `handle`.
struct ServiceLevel {
    level: Level,
    /// `[connection][position]` → req encode, req decode, rsp encode, rsp decode.
    codec_ns: Vec<Vec<[u64; 4]>>,
    req_bytes: Vec<Vec<u32>>,
    rsp_bytes: Vec<Vec<u32>>,
    /// Mean in-process cost of one health request, codec included, at
    /// reference host speed.
    health_ns: f64,
}

fn replay_service(spec: &Spec, pings: usize, pop: &Population, streams: &Streams) -> ServiceLevel {
    let service = build_service(pop.dataset.clone(), spec.shards);
    let mut out = ServiceLevel {
        level: Level::new(streams),
        codec_ns: vec![vec![[0; 4]; streams.len_per_conn()]; streams.conns.len()],
        req_bytes: vec![vec![0; streams.len_per_conn()]; streams.conns.len()],
        rsp_bytes: vec![vec![0; streams.len_per_conn()]; streams.conns.len()],
        health_ns: 0.0,
    };
    let mut probe = HostProbe::default();
    for (c, i) in streams.interleaved() {
        tick(&mut probe, streams, c, i);
        let req = request_of(pop, &streams.conns[c][i]);
        let t = Instant::now();
        let wire_req = req.encode();
        let enc = elapsed_ns(t);
        let t = Instant::now();
        let decoded = Request::decode(&wire_req).expect("own encoding decodes");
        let dec = elapsed_ns(t);
        let t = Instant::now();
        let rsp = service.handle(decoded, Instant::now(), None);
        out.level.ns[c][i] = elapsed_ns(t);
        let t = Instant::now();
        let wire_rsp = rsp.encode();
        let renc = elapsed_ns(t);
        let t = Instant::now();
        let back = Response::decode(&wire_rsp).expect("own encoding decodes");
        let rdec = elapsed_ns(t);
        out.level.hash[c][i] = response_hash(&back);
        out.codec_ns[c][i] = [enc, dec, renc, rdec];
        out.req_bytes[c][i] = wire_req.len() as u32;
        out.rsp_bytes[c][i] = wire_rsp.len() as u32;
    }
    out.level.slowness = probe.take_slowness();
    let mut total = 0;
    for k in 0..pings {
        probe.tick(k, pings);
        let t = Instant::now();
        let req = Request::decode(&Request::Health.encode()).expect("own encoding decodes");
        let rsp = service.handle(req, Instant::now(), None);
        let back = Response::decode(&rsp.encode()).expect("own encoding decodes");
        std::hint::black_box(back);
        total += elapsed_ns(t);
    }
    out.health_ns = total as f64 / pings as f64 / probe.take_slowness();
    out
}

/// `handle` with one caller thread per connection on one service — the
/// only level where the service mutex and the in-flight gate are
/// contended. Between two calls a caller spins for `think_ns`, the time a
/// connection spends on the wire and in the codec: callers that came
/// straight back would find the lock they just released still free and
/// hide what a hand-over to a sleeping waiter costs, which a connection
/// pays. Returns the per-op times and how many requests were shed.
fn replay_service_concurrent(
    spec: &Spec,
    placement: &Placement,
    pop: &Population,
    streams: &Streams,
    think_ns: u64,
) -> Result<(Level, u64), String> {
    let service = build_service(pop.dataset.clone(), spec.shards);
    let mut level = Level::new(streams);
    // same warm-up as every other level, from one thread
    for i in 0..streams.warmup_ops {
        for c in 0..streams.conns.len() {
            let rsp = service.handle(request_of(pop, &streams.conns[c][i]), Instant::now(), None);
            level.hash[c][i] = response_hash(&rsp);
        }
    }
    let barrier = Barrier::new(streams.conns.len());
    type Measured = Result<(Vec<u64>, Vec<u64>, u64, f64), String>;
    let measured: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..streams.conns.len())
            .map(|c| {
                let (service, barrier) = (&service, &barrier);
                scope.spawn(move || -> Measured {
                    let pinned = placement.pin_this_thread(c);
                    let (mut ns, mut hash, mut shed) = (Vec::new(), Vec::new(), 0u64);
                    let mut probe = GroupProbe::new(barrier);
                    let ops = &streams.conns[c][streams.warmup_ops..];
                    probe.sync();
                    for (k, op) in ops.iter().enumerate() {
                        probe.tick(k, ops.len());
                        let req = request_of(pop, op);
                        let t = Instant::now();
                        let rsp = service.handle(req, Instant::now(), None);
                        ns.push(elapsed_ns(t));
                        shed += u64::from(rsp == Response::Overloaded);
                        hash.push(response_hash(&rsp));
                        let think = Instant::now();
                        while elapsed_ns(think) < think_ns {
                            std::hint::spin_loop();
                        }
                    }
                    probe.sync();
                    pinned?;
                    Ok((ns, hash, shed, probe.take().1))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let mut shed = 0;
    level.slowness = 0.0;
    for (c, conn) in measured.into_iter().enumerate() {
        let (ns, hash, s, slowness) = conn?;
        level.ns[c][streams.warmup_ops..].copy_from_slice(&ns);
        level.hash[c][streams.warmup_ops..].copy_from_slice(&hash);
        shed += s;
        level.slowness += slowness / streams.conns.len() as f64;
    }
    Ok((level, shed))
}

struct ShardedLevel {
    level: Level,
    /// Over the measured ops, summed over shards.
    hits: u64,
    misses: u64,
    evictions: u64,
}

fn replay_sharded(spec: &Spec, pop: &Population, streams: &Streams) -> ShardedLevel {
    let mut cache = build_cache(pop.dataset.clone(), spec.shards);
    let mut level = Level::new(streams);
    let totals = |cache: &gc_core::ShardedGraphCache| {
        cache.shard_stats().iter().fold((0, 0, 0), |acc, s| {
            (acc.0 + s.hits, acc.1 + s.misses, acc.2 + s.evictions)
        })
    };
    let mut at_warm = (0, 0, 0);
    let mut probe = HostProbe::default();
    for (c, i) in streams.interleaved() {
        tick(&mut probe, streams, c, i);
        if i == streams.warmup_ops && c == 0 {
            at_warm = totals(&cache);
        }
        let op = &streams.conns[c][i];
        match op {
            Op::Query(k) => {
                let (graph, kind) = &pop.pool[*k as usize];
                let t = Instant::now();
                let routed = cache.execute_deadline(graph, *kind, QueryBudget::UNLIMITED);
                level.ns[c][i] = elapsed_ns(t);
                let ids: Vec<u64> = routed
                    .outcome
                    .answer
                    .iter_ones()
                    .map(|g| g as u64)
                    .collect();
                level.hash[c][i] = if routed.outcome.metrics.degraded.is_none() {
                    Fnv::of_ids(&ids)
                } else {
                    NO_ANSWER
                };
            }
            update => {
                let change = update.change().expect("not a query");
                let t = Instant::now();
                let applied = cache.apply(change);
                level.ns[c][i] = elapsed_ns(t);
                level.hash[c][i] = if applied.is_ok() { 0 } else { NO_ANSWER };
            }
        }
    }
    level.slowness = probe.take_slowness();
    let end = totals(&cache);
    ShardedLevel {
        level,
        hits: end.0 - at_warm.0,
        misses: end.1 - at_warm.1,
        evictions: end.2 - at_warm.2,
    }
}

/// Counts and stage spans the `system` boundary reports about itself,
/// over the measured ops. One *execution* is one query on one shard.
#[derive(Default)]
struct SystemTotals {
    executions: u64,
    queries: u64,
    spans: StageSpans,
    tests: u64,
    candidates: u64,
    tests_saved: u64,
    exact_shortcuts: u64,
    zero_test: u64,
    repairs_applied: u64,
    invalidations_avoided: u64,
    repair_fallbacks: u64,
}

struct SystemLevel {
    level: Level,
    totals: SystemTotals,
    /// `[connection][position]`, summed over shards.
    spans: Vec<Vec<StageSpans>>,
    tests: Vec<Vec<u64>>,
}

/// The router's static placement (no ADD/DEL in these workloads): global
/// id `g` lives on shard `g % n` under local id `g / n`.
///
/// Replayed twice by the caller: with `trace` off for the boundary time
/// (stage timing costs two clock reads per candidate test, which would be
/// charged to the router's self time), and with `trace` on for the spans.
fn replay_system(spec: &Spec, pop: &Population, streams: &Streams, trace: bool) -> SystemLevel {
    let n = spec.shards;
    let mut shards: Vec<GraphCachePlus> = (0..n)
        .map(|s| {
            let part = pop.dataset.iter().skip(s).step_by(n).cloned().collect();
            GraphCachePlus::new(server_config(n, trace), part)
        })
        .collect();
    let mut out = SystemLevel {
        level: Level::new(streams),
        totals: SystemTotals::default(),
        spans: vec![vec![StageSpans::default(); streams.len_per_conn()]; streams.conns.len()],
        tests: vec![vec![0; streams.len_per_conn()]; streams.conns.len()],
    };
    let mut probe = HostProbe::default();
    for (c, i) in streams.interleaved() {
        tick(&mut probe, streams, c, i);
        let measured = i >= streams.warmup_ops;
        match &streams.conns[c][i] {
            Op::Query(k) => {
                let (graph, kind) = &pop.pool[*k as usize];
                let mut ids = Vec::new();
                let mut degraded = false;
                for (s, shard) in shards.iter_mut().enumerate() {
                    let t = Instant::now();
                    let o = shard.execute_isolated_budgeted(graph, *kind, QueryBudget::UNLIMITED);
                    out.level.ns[c][i] += elapsed_ns(t);
                    ids.extend(o.answer.iter_ones().map(|local| (local * n + s) as u64));
                    degraded |= o.metrics.degraded.is_some();
                    out.spans[c][i].merge(&o.metrics.spans);
                    out.tests[c][i] += o.metrics.subiso_tests;
                    if measured {
                        let t = &mut out.totals;
                        t.executions += 1;
                        t.spans.merge(&o.metrics.spans);
                        t.tests += o.metrics.subiso_tests;
                        t.candidates += o.metrics.candidate_size;
                        t.tests_saved += o.metrics.tests_saved;
                        t.exact_shortcuts += u64::from(o.metrics.hits.exact_shortcut);
                        t.zero_test += u64::from(o.metrics.subiso_tests == 0);
                        t.repairs_applied += o.metrics.repairs_applied;
                        t.invalidations_avoided += o.metrics.invalidations_avoided;
                        t.repair_fallbacks += o.metrics.repair_fallbacks;
                    }
                }
                out.totals.queries += u64::from(measured);
                ids.sort_unstable();
                out.level.hash[c][i] = if degraded {
                    NO_ANSWER
                } else {
                    Fnv::of_ids(&ids)
                };
            }
            update => {
                let change = match update.change().expect("not a query") {
                    ChangeOp::Ua { id, u, v } => (id % n, ChangeOp::Ua { id: id / n, u, v }),
                    ChangeOp::Ur { id, u, v } => (id % n, ChangeOp::Ur { id: id / n, u, v }),
                    other => unreachable!("workloads send only UA/UR, got {other:?}"),
                };
                let t = Instant::now();
                let applied = shards[change.0].apply(change.1);
                out.level.ns[c][i] = elapsed_ns(t);
                out.level.hash[c][i] = if applied.is_ok() { 0 } else { NO_ANSWER };
            }
        }
    }
    out.level.slowness = probe.take_slowness();
    out
}

/// All times at reference host speed.
#[derive(Default)]
struct IndexReport {
    build_ms: f64,
    lookup_ns: f64,
    sync_ns: f64,
    syncs: u64,
    bytes: u64,
}

/// The label index alone, on a replica store: built once, synced lazily
/// at the next query after an update (as `system` drives it), asked for
/// candidates by every query.
fn replay_index(pop: &Population, streams: &Streams) -> IndexReport {
    let mut store = GraphStore::from_graphs(pop.dataset.clone());
    let mut log = ChangeLog::new();
    let mut probe = HostProbe::default();
    probe.point();
    let t = Instant::now();
    let mut index = LabelIndex::build(&store, &log);
    let build_ms = elapsed_ns(t) as f64 / 1e6;
    probe.point();
    let build_ms = build_ms / probe.take_slowness();
    let (mut lookups, mut lookup_ns) = (0u64, 0u64);
    let mut warm = (0, 0);
    for (c, i) in streams.interleaved() {
        tick(&mut probe, streams, c, i);
        if i == streams.warmup_ops && c == 0 {
            warm = (index.syncs(), index.sync_nanos());
        }
        match &streams.conns[c][i] {
            Op::Query(k) => {
                let (graph, kind) = &pop.pool[*k as usize];
                index.sync(&store, &log);
                let t = Instant::now();
                let candidates = match kind {
                    QueryKind::Subgraph => index.subgraph_candidates(graph),
                    QueryKind::Supergraph => index.supergraph_candidates(graph),
                };
                if i >= streams.warmup_ops {
                    lookup_ns += elapsed_ns(t);
                    lookups += 1;
                }
                std::hint::black_box(candidates);
            }
            update => {
                apply_to_store(&mut store, update);
                match *update {
                    Op::Ua { id, u, v } => log.append_edge(id as usize, OpType::Ua, u, v),
                    Op::Ur { id, u, v } => log.append_edge(id as usize, OpType::Ur, u, v),
                    Op::Query(_) => unreachable!(),
                }
            }
        }
    }
    let syncs = index.syncs() - warm.0;
    let slowness = probe.take_slowness();
    IndexReport {
        build_ms,
        lookup_ns: lookup_ns as f64 / lookups.max(1) as f64 / slowness,
        sync_ns: (index.sync_nanos() - warm.1) as f64 / syncs.max(1) as f64 / slowness,
        syncs,
        bytes: index.memory_bytes(),
    }
}

/// Median RTT (at reference host speed) of health requests to the live
/// child: the cost of crossing the wire (client, loopback TCP, the
/// server's connection thread) around a request whose handling is almost
/// free. One pinging connection per workload connection, all at once, so
/// the floor includes what that many thread pairs cost each other in
/// wake-ups and migrations.
fn ping_ns(server: &ServerChild, placement: &Placement, pings: usize) -> Result<f64, String> {
    let conns = placement.connections();
    let barrier = Barrier::new(conns);
    let mut clients = Vec::with_capacity(conns);
    for c in 0..conns {
        clients.push(server.connect(c, placement)?);
    }
    let per_conn: Vec<Result<(Vec<f64>, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let pinned = placement.pin_this_thread(c);
                    let mut rtt = Vec::with_capacity(pings);
                    let mut probe = GroupProbe::new(barrier);
                    let mut failed = None;
                    probe.sync();
                    for k in 0..pings {
                        probe.tick(k, pings);
                        // after a failure only the barriers are still met
                        if failed.is_none() {
                            let t = Instant::now();
                            match client.health() {
                                Ok(_) => rtt.push(elapsed_ns(t) as f64),
                                Err(e) => failed = Some(format!("ping: {e}")),
                            }
                        }
                    }
                    probe.sync();
                    pinned?;
                    match failed {
                        Some(e) => Err(e),
                        None => Ok((rtt, probe.take().1)),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ping thread panicked"))
            .collect()
    });
    let (mut all, mut slowness) = (Vec::new(), 0.0);
    for conn in per_conn {
        let (rtt, s) = conn?;
        all.extend(rtt);
        slowness += s / conns as f64;
    }
    Ok(median(&all) / slowness)
}

/// Means over the measured ops of all connections, by op kind.
struct KindMeans {
    query: f64,
    update: f64,
    all: f64,
}

fn kind_means(streams: &Streams, value: impl Fn(usize, usize) -> f64) -> KindMeans {
    let (mut q, mut u) = (Vec::new(), Vec::new());
    for (c, ops) in streams.conns.iter().enumerate() {
        for (i, op) in ops.iter().enumerate().skip(streams.warmup_ops) {
            if op.is_query() {
                q.push(value(c, i));
            } else {
                u.push(value(c, i));
            }
        }
    }
    let all = (q.iter().sum::<f64>() + u.iter().sum::<f64>()) / (q.len() + u.len()) as f64;
    KindMeans {
        query: mean(&q),
        update: mean(&u),
        all,
    }
}

/// Median over the measured ops of a per-op difference between levels.
/// The levels replay the same op at different times, so a slow phase of
/// the host shifts a mean of differences by far more than a layer's self
/// time; the median of the paired differences is not moved by it.
fn paired_median(streams: &Streams, only_queries: bool, diff: impl Fn(usize, usize) -> f64) -> f64 {
    let mut d = Vec::new();
    for (c, ops) in streams.conns.iter().enumerate() {
        for (i, op) in ops.iter().enumerate().skip(streams.warmup_ops) {
            if !only_queries || op.is_query() {
                d.push(diff(c, i));
            }
        }
    }
    median(&d)
}

/// Ops whose answer differs from the `service` level's. The in-process
/// levels replay one fixed interleaving, so every op is comparable among
/// them; over loopback only connection 0 is (its queries see exactly its
/// own updates, whatever the other connection is doing).
fn disagreements(reference: &Level, other: &Level, conns: usize) -> u64 {
    (0..conns)
        .map(|c| {
            reference.hash[c]
                .iter()
                .zip(&other.hash[c])
                .filter(|(a, b)| a != b)
                .count() as u64
        })
        .sum()
}

pub struct TraceOutcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub oracle_wrong: u64,
    pub answers_fnv: u64,
    pub trace_file: std::path::PathBuf,
    pub placement: String,
    pub shape_violations: Vec<String>,
}

/// Runs every level of the ladder on one pass-length of the workload's
/// stream (a prefix of what the untraced run sends) and derives the
/// per-layer metrics.
pub fn run(
    spec: &Spec,
    scale: &Scale,
    seed: u64,
    out_dir: &std::path::Path,
    check_shape: bool,
) -> Result<TraceOutcome, String> {
    const LADDER_PASSES: usize = 1;
    // level rtt, twice: spans off (the end-to-end setting) and on
    let (plain, server) =
        loopback::measure(loopback::setup(spec, scale, seed, LADDER_PASSES, false)?)?;
    drop(server);
    let (traced, server) =
        loopback::measure(loopback::setup(spec, scale, seed, LADDER_PASSES, true)?)?;
    let pings = PINGS.min(20 * scale.ops_per_pass);
    let ping = ping_ns(&server, &traced.placement, pings)?;
    drop(server);
    let LoopbackRun {
        pop, streams, logs, ..
    } = &traced;
    let rtt = Level {
        ns: logs.iter().map(|l| l.lat_ns.clone()).collect(),
        hash: logs.iter().map(|l| l.answer_hash.clone()).collect(),
        slowness: traced.marks.slowness[0],
    };
    let plain_slowness = plain.marks.slowness[0];

    // the in-process levels run on this thread, on connection 0's CPU
    traced.placement.pin_this_thread(0)?;
    let service = replay_service(spec, pings, pop, streams);
    let codec: Vec<f64> = (0..4)
        .map(|part| {
            kind_means(streams, |c, i| service.codec_ns[c][i][part] as f64).all
                / service.level.slowness
        })
        .collect();
    let codec_all: f64 = codec.iter().sum();
    let wire_floor_ns = (ping - service.health_ns).max(0.0);
    let concurrent = if spec.conns > 1 {
        // what a connection spends between two `handle` calls, on the
        // host as it runs now
        let think_ns = (wire_floor_ns + codec_all) * service.level.slowness;
        Some(replay_service_concurrent(
            spec,
            &traced.placement,
            pop,
            streams,
            think_ns as u64,
        )?)
    } else {
        None
    };
    let sharded = replay_sharded(spec, pop, streams);
    let system = replay_system(spec, pop, streams, false);
    let staged = replay_system(spec, pop, streams, true);
    let index = replay_index(pop, streams);
    let oracle = loopback::oracle_check(pop, streams, &logs[0].sampled);

    let plain_summary = plain.summary();
    let summary = traced.summary();
    // from here on every time is at reference host speed
    let ns_of = |level: &Level| kind_means(streams, |c, i| level.at(c, i));
    let (m_rtt, m_service, m_sharded, m_system) = (
        ns_of(&rtt),
        ns_of(&service.level),
        ns_of(&sharded.level),
        ns_of(&system.level),
    );
    let codec_at = |c: usize, i: usize| -> f64 {
        service.codec_ns[c][i].iter().sum::<u64>() as f64 / service.level.slowness
    };
    let totals = &staged.totals;
    let per_query = |v: u64| v as f64 / totals.queries.max(1) as f64;
    let span_per_query = |ns: u64| per_query(ns) / staged.level.slowness;
    let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;

    // the oracle's sample, seen from the system level: same positions
    let system_sample_ns: f64 = oracle
        .positions
        .iter()
        .map(|&i| system.level.at(0, i))
        .sum();
    let system_sample_tests: u64 = oracle.positions.iter().map(|&i| staged.tests[0][i]).sum();
    let baseline_ns = oracle.baseline_ns.iter().sum::<u64>() as f64 / oracle.slowness;
    let baseline_tests: u64 = oracle.baseline_tests.iter().sum();

    let mut boundary_disagreements = disagreements(&service.level, &rtt, 1)
        + disagreements(&service.level, &sharded.level, spec.conns)
        + disagreements(&service.level, &system.level, spec.conns)
        + disagreements(&service.level, &staged.level, spec.conns);
    if let Some((level, _)) = &concurrent {
        boundary_disagreements += disagreements(&service.level, level, 1);
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("protocol.req_encode_ns", codec[0]);
    m.insert("protocol.req_decode_ns", codec[1]);
    m.insert("protocol.rsp_encode_ns", codec[2]);
    m.insert("protocol.rsp_decode_ns", codec[3]);
    m.insert(
        "protocol.req_bytes",
        kind_means(streams, |c, i| f64::from(service.req_bytes[c][i])).all,
    );
    m.insert(
        "protocol.rsp_bytes",
        kind_means(streams, |c, i| f64::from(service.rsp_bytes[c][i])).all,
    );
    // what the round trip costs beyond handling and the codec, by
    // subtraction; on shards_2c this also holds the wait for the lock
    let wire_ns = paired_median(streams, false, |c, i| {
        rtt.at(c, i) - service.level.at(c, i) - codec_at(c, i)
    });
    m.insert("server.wire_us", wire_ns / 1e3);
    m.insert("server.wire_share", wire_ns / m_rtt.all);
    m.insert("server.ping_us", ping / 1e3);
    // as the clock read them on this host, beside the end-to-end run's
    // figures at reference speed
    m.insert("client.raw_throughput_rps", summary.raw_throughput_rps);
    m.insert("client.raw_query_p50_us", summary.raw_query_p50_us);
    m.insert("client.raw_query_p99_us", summary.raw_query_p99_us);
    m.insert("server.raw_cpu_us_per_op", summary.raw_cpu_us_per_op);
    m.insert("client.retries", summary.retries as f64);
    m.insert("client.query_p99_us", summary.query_p99_us);
    m.insert("client.update_p50_us", summary.update_p50_us);
    m.insert("client.mean_inflight", summary.mean_inflight);
    m.insert("service.handle_query_us", m_service.query / 1e3);
    m.insert("service.handle_update_us", m_service.update / 1e3);
    let service_self = paired_median(streams, false, |c, i| {
        service.level.at(c, i) - sharded.level.at(c, i)
    });
    m.insert("service.self_us", service_self / 1e3);
    // measured only where the workload has two connections
    let (contention_ns, shed) = match &concurrent {
        Some((level, shed)) => (ns_of(level).all - m_service.all, *shed),
        None => (0.0, 0),
    };
    m.insert("service.contention_us", contention_ns / 1e3);
    m.insert("service.shed", shed as f64);
    m.insert("sharded.execute_us", m_sharded.query / 1e3);
    m.insert("sharded.apply_us", m_sharded.update / 1e3);
    let router_self = paired_median(streams, true, |c, i| {
        sharded.level.at(c, i) - system.level.at(c, i)
    });
    m.insert("sharded.router_self_us", router_self / 1e3);
    m.insert(
        "sharded.hit_share",
        share(sharded.hits, sharded.hits + sharded.misses),
    );
    m.insert("sharded.evictions", sharded.evictions as f64);
    let span = |stage: Stage| span_per_query(totals.spans.get(stage));
    m.insert("system.execute_us", m_system.query / 1e3);
    m.insert("system.hit_probe_ns", span(Stage::HitProbe));
    m.insert("system.prefilter_ns", span(Stage::Prefilter));
    // the scan span contains verification: report the scan's own part
    m.insert(
        "system.candidate_scan_ns",
        span_per_query(
            totals
                .spans
                .get(Stage::CandidateScan)
                .saturating_sub(totals.spans.get(Stage::Verify)),
        ),
    );
    m.insert("system.verify_ns", span(Stage::Verify));
    m.insert("system.admission_ns", span(Stage::Admission));
    m.insert("system.repair_ns", span(Stage::Repair));
    m.insert("system.tests_per_query", per_query(totals.tests));
    m.insert("system.candidates_per_query", per_query(totals.candidates));
    m.insert(
        "system.tests_saved_share",
        share(totals.tests_saved, totals.candidates),
    );
    m.insert(
        "system.exact_shortcut_share",
        share(totals.exact_shortcuts, totals.executions),
    );
    m.insert(
        "system.zero_test_share",
        share(totals.zero_test, totals.executions),
    );
    m.insert("system.repairs_applied", totals.repairs_applied as f64);
    m.insert(
        "system.invalidations_avoided",
        totals.invalidations_avoided as f64,
    );
    m.insert("system.repair_fallbacks", totals.repair_fallbacks as f64);
    m.insert(
        "system.speedup_vs_baseline_x",
        baseline_ns / system_sample_ns.max(1.0),
    );
    m.insert(
        "system.speedup_tests_x",
        baseline_tests as f64 / system_sample_tests.max(1) as f64,
    );
    m.insert("index.build_ms", index.build_ms);
    m.insert("index.lookup_ns", index.lookup_ns);
    m.insert("index.sync_ns", index.sync_ns);
    m.insert("index.syncs", index.syncs as f64);
    m.insert("index.bytes", index.bytes as f64);
    m.insert(
        "subiso.baseline_us",
        baseline_ns / 1e3 / oracle.checked.max(1) as f64,
    );
    m.insert(
        "subiso.baseline_tests_per_query",
        share(baseline_tests, oracle.checked),
    );
    m.insert(
        "subiso.ns_per_test",
        baseline_ns / baseline_tests.max(1) as f64,
    );
    // the two loopback runs send the same ops: compare them op by op
    let overhead_ns = paired_median(streams, false, |c, i| {
        rtt.at(c, i) - plain.logs[c].lat_ns[i] as f64 / plain_slowness
    });
    m.insert("trace.overhead_share", overhead_ns / m_rtt.all);
    // how much of a round trip the independently timed levels explain:
    // the wire floor, the codec, and `handle` under the workload's own
    // concurrency (waiting for the service lock is part of a round trip).
    // Interference only ever slows a pass, so the quicker of the two
    // loopback passes is the round trip the levels have to explain.
    let plain_rtt = kind_means(streams, |c, i| {
        plain.logs[c].lat_ns[i] as f64 / plain_slowness
    });
    let coverage =
        (wire_floor_ns + codec_all + m_service.all + contention_ns) / m_rtt.all.min(plain_rtt.all);
    m.insert("trace.coverage_share", coverage);
    m.insert("bench.pass_spread_share", repeat_spread(&plain, &traced));
    m.insert("bench.host_slowness", rtt.slowness);
    m.insert(
        "bench.boundary_disagreements",
        boundary_disagreements as f64,
    );
    m.insert("bench.oracle_checked", oracle.checked as f64);
    m.insert("bench.oracle_wrong", oracle.wrong as f64);

    let shape_violations = if check_shape {
        shape_violations(spec, &m, summary.update_share)
    } else {
        Vec::new()
    };
    m.insert("bench.shape_violations", shape_violations.len() as f64);

    let trace_file = out_dir.join(format!("trace-{}.json", spec.name));
    write_trace(
        &trace_file,
        streams,
        &rtt,
        &traced,
        &service,
        &sharded.level,
        &system.level,
        &staged,
        &oracle,
    )?;

    Ok(TraceOutcome {
        metrics: m,
        attempted: summary.attempted + plain_summary.attempted,
        failed: summary.failed + plain_summary.failed,
        oracle_wrong: oracle.wrong,
        answers_fnv: summary.answers_fnv,
        trace_file,
        placement: traced.placement.describe(),
        shape_violations,
    })
}

/// How much the host disturbs a run, seen inside the traced run: the
/// measured pass is cut into [`PASSES`] equal slices, each slice's time is
/// compared between the two loopback runs (same ops, so content cancels),
/// and the inter-quartile spread of those ratios is reported — the traced
/// run's stand-in for the spread over passes the end-to-end run prints.
fn repeat_spread(a: &LoopbackRun, b: &LoopbackRun) -> f64 {
    let from = a.streams.warmup_ops;
    let slice = ((a.streams.len_per_conn() - from) / PASSES).max(1);
    let sums = |run: &LoopbackRun| -> Vec<f64> {
        run.logs[0].lat_ns[from..]
            .chunks_exact(slice)
            .map(|s| s.iter().sum::<u64>() as f64)
            .collect()
    };
    let ratios: Vec<f64> = sums(a).iter().zip(sums(b)).map(|(x, y)| y / x).collect();
    spread_share(&ratios)
}

/// Whether the workload still stresses what it was chosen for. Checked at
/// full scale only: `--quick` streams are too short for the shares to
/// settle.
fn shape_violations(
    spec: &Spec,
    m: &BTreeMap<&'static str, f64>,
    update_share: f64,
) -> Vec<String> {
    let g = |name: &str| m[name];
    let execute_ns = g("sharded.execute_us") * 1e3;
    let scan_verify = g("system.candidate_scan_ns") + g("system.verify_ns");
    let mut bad = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: {what}", spec.name));
        }
    };
    match spec.name {
        "hot_zipf" => {
            require(
                g("sharded.hit_share") >= 0.90,
                format!("hit share {:.3} < 0.90", g("sharded.hit_share")),
            );
            require(
                scan_verify < 0.5 * execute_ns,
                format!(
                    "scan+verify {:.0} ns is not below half of execute {:.0} ns",
                    scan_verify, execute_ns
                ),
            );
        }
        "cold_uniform" => {
            require(
                g("system.exact_shortcut_share") <= 0.10,
                format!(
                    "exact shortcut share {:.3} > 0.10",
                    g("system.exact_shortcut_share")
                ),
            );
            let kernel = g("system.prefilter_ns") + scan_verify;
            require(
                kernel >= 0.6 * execute_ns,
                format!(
                    "index+scan+verify {:.0} ns is below 60% of execute {:.0} ns",
                    kernel, execute_ns
                ),
            );
        }
        "churn" => {
            require(
                (update_share - 0.20).abs() <= 0.005,
                format!("update share {update_share:.4} is not 20 ± 0.5%"),
            );
            require(
                g("system.invalidations_avoided") > 0.0,
                "no invalidation avoided".into(),
            );
        }
        "shards_2c" => {
            require(
                g("client.mean_inflight") >= 1.5,
                format!("mean in-flight {:.2} < 1.5", g("client.mean_inflight")),
            );
        }
        _ => {}
    }
    bad
}

/// Writes the sampled requests as nested spans. Durations are the ones
/// each level measured for that request id; a child's start is placed at
/// the end of its parent's own share, since the levels ran at different
/// times and only the client span has a real clock reading.
#[allow(clippy::too_many_arguments)]
fn write_trace(
    path: &std::path::Path,
    streams: &Streams,
    rtt: &Level,
    traced: &LoopbackRun,
    service: &ServiceLevel,
    sharded: &Level,
    system: &Level,
    staged: &SystemLevel,
    oracle: &OracleReport,
) -> Result<(), String> {
    let mut spans = Vec::new();
    let mut push =
        |name: &str, request: String, start: u64, dur: u64, parent: Option<usize>| -> usize {
            spans.push(Json::obj([
                ("id", Json::Num(spans.len() as f64)),
                ("name", Json::str(name)),
                ("request", Json::Str(request)),
                ("start_ns", Json::Num(start as f64)),
                ("end_ns", Json::Num((start + dur) as f64)),
                ("parent", parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ]));
            spans.len() - 1
        };
    let sampled = streams
        .interleaved()
        .filter(|&(_, i)| i >= streams.warmup_ops)
        .take(TRACE_REQUESTS);
    for (c, i) in sampled {
        let request = format!("{c}:{i}");
        let is_query = streams.conns[c][i].is_query();
        let start = traced.logs[c].start_ns[i];
        let root = push("client.rtt", request.clone(), start, rtt.ns[c][i], None);
        let [enc, dec, renc, rdec] = service.codec_ns[c][i];
        let handle = service.level.ns[c][i];
        // request-side wire time: half of what the levels leave unexplained
        let wire = rtt.ns[c][i].saturating_sub(enc + dec + handle + renc + rdec) / 2;
        let mut at = start;
        push("protocol.req_encode", request.clone(), at, enc, Some(root));
        at += enc;
        push("server.wire", request.clone(), at, wire, Some(root));
        at += wire;
        push("protocol.req_decode", request.clone(), at, dec, Some(root));
        at += dec;
        let h = push("service.handle", request.clone(), at, handle, Some(root));
        let inner = sharded.ns[c][i].min(handle);
        let name = if is_query {
            "sharded.execute_deadline"
        } else {
            "sharded.apply"
        };
        let s = push(name, request.clone(), at + (handle - inner), inner, Some(h));
        let sys = system.ns[c][i].min(inner);
        let sys_at = at + (handle - inner) + (inner - sys);
        let name = if is_query {
            "system.execute"
        } else {
            "system.apply"
        };
        let y = push(name, request.clone(), sys_at, sys, Some(s));
        let mut stage_at = sys_at;
        for stage in [
            Stage::Repair,
            Stage::Prefilter,
            Stage::HitProbe,
            Stage::CandidateScan,
            Stage::Admission,
        ] {
            // stage spans come from the traced replay: scale nothing, clip
            let dur = staged.spans[c][i]
                .get(stage)
                .min((sys_at + sys).saturating_sub(stage_at));
            if dur == 0 {
                continue;
            }
            let id = push(
                &format!("system.{}", stage.name()),
                request.clone(),
                stage_at,
                dur,
                Some(y),
            );
            if stage == Stage::CandidateScan {
                let verify = staged.spans[c][i].get(Stage::Verify).min(dur);
                push("subiso.verify", request.clone(), stage_at, verify, Some(id));
            }
            stage_at += dur;
        }
        at += handle;
        push("protocol.rsp_encode", request.clone(), at, renc, Some(root));
        at += renc;
        push("server.wire", request.clone(), at, wire, Some(root));
        at += wire;
        push("protocol.rsp_decode", request, at, rdec, Some(root));
    }
    let baseline: Vec<Json> = oracle
        .positions
        .iter()
        .zip(&oracle.baseline_ns)
        .map(|(&i, &ns)| {
            Json::obj([
                ("request", Json::Str(format!("0:{i}"))),
                ("subiso.method_run_ns", Json::Num(ns as f64)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("note", Json::str("durations are measured per level on separate replays of the same ops; only client.rtt has a real start time, inner starts are placed")),
        ("spans", Json::Arr(spans)),
        ("baseline", Json::Arr(baseline)),
    ]);
    std::fs::create_dir_all(path.parent().unwrap_or(std::path::Path::new(".")))
        .and_then(|()| std::fs::write(path, doc.render()))
        .map_err(|e| format!("{}: {e}", path.display()))
}
