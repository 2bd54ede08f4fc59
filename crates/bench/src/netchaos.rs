//! The networked chaos harness — the `gc_server` stack, empirically
//! fault-tolerant end to end.
//!
//! Where [`crate::chaos`] exercises the in-process isolation boundaries,
//! [`run_net_chaos`] drives the *real* loopback TCP server with a Zipf
//! load-driver of concurrent clients while injected network faults
//! (dropped connections, delayed frames, a stalled shard) and shard-level
//! process faults (a double panic crossing the failover threshold, silent
//! cache corruption) fire under it. A fault-free in-process oracle holds
//! ground truth. The run is three phases:
//!
//! 1. **storm 1** — concurrent clients replay a Zipf-skewed query pool
//!    under a per-request deadline; the double panic flips one shard to
//!    failed-over, so later replies are served partly via router baseline;
//! 2. **updates** — a serial driver client removes and re-adds edges,
//!    mirroring every confirmed op into the oracle, then runs a full-rate
//!    audit (which repairs corruption, drains quarantine and rejoins the
//!    failed-over shard) and a second audit that must find nothing left;
//! 3. **storm 2** — the same pool against the mutated dataset: every
//!    reply must now come from healthy cache shards (`baseline_shards ==
//!    0`) and match the recomputed truth.
//!
//! The invariants checked are the networked version of the chaos suite's:
//! zero silent divergence (untagged mismatch, or a degraded answer that is
//! not a sound subset of truth), zero hung requests (every call resolves
//! within 2× its deadline, retries and backoff included), failover
//! observed and then fully cleared by audit, and every injected panic
//! contained.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use gc_core::{
    AuditReport, Fault, FaultInjector, FaultPlan, GcConfig, GraphCachePlus, HealthCounter,
    HealthSnapshot, QueryBudget, ShardedGraphCache,
};
use gc_dataset::ChangeOp;
use gc_graph::{LabeledGraph, Zipf};
use gc_server::{serve, CacheClient, CacheService, ClientError, RetryPolicy, ServiceStats};
use gc_subiso::QueryKind;
use gc_telemetry::{Histogram, HistogramSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{health_json, latency_json, spans_json};
use crate::with_quiet_panics;
use crate::{build_dataset, build_type_a_workloads, Scale};

/// Queries each client of a ramp level issues (kept small: the sweep adds
/// three levels on top of the two storms).
const RAMP_QUERIES_PER_CLIENT: usize = 6;

/// Knobs of one networked chaos run.
#[derive(Debug, Clone)]
pub struct NetChaosConfig {
    /// Dataset/pool scale (the query pool is drawn from the ZZ workload).
    pub scale: Scale,
    /// The combined fault plan: network faults (`drop-conn`, `delay-conn`,
    /// `stall-shard`) drive the server's framing layer; process faults
    /// (`corrupt`, `panic-*`, `delay-query`) are installed on shard 0.
    /// The failover shard's double panic is always injected on top.
    pub fault_plan: FaultPlan,
    /// Per-request deadline each client sends over the wire.
    pub deadline: Duration,
    /// Concurrent storm clients.
    pub clients: usize,
    /// Queries each storm client issues per phase.
    pub queries_per_client: usize,
    /// Query-pool size (head of the ZZ workload).
    pub pool_size: usize,
    /// Zipf skew of the pool replay (paper default 1.4).
    pub zipf_alpha: f64,
    /// Cache shards behind the service; the last one gets the double
    /// panic, so at least 2 are required.
    pub shards: usize,
    /// Per-shard in-flight admission bound.
    pub max_inflight: usize,
    /// Edge removals/re-adds in the update phase.
    pub updates: usize,
}

impl NetChaosConfig {
    /// Default networked chaos setup for a scale.
    pub fn new(scale: Scale) -> NetChaosConfig {
        NetChaosConfig {
            scale,
            fault_plan: default_net_fault_plan(),
            deadline: Duration::from_millis(250),
            clients: 6,
            queries_per_client: 12,
            pool_size: 64,
            zipf_alpha: 1.4,
            shards: 3,
            max_inflight: 64,
            updates: 24,
        }
    }
}

/// The built-in networked plan: two dropped connections and one delayed
/// frame exercise the retry discipline, one stalled shard exercises
/// deadline-bounded degradation, and one silent corruption exercises the
/// audit-repair path — all at ordinals that fire during the first storm
/// (or, for `corrupt`, the update phase).
pub fn default_net_fault_plan() -> FaultPlan {
    "drop-conn@2;delay-conn@5:40;drop-conn@11;stall-shard@8;corrupt@2:1"
        .parse()
        .expect("built-in net fault plan parses")
}

/// Folded per-phase tallies of one query storm.
#[derive(Debug, Clone, Default)]
pub struct StormTally {
    /// Requests issued (successes and terminal errors).
    pub requests: usize,
    /// Replies equal to the oracle answer, untagged.
    pub exact: usize,
    /// Replies explicitly tagged degraded whose answer was a sound subset
    /// of the oracle's.
    pub degraded: usize,
    /// Silently wrong replies — untagged mismatches, or degraded answers
    /// that invented a positive. Must be zero.
    pub divergent: usize,
    /// Calls that ended in an explicit client error (overload/transport
    /// after retries). Allowed, but counted.
    pub errors: usize,
    /// The share of `errors` that were an explicit `Overloaded`.
    pub shed: usize,
    /// Replies with at least one shard served via router baseline.
    pub baseline_hits: usize,
    /// Client-side retries across all storm clients.
    pub retries: u64,
    /// Worst observed `elapsed / deadline` over the phase (elapsed
    /// includes retries and backoff).
    pub max_overrun: f64,
    /// Replies that took longer than 2× the deadline. Must be zero.
    pub hung: usize,
    /// Client-observed reply latency (microseconds, retries and backoff
    /// included), merged across all storm clients.
    pub latency: HistogramSnapshot,
}

impl StormTally {
    /// Replies actually answered — the tally's contribution to the request
    /// ledger a stats scrape reconciles against.
    pub fn answered(&self) -> usize {
        self.requests - self.errors
    }

    fn absorb(&mut self, other: &StormTally) {
        self.requests += other.requests;
        self.exact += other.exact;
        self.degraded += other.degraded;
        self.divergent += other.divergent;
        self.errors += other.errors;
        self.shed += other.shed;
        self.baseline_hits += other.baseline_hits;
        self.retries += other.retries;
        self.max_overrun = self.max_overrun.max(other.max_overrun);
        self.hung += other.hung;
        self.latency.merge(&other.latency);
    }
}

/// One offered-load level of the post-audit ramp sweep (shed-rate vs
/// offered load; clients run with retries off so shedding surfaces as
/// explicit `Overloaded` instead of hiding inside backoff loops).
#[derive(Debug, Clone, Default)]
pub struct RampLevel {
    /// Concurrent clients at this level.
    pub clients: usize,
    /// Requests offered.
    pub offered: usize,
    /// Replies answered (these join the request ledger).
    pub completed: usize,
    /// Requests shed with an explicit `Overloaded`.
    pub shed: usize,
    /// Other terminal errors (transport etc.) — not executed.
    pub errors: usize,
    /// Answered replies that silently diverged from truth. Must be zero.
    pub divergent: usize,
}

impl RampLevel {
    /// Fraction of offered requests the server shed at this level.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Aggregated result of one [`run_net_chaos`] invocation.
#[derive(Debug, Clone)]
pub struct NetChaosReport {
    /// The injected plan, compact form.
    pub fault_plan: String,
    /// Per-request deadline, milliseconds.
    pub deadline_ms: u64,
    /// Shards behind the service.
    pub shards: usize,
    /// Concurrent storm clients.
    pub clients: usize,
    /// Storm 1 (under network faults + failover).
    pub storm1: StormTally,
    /// Storm 2 (after audit; must be clean and baseline-free).
    pub storm2: StormTally,
    /// Updates confirmed applied (mirrored into the oracle).
    pub updates_applied: usize,
    /// Update calls re-issued after a provably-unexecuted transport drop.
    pub update_reissues: u64,
    /// Updates that never went through. Must be zero.
    pub update_failures: usize,
    /// First full-rate audit (repairs corruption, rejoins the shard).
    pub audit: AuditReport,
    /// Second audit — must find nothing left to repair.
    pub audit_after: AuditReport,
    /// Shards still failed over at the end. Must be empty.
    pub unhealthy_final: Vec<usize>,
    /// Folded service + cache health counters at the end.
    pub health: HealthSnapshot,
    /// The post-audit ramp sweep: shed rate vs offered load.
    pub ramp: Vec<RampLevel>,
    /// The live `stats` scrape taken over the wire before shutdown.
    pub stats: ServiceStats,
    /// Queries the ledger says were executed: answered storm replies plus
    /// completed ramp replies. Shed and transport-failed calls are
    /// provably unexecuted and excluded.
    pub executed_queries: u64,
}

impl NetChaosReport {
    /// `true` when the plan contains a fault that makes clients retry.
    fn expects_retries(&self) -> bool {
        self.fault_plan.contains("drop-conn")
    }

    /// Does the stats scrape reconcile exactly with the request ledger?
    /// Every executed query classifies once per shard (hit or miss), the
    /// service query counter matches, and so does the update counter.
    pub fn reconciled(&self) -> bool {
        self.stats.queries == self.executed_queries
            && self.stats.updates == self.updates_applied as u64
            && self
                .stats
                .shards
                .iter()
                .all(|s| s.hits + s.misses == self.executed_queries)
    }

    /// Did the run satisfy every networked chaos invariant?
    pub fn passed(&self) -> bool {
        self.storm1.divergent == 0
            && self.storm2.divergent == 0
            && self.storm1.hung == 0
            && self.storm2.hung == 0
            && self.storm1.exact > 0
            && self.storm2.exact > 0
            && self.storm1.baseline_hits > 0
            && self.storm2.baseline_hits == 0
            && self.update_failures == 0
            && self.audit_after.repaired == 0
            && self.unhealthy_final.is_empty()
            && self.health.get(HealthCounter::PanicsRecovered) >= 2
            && self.ramp.iter().all(|l| l.divergent == 0)
            && self.reconciled()
            && (!self.expects_retries()
                || self.storm1.retries + self.storm2.retries + self.update_reissues > 0)
    }

    /// Hand-rolled JSON (the artifact uploaded by CI's service smoke job).
    pub fn to_json(&self) -> String {
        fn storm(t: &StormTally) -> String {
            format!(
                "{{\"requests\": {}, \"exact\": {}, \"degraded\": {}, \
                 \"divergent\": {}, \"errors\": {}, \"baseline_hits\": {}, \
                 \"retries\": {}, \"max_overrun\": {:.4}, \"hung\": {}, \
                 \"latency_us\": {}}}",
                t.requests,
                t.exact,
                t.degraded,
                t.divergent,
                t.errors,
                t.baseline_hits,
                t.retries,
                t.max_overrun,
                t.hung,
                latency_json(&t.latency),
            )
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"mode\": \"net\",\n");
        out.push_str(&format!("  \"fault_plan\": \"{}\",\n", self.fault_plan));
        out.push_str(&format!("  \"deadline_ms\": {},\n", self.deadline_ms));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str(&format!("  \"storm1\": {},\n", storm(&self.storm1)));
        out.push_str(&format!("  \"storm2\": {},\n", storm(&self.storm2)));
        out.push_str(&format!(
            "  \"updates\": {{\"applied\": {}, \"reissues\": {}, \"failures\": {}}},\n",
            self.updates_applied, self.update_reissues, self.update_failures,
        ));
        out.push_str(&format!(
            "  \"audit\": {{\"sampled\": {}, \"repaired\": {}, \
             \"second_pass_repaired\": {}}},\n",
            self.audit.sampled, self.audit.repaired, self.audit_after.repaired,
        ));
        out.push_str(&format!("  \"health\": {},\n", health_json(&self.health)));
        out.push_str(&format!(
            "  \"unhealthy_final\": {:?},\n",
            self.unhealthy_final
        ));
        out.push_str("  \"ramp\": [");
        for (i, l) in self.ramp.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"clients\": {}, \"offered\": {}, \"completed\": {}, \
                 \"shed\": {}, \"errors\": {}, \"divergent\": {}, \
                 \"shed_rate\": {:.4}}}",
                if i == 0 { "" } else { ", " },
                l.clients,
                l.offered,
                l.completed,
                l.shed,
                l.errors,
                l.divergent,
                l.shed_rate(),
            ));
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"executed_queries\": {},\n  \"reconciled\": {},\n",
            self.executed_queries,
            self.reconciled(),
        ));
        out.push_str(&format!("  \"stats\": {}\n", stats_json(&self.stats)));
        out.push_str("}\n");
        out
    }

    /// The standalone metrics artifact (`METRICS_report.json`): the stats
    /// scrape, its reconciliation verdict, and the rendered Prometheus
    /// exposition text.
    pub fn metrics_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"reconciled\": {},\n  \"executed_queries\": {},\n  \"updates_applied\": {},\n",
            self.reconciled(),
            self.executed_queries,
            self.updates_applied,
        ));
        out.push_str(&format!("  \"stats\": {},\n", stats_json(&self.stats)));
        out.push_str(&format!(
            "  \"storm1_latency_us\": {},\n  \"storm2_latency_us\": {},\n",
            latency_json(&self.storm1.latency),
            latency_json(&self.storm2.latency),
        ));
        out.push_str(&format!(
            "  \"exposition\": \"{}\"\n",
            json_escape(&self.stats.render_prometheus()),
        ));
        out.push_str("}\n");
        out
    }
}

/// A [`ServiceStats`] snapshot as one JSON object.
fn stats_json(s: &ServiceStats) -> String {
    let shards: Vec<String> = s
        .shards
        .iter()
        .map(|sh| {
            format!(
                "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                 \"quarantined\": {}, \"shed\": {}}}",
                sh.hits, sh.misses, sh.evictions, sh.quarantined, sh.shed,
            )
        })
        .collect();
    format!(
        "{{\"queries\": {}, \"updates\": {}, \"decoded_query_hits\": {}, \
         \"decoded_queries\": {}, \"shards\": [{}], \"latency_us\": {}, \
         \"stage_nanos\": {}}}",
        s.queries,
        s.updates,
        s.decoded_query_hits,
        s.decoded_queries,
        shards.join(", "),
        latency_json(&s.latency),
        spans_json(&s.stages),
    )
}

/// Minimal JSON string escaping for embedding exposition text.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Runs the full networked chaos suite (see the module docs for the
/// three-phase structure). Panics on harness-level failures (cannot bind,
/// protocol bugs); *system*-level failures land in the report's verdict.
pub fn run_net_chaos(cfg: &NetChaosConfig) -> NetChaosReport {
    assert!(
        cfg.shards >= 2,
        "net chaos needs a dedicated failover shard"
    );
    let dataset = build_dataset(&cfg.scale);
    let zz = build_type_a_workloads(&dataset, &cfg.scale).swap_remove(0);
    let kind = zz.kind;
    let pool: Vec<LabeledGraph> = zz.queries.into_iter().take(cfg.pool_size).collect();

    // Split the plan: network faults drive the server's framing layer,
    // process faults land on shard 0 (which stays healthy and accumulates
    // cache entries, so corruption has something to land on). The last
    // shard always gets the double panic that crosses the failover
    // threshold — the scenario the router exists for.
    let (net, process): (Vec<Fault>, Vec<Fault>) = cfg.fault_plan.faults.iter().partition(|f| {
        matches!(
            f,
            Fault::DropConn { .. } | Fault::DelayConn { .. } | Fault::StallShard { .. }
        )
    });
    let net_plan = FaultPlan { faults: net };
    let process_plan = FaultPlan { faults: process };
    let panic_plan: FaultPlan = "panic-query@1;panic-query@2".parse().expect("built-in");
    let panic_shard = cfg.shards - 1;

    // A small cache keeps full-rate audits affordable (mirrors the
    // in-process chaos suite). Full telemetry is on: the final stats
    // scrape must carry a populated latency histogram and stage spans.
    let cache_config = GcConfig {
        cache_capacity: 48,
        window_capacity: 8,
        metrics: true,
        trace: true,
        ..GcConfig::default()
    };
    let mut cache = ShardedGraphCache::new(cache_config, dataset.clone(), cfg.shards);
    cache.set_fault_injectors(|i| {
        if i == panic_shard {
            Some(Arc::new(FaultInjector::new(panic_plan.clone())))
        } else if i == 0 && !process_plan.faults.is_empty() {
            Some(Arc::new(FaultInjector::new(process_plan.clone())))
        } else {
            None
        }
    });
    // Clients send explicit deadlines on every query, so the server-side
    // default budget stays unlimited.
    let service = CacheService::new(cache, cfg.max_inflight, QueryBudget::UNLIMITED);
    let injector =
        (!net_plan.faults.is_empty()).then(|| Arc::new(FaultInjector::new(net_plan.clone())));
    let server = serve(service, 0, injector).expect("bind loopback");
    let addr = server.addr();

    let oracle_config = GcConfig {
        budget: QueryBudget::UNLIMITED,
        ..cache_config
    };
    let mut oracle = GraphCachePlus::new(oracle_config, dataset.clone());
    let truth1: Vec<Vec<u64>> = pool.iter().map(|q| ids_of(&mut oracle, q, kind)).collect();

    let load = Load {
        clients: cfg.clients,
        queries_per_client: cfg.queries_per_client,
        retry: STORM_RETRY,
    };
    let (storm1, updates, audit, audit_after, storm2, ramp) = with_quiet_panics(|| {
        let storm1 = storm(addr, &pool, &truth1, kind, cfg, load, cfg.scale.seed ^ 0x51);
        let updates = run_updates(addr, &mut oracle, cfg);
        let mut driver = CacheClient::connect(addr);
        let audit = driver.audit(1.0, cfg.scale.seed).expect("audit round-trip");
        let audit_after = driver
            .audit(1.0, cfg.scale.seed + 1)
            .expect("audit round-trip");
        let truth2: Vec<Vec<u64>> = pool.iter().map(|q| ids_of(&mut oracle, q, kind)).collect();
        let storm2 = storm(addr, &pool, &truth2, kind, cfg, load, cfg.scale.seed ^ 0x52);
        // post-audit ramp: sweep offered load with retries off, so shed
        // requests surface as explicit Overloaded instead of retry noise
        let ramp: Vec<RampLevel> = [1, cfg.clients, cfg.clients * 2]
            .into_iter()
            .map(|c| ramp_level(addr, &pool, &truth2, kind, cfg, c, cfg.scale.seed ^ 0x9A))
            .collect();
        (storm1, updates, audit, audit_after, storm2, ramp)
    });

    // the scrape goes over the wire like any client would, while the
    // server is still up — this is what CI reconciles against the ledger
    let stats = CacheClient::connect(addr)
        .stats()
        .expect("stats scrape round-trip");
    let executed_queries = (storm1.answered()
        + storm2.answered()
        + ramp.iter().map(|l| l.completed).sum::<usize>()) as u64;

    let health = server.service().health_snapshot();
    let unhealthy_final = server.service().unhealthy_shards();
    server.shutdown();

    NetChaosReport {
        fault_plan: cfg.fault_plan.to_string(),
        deadline_ms: cfg.deadline.as_millis() as u64,
        shards: cfg.shards,
        clients: cfg.clients,
        storm1,
        storm2,
        updates_applied: updates.applied,
        update_reissues: updates.reissues,
        update_failures: updates.failures,
        audit,
        audit_after,
        unhealthy_final,
        health,
        ramp,
        stats,
        executed_queries,
    }
}

fn ids_of(gc: &mut GraphCachePlus, q: &LabeledGraph, kind: QueryKind) -> Vec<u64> {
    gc.execute(q, kind, QueryBudget::UNLIMITED)
        .answer
        .iter_ones()
        .map(|g| g as u64)
        .collect()
}

/// How one batch of concurrent clients offers load.
#[derive(Clone, Copy)]
struct Load {
    clients: usize,
    queries_per_client: usize,
    retry: RetryPolicy,
}

/// The storms' clients retry transport drops and sheds with backoff.
const STORM_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 4,
    base: Duration::from_millis(5),
    cap: Duration::from_millis(50),
};

/// The ramp's clients never retry, so an overloaded server's `Overloaded`
/// is counted instead of amortized away by backoff.
const NO_RETRY: RetryPolicy = RetryPolicy {
    max_retries: 0,
    base: Duration::from_millis(1),
    cap: Duration::from_millis(1),
};

/// One concurrent query storm: `load.clients` threads, client `c`
/// replaying `load.queries_per_client` Zipf-skewed draws from the pool
/// with rng and jitter streams seeded from `seed + c`, classifying every
/// reply against `truth`.
fn storm(
    addr: SocketAddr,
    pool: &[LabeledGraph],
    truth: &[Vec<u64>],
    kind: QueryKind,
    cfg: &NetChaosConfig,
    load: Load,
    seed: u64,
) -> StormTally {
    let tallies: Vec<StormTally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.clients)
            .map(|c| {
                let seed = seed.wrapping_add(c as u64);
                s.spawn(move || storm_client(addr, pool, truth, kind, cfg, load, seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("storm client thread panicked"))
            .collect()
    });
    let mut total = StormTally::default();
    for t in &tallies {
        total.absorb(t);
    }
    total
}

fn storm_client(
    addr: SocketAddr,
    pool: &[LabeledGraph],
    truth: &[Vec<u64>],
    kind: QueryKind,
    cfg: &NetChaosConfig,
    load: Load,
    seed: u64,
) -> StormTally {
    let mut client = CacheClient::connect(addr)
        .with_policy(load.retry)
        .with_jitter_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(pool.len(), cfg.zipf_alpha);
    let mut t = StormTally::default();
    let latency = Histogram::new();
    for _ in 0..load.queries_per_client {
        let idx = zipf.sample(&mut rng);
        t.requests += 1;
        match client.query(&pool[idx], kind, Some(cfg.deadline)) {
            Ok(reply) => {
                latency.record(reply.elapsed.as_micros().min(u64::MAX as u128) as u64);
                let overrun = reply.elapsed.as_secs_f64() / cfg.deadline.as_secs_f64();
                t.max_overrun = t.max_overrun.max(overrun);
                if overrun > 2.0 {
                    t.hung += 1;
                }
                if reply.baseline_shards > 0 {
                    t.baseline_hits += 1;
                }
                match reply.degraded {
                    // a degraded partial may miss answers, never invent one
                    Some(_) if is_subset(&reply.ids, &truth[idx]) => t.degraded += 1,
                    Some(_) => t.divergent += 1,
                    None if reply.ids == truth[idx] => t.exact += 1,
                    None => t.divergent += 1,
                }
            }
            // explicit failure after retries: allowed, counted, never silent
            Err(e) => {
                t.errors += 1;
                t.shed += usize::from(matches!(e, ClientError::Overloaded));
            }
        }
    }
    t.retries = client.retries_total();
    t.latency = latency.snapshot();
    t
}

/// One offered-load level: a storm of `clients` clients, each issuing
/// [`RAMP_QUERIES_PER_CLIENT`] Zipf draws with retries disabled, so an
/// overloaded server answers `Overloaded` and the level's shed rate is
/// measured rather than amortized away by backoff.
fn ramp_level(
    addr: SocketAddr,
    pool: &[LabeledGraph],
    truth: &[Vec<u64>],
    kind: QueryKind,
    cfg: &NetChaosConfig,
    clients: usize,
    seed: u64,
) -> RampLevel {
    let load = Load {
        clients,
        queries_per_client: RAMP_QUERIES_PER_CLIENT,
        retry: NO_RETRY,
    };
    let t = storm(addr, pool, truth, kind, cfg, load, seed);
    RampLevel {
        clients,
        offered: t.requests,
        completed: t.answered(),
        shed: t.shed,
        errors: t.errors - t.shed,
        divergent: t.divergent,
    }
}

/// Every id in `ids` present in the sorted `truth`.
fn is_subset(ids: &[u64], truth: &[u64]) -> bool {
    ids.iter().all(|id| truth.binary_search(id).is_ok())
}

struct UpdateTally {
    applied: usize,
    reissues: u64,
    failures: usize,
}

/// The serial update phase: alternating edge removals and re-adds through
/// one driver client, each confirmed op mirrored into the oracle so both
/// sides stay byte-identical.
fn run_updates(addr: SocketAddr, oracle: &mut GraphCachePlus, cfg: &NetChaosConfig) -> UpdateTally {
    let mut driver = CacheClient::connect(addr);
    let mut rng = StdRng::seed_from_u64(cfg.scale.seed ^ 0xA11D);
    let mut removed: Vec<(usize, u32, u32)> = Vec::new();
    let mut tally = UpdateTally {
        applied: 0,
        reissues: 0,
        failures: 0,
    };
    for k in 0..cfg.updates {
        let op = if k % 2 == 1 && !removed.is_empty() {
            let (id, u, v) = removed.pop().expect("checked non-empty");
            ChangeOp::Ua { id, u, v }
        } else {
            let candidates: Vec<usize> = oracle
                .store()
                .iter_live()
                .filter(|(_, g)| g.edge_count() > 0)
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                break;
            }
            let id = candidates[rng.random_range(0..candidates.len())];
            let g = oracle.store().get(id).expect("picked live");
            let edges: Vec<_> = g.edges().collect();
            let (u, v) = edges[rng.random_range(0..edges.len())];
            removed.push((id, u, v));
            ChangeOp::Ur { id, u, v }
        };
        // The client never blind-replays updates; but the harness *knows*
        // drop-conn fires before the server decodes the request, so a
        // transport error here means provably-not-applied and the caller's
        // re-issue is sound.
        let mut ok = false;
        for _ in 0..4 {
            let r = match op {
                ChangeOp::Ua { id, u, v } => driver.ua(id as u64, u, v),
                ChangeOp::Ur { id, u, v } => driver.ur(id as u64, u, v),
                _ => unreachable!("update phase only flips edges"),
            };
            match r {
                Ok(_) => {
                    ok = true;
                    break;
                }
                Err(ClientError::Transport(_)) => tally.reissues += 1,
                Err(_) => break,
            }
        }
        if ok {
            oracle.apply(op).expect("mirrored op valid on the oracle");
            tally.applied += 1;
        } else {
            tally.failures += 1;
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> NetChaosConfig {
        let mut cfg = NetChaosConfig::new(Scale {
            dataset_graphs: 40,
            num_queries: 60,
            positive_pool: 20,
            noanswer_pool: 10,
            seed: 0x4E7C,
        });
        cfg.pool_size = 16;
        cfg.clients = 3;
        cfg.queries_per_client = 8;
        cfg.updates = 10;
        cfg
    }

    #[test]
    fn net_chaos_passes_under_builtin_faults() {
        let cfg = tiny_config();
        let report = run_net_chaos(&cfg);
        assert_eq!(report.storm1.divergent, 0, "{report:?}");
        assert_eq!(report.storm2.divergent, 0, "{report:?}");
        assert_eq!(report.storm1.hung + report.storm2.hung, 0, "{report:?}");
        assert!(report.storm1.baseline_hits > 0, "failover never observed");
        assert_eq!(report.storm2.baseline_hits, 0, "shard never rejoined");
        assert!(
            report.health.get(HealthCounter::PanicsRecovered) >= 2,
            "{:?}",
            report.health
        );
        assert!(
            report.storm1.retries + report.storm2.retries + report.update_reissues > 0,
            "drop-conn never exercised a retry"
        );
        assert_eq!(report.update_failures, 0);
        assert!(report.unhealthy_final.is_empty());

        // telemetry invariants: the scrape reconciles with the ledger,
        // client-side histograms saw every answered reply, and the
        // metrics-enabled server recorded latency + stage time
        assert!(report.reconciled(), "{report:?}");
        assert_eq!(
            report.storm1.latency.count as usize,
            report.storm1.answered()
        );
        assert_eq!(report.stats.latency.count, report.stats.queries);
        assert!(report.stats.stages.total() > 0, "{:?}", report.stats.stages);
        assert_eq!(report.ramp.len(), 3);
        for l in &report.ramp {
            assert_eq!(l.offered, l.clients * RAMP_QUERIES_PER_CLIENT);
            assert_eq!(l.completed + l.shed + l.errors, l.offered);
            assert_eq!(l.divergent, 0, "{l:?}");
        }

        assert!(report.passed(), "{report:?}");
        let json = report.to_json();
        assert!(json.contains("\"passed\": true"));
        assert!(json.contains("\"mode\": \"net\""));
        assert!(json.contains("\"reconciled\": true"));
        assert!(json.contains("\"ramp\": ["));
        let metrics = report.metrics_json();
        assert!(metrics.contains("\"reconciled\": true"));
        assert!(metrics.contains("gc_requests_total"));
        assert!(metrics.contains("gc_shard_hits_total"));
    }

    #[test]
    fn fault_free_net_run_is_all_exact_and_baseline_free_after_audit() {
        // No network faults and no corrupt fault — only the always-on
        // double panic on the failover shard.
        let mut cfg = tiny_config();
        cfg.fault_plan = FaultPlan::none();
        let report = run_net_chaos(&cfg);
        assert_eq!(report.storm1.divergent + report.storm2.divergent, 0);
        assert_eq!(report.storm1.errors + report.storm2.errors, 0);
        assert_eq!(report.storm1.retries + report.storm2.retries, 0);
        assert!(report.storm1.baseline_hits > 0);
        assert_eq!(report.storm2.baseline_hits, 0);
        assert!(report.passed(), "{report:?}");
    }
}
