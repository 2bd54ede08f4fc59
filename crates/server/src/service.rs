//! Transport-independent request handling over a [`ShardedGraphCache`]:
//! admission control (bounded per-shard in-flight), deadline
//! materialization, and the update/health/audit operations. The TCP layer
//! in [`crate::server`] is a thin framing shell around [`CacheService`].
//!
//! # Concurrency
//!
//! The service holds no lock of its own: connection threads share the
//! `Sync` cache and synchronise where the data lives (lock order in
//! [`gc_core::sharded`]: routing table before shard, never two shards,
//! never the table while holding a shard). A query holds one shard lock
//! at a time, so concurrent queries pipeline through the shards; UA/UR
//! take the routing table's read lock and their owner's shard lock only.
//! The gate, the counters and the latency histogram are atomics.
//!
//! # Consistency contract
//!
//! An `Answer` is **not a cross-shard snapshot**. Each shard's slice of
//! it is exactly Method M over that shard's partition at that shard's
//! change-log cursor at some instant between request receipt and reply
//! (Theorems 3/6 per shard); the instants of different shards may
//! straddle an update another connection applied in between. An update
//! acknowledged before a request was sent is visible to every slice of
//! its answer.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gc_core::{HealthCounter, HealthSnapshot, QueryBudget, ShardedGraphCache};
use gc_dataset::{ChangeOp, DatasetError};
use gc_telemetry::{Counter, Exposition, Histogram, STAGES};

use crate::protocol::{Request, Response, ServiceStats};

/// Bounded per-shard in-flight accounting. Acquired before any shard lock
/// so load is shed deterministically at admission instead of queueing
/// without bound on a mutex; the permit spans the whole request,
/// including its lock waits.
struct InflightGate {
    slots: Vec<AtomicUsize>,
    depth: usize,
}

impl InflightGate {
    fn new(shards: usize, depth: usize) -> Self {
        InflightGate {
            slots: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            depth: depth.max(1),
        }
    }

    /// Acquires one permit on the given shard slot.
    fn try_acquire(&self, shard: usize) -> Option<GatePermit<'_>> {
        self.try_acquire_range(shard, shard + 1)
    }

    /// Acquires one permit on *every* shard slot (queries fan out to all
    /// shards), all-or-nothing.
    fn try_acquire_all(&self) -> Option<GatePermit<'_>> {
        self.try_acquire_range(0, self.slots.len())
    }

    fn try_acquire_range(&self, from: usize, to: usize) -> Option<GatePermit<'_>> {
        for i in from..to {
            if self.slots[i].fetch_add(1, Ordering::AcqRel) >= self.depth {
                // roll back this and every slot already taken
                for j in from..=i {
                    self.slots[j].fetch_sub(1, Ordering::AcqRel);
                }
                return None;
            }
        }
        Some(GatePermit {
            gate: self,
            from,
            to,
        })
    }
}

/// RAII in-flight permit; releasing is infallible and panic-safe.
struct GatePermit<'a> {
    gate: &'a InflightGate,
    from: usize,
    to: usize,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        for i in self.from..self.to {
            self.gate.slots[i].fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The request handler: one per server, shared across connection threads.
/// A shed request never reaches the cache, but it is recorded on the
/// deployment's one health ([`ShardedGraphCache::health`]).
pub struct CacheService {
    cache: ShardedGraphCache,
    gate: InflightGate,
    default_budget: QueryBudget,
    /// Query requests answered (always on — one relaxed add each).
    queries: Counter,
    /// Update requests applied.
    updates: Counter,
    /// End-to-end request latency in microseconds, anchored at frame
    /// receipt. Recording is gated on the cache config's `metrics` flag.
    latency: Histogram,
}

impl CacheService {
    /// Wraps a pre-built sharded cache. `max_inflight` bounds concurrent
    /// requests per shard; `default_budget` applies to queries that carry
    /// no deadline of their own.
    pub fn new(cache: ShardedGraphCache, max_inflight: usize, default_budget: QueryBudget) -> Self {
        CacheService {
            gate: InflightGate::new(cache.shard_count(), max_inflight),
            cache,
            default_budget,
            queries: Counter::new(),
            updates: Counter::new(),
            latency: Histogram::new(),
        }
    }

    /// Number of shards behind this service.
    pub fn shard_count(&self) -> usize {
        self.cache.shard_count()
    }

    /// The cache behind this service — for assertions and drivers that
    /// need router state or a change the wire does not carry (ADD/DEL).
    pub fn cache(&self) -> &ShardedGraphCache {
        &self.cache
    }

    /// The deployment's health counters: every shard's, the router's and
    /// this service's events, read without a shard lock.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.cache.health_snapshot()
    }

    /// Full telemetry snapshot — what a `Stats` scrape returns.
    pub fn stats(&self) -> ServiceStats {
        let (index_bytes, index_syncs, index_sync_nanos) = self.cache.index_stats();
        ServiceStats {
            queries: self.queries.get(),
            updates: self.updates.get(),
            health: self.health_snapshot(),
            shards: self.cache.shard_stats(),
            latency: self.latency.snapshot(),
            stages: self.cache.stage_totals(),
            index_bytes,
            index_syncs,
            index_sync_nanos,
        }
    }

    /// Shards currently failed over to baseline serving.
    pub fn unhealthy_shards(&self) -> Vec<usize> {
        self.cache.unhealthy_shards()
    }

    /// Handles one decoded request. `received` anchors the deadline clock
    /// (the moment the frame arrived, so server-side queue wait burns the
    /// deadline); `stall_shard` is chaos routing from the fault plan and
    /// affects this request only.
    pub fn handle(&self, req: Request, received: Instant, stall_shard: Option<usize>) -> Response {
        match req {
            Request::Query {
                kind,
                deadline_ms,
                graph,
            } => {
                let Some(_permit) = self.gate.try_acquire_all() else {
                    self.cache.health().add(HealthCounter::LoadShed, 1);
                    // a shed query never reached any shard: every shard's
                    // shed counter advances (the fan-out they did not see)
                    for s in self.cache.shard_counters() {
                        s.shed.inc();
                    }
                    return Response::Overloaded;
                };
                // anchored at receipt: whatever queueing consumed before
                // this point is gone from the budget
                let deadline = if deadline_ms > 0 {
                    Some(Duration::from_millis(u64::from(deadline_ms)))
                } else {
                    self.default_budget.deadline
                };
                let budget = self.default_budget.until(deadline.map(|d| received + d));
                let routed = catch_unwind(AssertUnwindSafe(|| {
                    self.cache.execute(&graph, kind, budget, stall_shard)
                }));
                let rsp = match routed {
                    Ok(routed) => {
                        self.queries.inc();
                        Response::Answer {
                            ids: routed
                                .outcome
                                .answer
                                .iter_ones()
                                .map(|g| g as u64)
                                .collect(),
                            degraded: routed.outcome.metrics.degraded,
                            baseline_shards: routed.baseline_shards,
                        }
                    }
                    // the router contains worker panics itself; a panic
                    // escaping it is a router bug, but the query has not
                    // produced an answer — report rather than wedge
                    Err(_) => Response::Error("query execution panicked".into()),
                };
                if self.cache.config().metrics {
                    self.latency
                        .record(received.elapsed().as_micros().min(u64::MAX as u128) as u64);
                }
                rsp
            }
            Request::Ua { id, u, v } | Request::Ur { id, u, v } => {
                let id = id as usize;
                let op = if matches!(req, Request::Ua { .. }) {
                    ChangeOp::Ua { id, u, v }
                } else {
                    ChangeOp::Ur { id, u, v }
                };
                // admission key: the shard that will do the work. An id
                // nobody owns is refused before it can take a permit.
                let Some(slot) = self.cache.owner_shard(id) else {
                    return update_rejected(DatasetError::NoSuchGraph(id));
                };
                let Some(_permit) = self.gate.try_acquire(slot) else {
                    self.cache.health().add(HealthCounter::LoadShed, 1);
                    self.cache.shard_counters()[slot].shed.inc();
                    return Response::Overloaded;
                };
                match catch_unwind(AssertUnwindSafe(|| self.cache.apply(op))) {
                    Ok(Ok(global)) => {
                        self.updates.inc();
                        Response::Updated { id: global as u64 }
                    }
                    Ok(Err(e)) => update_rejected(e),
                    // panicked twice (the shard retries once), each time before
                    // any mutation: the op did not land, vouch for a retry
                    Err(_) => Response::Retryable("update panicked before mutation".into()),
                }
            }
            Request::Health => Response::Health(self.health_snapshot()),
            Request::Stats => Response::Stats(Box::new(self.stats())),
            Request::Audit {
                sample_permille,
                seed,
            } => {
                let rate = f64::from(sample_permille.min(1000)) / 1000.0;
                Response::Audited(self.cache.audit(rate, seed))
            }
        }
    }
}

fn update_rejected(e: DatasetError) -> Response {
    Response::Error(format!("update rejected: {e:?}"))
}

impl ServiceStats {
    /// Renders the snapshot in Prometheus text exposition format. Metric
    /// names are stable, since dashboards key on them: a name is never
    /// renamed, and leaves only together with the event it counts.
    pub fn render_prometheus(&self) -> String {
        let mut exp = Exposition::new();
        exp.counter("gc_requests_total", &[("kind", "query")], self.queries);
        exp.counter("gc_requests_total", &[("kind", "update")], self.updates);
        for (counter, n) in self.health.iter() {
            exp.counter(&format!("gc_{}_total", counter.name()), &[], n);
        }
        exp.gauge("gc_label_index_bytes", &[], self.index_bytes);
        exp.counter("gc_label_index_syncs_total", &[], self.index_syncs);
        exp.counter(
            "gc_label_index_sync_nanos_total",
            &[],
            self.index_sync_nanos,
        );
        for (i, s) in self.shards.iter().enumerate() {
            let idx = i.to_string();
            let shard = [("shard", idx.as_str())];
            exp.counter("gc_shard_hits_total", &shard, s.hits);
            exp.counter("gc_shard_misses_total", &shard, s.misses);
            exp.counter("gc_shard_evictions_total", &shard, s.evictions);
            exp.gauge("gc_shard_quarantined_entries", &shard, s.quarantined);
            exp.counter("gc_shard_shed_total", &shard, s.shed);
            exp.gauge("gc_log_records", &shard, s.log_records);
        }
        exp.histogram("gc_request_latency_microseconds", &[], &self.latency);
        for stage in STAGES {
            exp.counter(
                "gc_stage_nanos_total",
                &[("stage", stage.name())],
                self.stages.get(stage),
            );
        }
        exp.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_core::GcConfig;
    use gc_graph::LabeledGraph;
    use gc_subiso::QueryKind;

    fn triangle(label: u16) -> LabeledGraph {
        LabeledGraph::from_parts(vec![label; 3], &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    fn service(max_inflight: usize) -> CacheService {
        let data = vec![triangle(0), triangle(1), triangle(0), triangle(2)];
        let cache = ShardedGraphCache::new(GcConfig::default(), data, 2);
        CacheService::new(cache, max_inflight, QueryBudget::UNLIMITED)
    }

    #[test]
    fn query_answers_and_updates_apply() {
        let svc = service(4);
        let q = Request::Query {
            kind: QueryKind::Subgraph,
            deadline_ms: 0,
            graph: triangle(0),
        };
        let Response::Answer { ids, degraded, .. } = svc.handle(q, Instant::now(), None) else {
            panic!("expected answer");
        };
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(degraded, None);

        // removing an edge of graph 0 removes it from the answer
        let rsp = svc.handle(Request::Ur { id: 0, u: 0, v: 1 }, Instant::now(), None);
        assert_eq!(rsp, Response::Updated { id: 0 });
        let q = Request::Query {
            kind: QueryKind::Subgraph,
            deadline_ms: 0,
            graph: triangle(0),
        };
        let Response::Answer { ids, .. } = svc.handle(q, Instant::now(), None) else {
            panic!("expected answer");
        };
        assert_eq!(ids, vec![2]);

        // updates against dead ids are terminal errors, not retryable
        let rsp = svc.handle(Request::Ua { id: 99, u: 0, v: 1 }, Instant::now(), None);
        assert!(matches!(rsp, Response::Error(_)));
    }

    #[test]
    fn saturated_gate_sheds_with_explicit_overloaded() {
        let svc = service(1);
        // consume the only permit on shard 0's slot
        let _held = svc.gate.try_acquire(0).expect("first permit");
        // an update hashing to shard 0 is shed
        let rsp = svc.handle(Request::Ua { id: 0, u: 0, v: 1 }, Instant::now(), None);
        assert_eq!(rsp, Response::Overloaded);
        // a fan-out query needs every slot, including the saturated one
        let rsp = svc.handle(
            Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 0,
                graph: triangle(0),
            },
            Instant::now(),
            None,
        );
        assert_eq!(rsp, Response::Overloaded);
        // but shard 1's slot is free: an update hashing there proceeds
        let rsp = svc.handle(Request::Ur { id: 1, u: 0, v: 1 }, Instant::now(), None);
        assert_eq!(rsp, Response::Updated { id: 1 });
        assert_eq!(svc.health_snapshot().get(HealthCounter::LoadShed), 2);
        // releasing the permit restores query admission
        drop(_held);
        let rsp = svc.handle(
            Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 0,
                graph: triangle(0),
            },
            Instant::now(),
            None,
        );
        assert!(matches!(rsp, Response::Answer { .. }));
    }

    #[test]
    fn stats_counters_track_requests_and_render() {
        let svc = service(4);
        for label in [0u16, 1, 2] {
            let rsp = svc.handle(
                Request::Query {
                    kind: QueryKind::Subgraph,
                    deadline_ms: 0,
                    graph: triangle(label),
                },
                Instant::now(),
                None,
            );
            assert!(matches!(rsp, Response::Answer { .. }));
        }
        let rsp = svc.handle(Request::Ur { id: 0, u: 0, v: 1 }, Instant::now(), None);
        assert!(matches!(rsp, Response::Updated { .. }));
        // one more query so the index replays the UR (sync is lazy,
        // riding the next query's prefilter stage)
        let rsp = svc.handle(
            Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 0,
                graph: triangle(0),
            },
            Instant::now(),
            None,
        );
        assert!(matches!(rsp, Response::Answer { .. }));

        let stats = svc.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.updates, 1);
        // every executed query classifies exactly once per shard
        for s in &stats.shards {
            assert_eq!(s.hits + s.misses, 4);
            assert_eq!(s.shed, 0);
        }
        // default config leaves the latency histogram off
        assert_eq!(stats.latency.count, 0);
        // the default candidate source is the label index: the footprint
        // gauge is live, and the UR above forced an incremental sync
        assert!(stats.index_bytes > 0);
        assert!(stats.index_syncs > 0);

        let text = stats.render_prometheus();
        assert!(text.contains("gc_requests_total{kind=\"query\"} 4"));
        assert!(text.contains("gc_requests_total{kind=\"update\"} 1"));
        assert!(text.contains("gc_shard_hits_total{shard=\"0\"}"));
        assert!(text.contains("gc_request_latency_microseconds_count 0"));
        assert!(text.contains("gc_repairs_applied_total"));
        assert!(text.contains("gc_invalidations_avoided_total"));
        assert!(text.contains("gc_repair_fallbacks_total"));
        assert!(text.contains("gc_label_index_bytes"));
        assert!(text.contains("gc_label_index_syncs_total"));
        assert!(text.contains("gc_label_index_sync_nanos_total"));
        // the UR above is the one record the log holds, on its owner shard
        let owner = svc.cache().owner_shard(0).unwrap();
        assert_eq!(stats.shards[owner].log_records, 1);
        assert!(text.contains(&format!("gc_log_records{{shard=\"{owner}\"}} 1")));
        // every metric family, in render order: a rename is a protocol
        // change and must show up here
        let families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .collect();
        assert_eq!(
            families,
            [
                "gc_requests_total counter",
                "gc_load_shed_total counter",
                "gc_panics_recovered_total counter",
                "gc_quarantined_entries_total counter",
                "gc_degraded_queries_total counter",
                "gc_audit_repairs_total counter",
                "gc_shard_failovers_total counter",
                "gc_baseline_served_total counter",
                "gc_repairs_applied_total counter",
                "gc_invalidations_avoided_total counter",
                "gc_repair_fallbacks_total counter",
                "gc_label_index_bytes gauge",
                "gc_label_index_syncs_total counter",
                "gc_label_index_sync_nanos_total counter",
                "gc_shard_hits_total counter",
                "gc_shard_misses_total counter",
                "gc_shard_evictions_total counter",
                "gc_shard_quarantined_entries gauge",
                "gc_shard_shed_total counter",
                "gc_log_records gauge",
                "gc_request_latency_microseconds histogram",
                "gc_stage_nanos_total counter",
            ]
        );
    }

    #[test]
    fn shed_requests_advance_shard_shed_counters() {
        let svc = service(1);
        let _held = svc.gate.try_acquire(0).expect("first permit");
        let rsp = svc.handle(
            Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 0,
                graph: triangle(0),
            },
            Instant::now(),
            None,
        );
        assert_eq!(rsp, Response::Overloaded);
        let rsp = svc.handle(Request::Ua { id: 0, u: 0, v: 1 }, Instant::now(), None);
        assert_eq!(rsp, Response::Overloaded);
        let stats = svc.stats();
        // the fan-out query shed on every shard; the update only on slot 0
        assert_eq!(stats.shards[0].shed, 2);
        assert_eq!(stats.shards[1].shed, 1);
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.updates, 0);
        // shed never counts as a hit or a miss
        for s in &stats.shards {
            assert_eq!(s.hits + s.misses, 0);
        }
    }

    #[test]
    fn deadline_anchors_at_receipt() {
        let svc = service(4);
        // a request whose 1 ms deadline was already spent before handling
        // (slow frame, queue wait) has no budget left: the answer must
        // come back degraded immediately
        let received = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let t = Instant::now();
        let rsp = svc.handle(
            Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 1,
                graph: triangle(0),
            },
            received,
            None,
        );
        assert!(t.elapsed() < Duration::from_secs(5), "no hang");
        let Response::Answer { degraded, .. } = rsp else {
            panic!("expected answer");
        };
        assert!(degraded.is_some(), "spent deadline must tag the answer");
    }

    #[test]
    fn stalled_shard_degrades_within_deadline() {
        let svc = service(4);
        let t = Instant::now();
        let rsp = svc.handle(
            Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 40,
                graph: triangle(0),
            },
            Instant::now(),
            Some(1),
        );
        let elapsed = t.elapsed();
        assert!(elapsed >= Duration::from_millis(40));
        assert!(elapsed < Duration::from_millis(160), "{elapsed:?}");
        let Response::Answer { degraded, .. } = rsp else {
            panic!("expected answer");
        };
        assert!(degraded.is_some());
        // the stall was per-request: the next query is exact again
        let rsp = svc.handle(
            Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 0,
                graph: triangle(0),
            },
            Instant::now(),
            None,
        );
        let Response::Answer { ids, degraded, .. } = rsp else {
            panic!("expected answer");
        };
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(degraded, None);
    }

    /// A two-shard service whose shard 0 (graph 0, a path 0-1-2) runs
    /// under the given fault plan.
    fn faulted_service(plan: &str) -> CacheService {
        let path = LabeledGraph::from_parts(vec![0; 3], &[(0, 1), (1, 2)]).unwrap();
        let mut cache = ShardedGraphCache::new(GcConfig::default(), vec![path, triangle(1)], 2);
        let plan: gc_core::FaultPlan = plan.parse().unwrap();
        cache.set_fault_injectors(|i| {
            (i == 0).then(|| std::sync::Arc::new(gc_core::FaultInjector::new(plan.clone())))
        });
        CacheService::new(cache, 4, QueryBudget::UNLIMITED)
    }

    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn update_panicking_once_is_retried_inside_the_shard() {
        let svc = faulted_service("panic-update@1");
        let rsp =
            quiet_panics(|| svc.handle(Request::Ua { id: 0, u: 0, v: 2 }, Instant::now(), None));
        assert_eq!(rsp, Response::Updated { id: 0 });
        assert!(svc.cache().get(0).expect("live").has_edge(0, 2));
        assert_eq!(svc.health_snapshot().get(HealthCounter::PanicsRecovered), 1);
    }

    #[test]
    fn update_panicking_twice_is_retryable_and_lands_nothing() {
        let svc = faulted_service("panic-update@1;panic-update@2");
        let rsp =
            quiet_panics(|| svc.handle(Request::Ua { id: 0, u: 0, v: 2 }, Instant::now(), None));
        assert!(matches!(rsp, Response::Retryable(_)), "{rsp:?}");
        assert!(!svc.cache().get(0).expect("live").has_edge(0, 2));
        // the faults are spent: the client's retry lands
        let rsp = svc.handle(Request::Ua { id: 0, u: 0, v: 2 }, Instant::now(), None);
        assert_eq!(rsp, Response::Updated { id: 0 });
    }

    #[test]
    fn each_event_is_counted_once_in_the_health() {
        let svc = faulted_service("panic-query@1");
        let query = |deadline_ms| Request::Query {
            kind: QueryKind::Subgraph,
            deadline_ms,
            graph: triangle(0),
        };
        // shard 0's slot saturated: one query and one update are shed
        let held: Vec<_> = (0..4).map(|_| svc.gate.try_acquire(0).unwrap()).collect();
        assert_eq!(
            svc.handle(query(0), Instant::now(), None),
            Response::Overloaded
        );
        let rsp = svc.handle(Request::Ua { id: 0, u: 0, v: 2 }, Instant::now(), None);
        assert_eq!(rsp, Response::Overloaded);
        drop(held);
        // shard 0's first query panics and its retry answers
        let rsp = quiet_panics(|| svc.handle(query(0), Instant::now(), None));
        assert!(
            matches!(rsp, Response::Answer { degraded: None, .. }),
            "{rsp:?}"
        );
        // shard 1 stalls out the deadline: one degraded slot
        let rsp = svc.handle(query(40), Instant::now(), Some(1));
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
        assert_eq!(
            svc.health_snapshot(),
            [
                (HealthCounter::LoadShed, 2),
                (HealthCounter::PanicsRecovered, 1),
                (HealthCounter::DegradedQueries, 1),
            ]
            .into_iter()
            .collect::<HealthSnapshot>()
        );
    }

    /// The reply to `req`, sent while shard 0's first query sleeps 2 s
    /// inside its shard lock, if it comes within 500 ms.
    fn reply_beside_a_slow_query(
        req: Request,
    ) -> Result<Response, std::sync::mpsc::RecvTimeoutError> {
        use std::time::Duration;
        let svc = faulted_service("delay-query@1:2000");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let slow = Request::Query {
                kind: QueryKind::Subgraph,
                deadline_ms: 0,
                graph: triangle(0),
            };
            scope.spawn(|| svc.handle(slow, Instant::now(), None));
            std::thread::sleep(Duration::from_millis(200));
            let svc = &svc;
            scope.spawn(move || tx.send(svc.handle(req, Instant::now(), None)));
            rx.recv_timeout(Duration::from_millis(500))
        })
    }

    #[test]
    fn health_answers_while_a_query_holds_a_shard_lock() {
        // the health reply reads the lock-free table only
        let rsp = reply_beside_a_slow_query(Request::Health);
        assert!(matches!(rsp, Ok(Response::Health(_))), "{rsp:?}");
    }

    #[test]
    fn stats_answers_while_a_query_holds_a_shard_lock() {
        // the stats reply reads the shards' published gauges and the
        // lock-free health table
        let rsp = reply_beside_a_slow_query(Request::Stats);
        assert!(matches!(rsp, Ok(Response::Stats(_))), "{rsp:?}");
    }

    #[test]
    fn service_is_send_and_sync() {
        // connection threads share it without a lock of its own
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CacheService>();
    }

    #[test]
    fn updates_are_gated_by_their_owner_shard() {
        // 5 graphs on 2 shards, then one ADD: round-robin puts global 5 on
        // shard 0 although 5 % 2 == 1
        let cache = ShardedGraphCache::new(GcConfig::default(), vec![triangle(0); 5], 2);
        let svc = CacheService::new(cache, 1, QueryBudget::UNLIMITED);
        assert_eq!(svc.cache().apply(ChangeOp::Add(triangle(1))), Ok(5));
        assert_eq!(svc.cache().owner_shard(5), Some(0));

        // shard 1 saturated: the update's owner is shard 0, so it proceeds
        let held = svc.gate.try_acquire(1).expect("first permit");
        let rsp = svc.handle(Request::Ur { id: 5, u: 0, v: 1 }, Instant::now(), None);
        assert_eq!(rsp, Response::Updated { id: 5 });
        drop(held);

        // shard 0 saturated: shed, and charged to shard 0
        let _held = svc.gate.try_acquire(0).expect("first permit");
        let rsp = svc.handle(Request::Ua { id: 5, u: 0, v: 1 }, Instant::now(), None);
        assert_eq!(rsp, Response::Overloaded);
        let shed: Vec<u64> = svc.stats().shards.iter().map(|s| s.shed).collect();
        assert_eq!(shed, vec![1, 0]);

        // an id nobody owns is an error before it can take (or be refused)
        // a permit: 6 % 2 == 0 is the saturated slot
        let rsp = svc.handle(Request::Ua { id: 6, u: 0, v: 1 }, Instant::now(), None);
        assert!(matches!(rsp, Response::Error(_)), "{rsp:?}");
        assert_eq!(svc.health_snapshot().get(HealthCounter::LoadShed), 1);
    }
}
