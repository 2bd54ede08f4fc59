//! A sharded (decentralized) GC+ — the paper's §8 future-work item
//! "developing a distributed/decentralized version of GC+", simulated as
//! N independent GC+ instances each owning a dataset partition — and the
//! unit of concurrency of the serving layer: the type is `Send + Sync`,
//! every method takes `&self`, and each shard sits behind its own lock.
//!
//! Design (shared-nothing, the shape a scale-out deployment would take):
//!
//! * the dataset is partitioned round-robin over `n` shards; each shard
//!   runs a complete GC+ (own cache, window, change log, validity
//!   machinery) over its partition;
//! * a *global id* identifies each graph across the deployment; the router
//!   maintains the global↔(shard, local) mapping — local stores never see
//!   global ids, so all per-shard bitset indexing stays dense;
//! * queries visit every shard in the fixed order `0..n` (the answer is a
//!   union, so shards need no coordination); answers are translated back
//!   to global ids and unioned;
//! * dataset changes route to the owning shard (ADD: round-robin).
//!
//! Because subgraph/supergraph answers distribute over disjoint dataset
//! unions, the sharded answer is exactly the single-instance answer —
//! asserted by `tests` below and the cross-crate suite.
//!
//! # Locks
//!
//! Two kinds, std only:
//!
//! * one `Mutex` per shard over everything a query slot touches: the
//!   shard's GC+, its local→global `reverse` map and its failover state;
//! * one `RwLock` over the global→(shard, local) routing table and the
//!   ADD cursor. Only [`apply`](ShardedGraphCache::apply) (write for
//!   ADD/DEL, read for UA/UR) and the id lookups take it — a query never
//!   does.
//!
//! **Lock order: routing table before shard, never two shards, never the
//! table while holding a shard.** A query therefore holds exactly one
//! shard lock at a time (execute, translate local ids, update failover
//! state, release, next shard), and callers pipeline through the shards
//! instead of queueing for a whole fan-out. ADD holds the table's write
//! lock across the shard's store insert and the `reverse` push, so a
//! concurrent slot on that shard sees both or neither. A panic that
//! escapes a slot poisons only that shard's lock, which the next caller
//! recovers with `into_inner`: the panic boundaries inside GC+ leave the
//! shard structurally sound, and a contained panic must never wedge it.
//!
//! # Consistency contract
//!
//! Per shard, the paper's Theorems 3/6 hold as before: a shard's slice of
//! an answer is exactly Method M over that shard's partition at the
//! shard's change-log cursor at the instant the slot held the lock. A
//! fanned-out answer is **not a cross-shard snapshot**: each slice is
//! "Method M at that shard's cursor at some instant between request
//! receipt and reply", and the instants of two shards may straddle an
//! update applied in between. Per graph this still means: membership
//! equals Method M on a state the graph actually had during the request;
//! a change that completed before the request began is always visible.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, RwLock};
use std::time::Duration;

use gc_dataset::{ChangeOp, DatasetError};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::{Interrupt, QueryKind};
use gc_telemetry::{Counter, StageSpans};

use crate::config::GcConfig;
use crate::fault::{HealthSnapshot, QueryBudget, RuntimeHealth};
use crate::metrics::QueryMetrics;
use crate::runtime::baseline_budgeted;
use crate::system::{AuditReport, GraphCachePlus, QueryOutcome};

/// Global graph identifier in a sharded deployment.
pub type GlobalId = usize;

/// A shard whose worker panics this many times is failed over: marked
/// unhealthy and served by cache-less baseline until the auditor clears
/// its quarantine.
pub const PANIC_FAILOVER_THRESHOLD: u32 = 2;

/// How long a stalled shard's slot blocks when the query carries no
/// deadline — a stall must never hang an unlimited-budget request forever.
const STALL_FALLBACK: Duration = Duration::from_millis(100);

/// Everything one query slot touches, behind one lock.
struct Shard {
    cache: GraphCachePlus,
    /// local id → global id.
    reverse: Vec<GlobalId>,
    /// Panics this shard's worker has recovered from since it last
    /// rejoined; reaching [`PANIC_FAILOVER_THRESHOLD`] fails it over.
    panics: u32,
    /// Healthy shards serve through their GC+ cache; unhealthy shards are
    /// served by cache-less baseline (answers stay exact, just slower).
    healthy: bool,
}

/// The part of the router only dataset changes touch.
struct Routing {
    /// global id → (shard, local id); `None` once deleted.
    table: Vec<Option<(usize, usize)>>,
    /// The shard the next ADD lands on.
    next_shard: usize,
}

impl Routing {
    fn locate(&self, global: GlobalId) -> Result<(usize, usize), DatasetError> {
        self.table
            .get(global)
            .copied()
            .flatten()
            .ok_or(DatasetError::NoSuchGraph(global))
    }
}

/// A [`QueryOutcome`] plus how the router produced it.
#[derive(Debug)]
pub struct RoutedOutcome {
    pub outcome: QueryOutcome,
    /// Shards whose slice of the answer came from cache-less baseline
    /// because the shard is failed over.
    pub baseline_shards: u32,
}

/// Always-on per-shard cache-effectiveness counters (relaxed atomics —
/// the serving layer records `shed` through
/// [`shard_counters`](ShardedGraphCache::shard_counters) without a lock).
///
/// `hits + misses` advances by exactly one per query the shard *executed*,
/// which is what lets a scrape reconcile against an external request
/// ledger. Shed requests (rejected before execution) count separately.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Queries where this shard's cache contributed (any hit kind).
    pub hits: Counter,
    /// Queries this shard executed without any cache contribution
    /// (including baseline-served and stalled slots).
    pub misses: Counter,
    /// Requests shed before reaching this shard (serving-layer
    /// backpressure; incremented by the service, not the router).
    pub shed: Counter,
}

/// Point-in-time copy of one shard's counters plus its live gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    /// Cache-contributing queries (see [`ShardStats::hits`]).
    pub hits: u64,
    /// Cache-less executed queries.
    pub misses: u64,
    /// Cache evictions since the shard started.
    pub evictions: u64,
    /// Entries currently under quarantine (a gauge, not a counter).
    pub quarantined: u64,
    /// Requests shed by the serving layer.
    pub shed: u64,
}

impl ShardStatsSnapshot {
    /// Field-wise sum (quarantined is a gauge but sums meaningfully into
    /// "entries quarantined across the deployment").
    pub fn merge(&mut self, other: &ShardStatsSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.quarantined += other.quarantined;
        self.shed += other.shed;
    }
}

/// A round-robin sharded GC+ deployment, shareable across threads.
pub struct ShardedGraphCache {
    shards: Vec<Mutex<Shard>>,
    routing: RwLock<Routing>,
    config: GcConfig,
    /// Routing-layer counters (failovers, baseline serves) — shard-internal
    /// counters live on each shard's own health.
    router_health: RuntimeHealth,
    /// Always-on per-shard hit/miss/shed counters.
    stats: Vec<ShardStats>,
}

impl ShardedGraphCache {
    /// Partitions `initial` round-robin over `shard_count` shards, each
    /// running GC+ with the given configuration. A zero shard count is a
    /// caller bug (asserted in debug builds) and clamps to one shard.
    pub fn new(config: GcConfig, initial: Vec<LabeledGraph>, shard_count: usize) -> Self {
        debug_assert!(shard_count >= 1, "need at least one shard");
        let shard_count = shard_count.max(1);
        let mut partitions: Vec<Vec<LabeledGraph>> = vec![Vec::new(); shard_count];
        let mut table = Vec::with_capacity(initial.len());
        let mut reverse: Vec<Vec<GlobalId>> = vec![Vec::new(); shard_count];
        for (global, g) in initial.into_iter().enumerate() {
            let shard = global % shard_count;
            let local = partitions[shard].len();
            partitions[shard].push(g);
            table.push(Some((shard, local)));
            reverse[shard].push(global);
        }
        ShardedGraphCache {
            shards: partitions
                .into_iter()
                .zip(reverse)
                .map(|(p, reverse)| {
                    Mutex::new(Shard {
                        cache: GraphCachePlus::new(config, p),
                        reverse,
                        panics: 0,
                        healthy: true,
                    })
                })
                .collect(),
            routing: RwLock::new(Routing {
                table,
                next_shard: 0,
            }),
            config,
            router_health: RuntimeHealth::default(),
            stats: (0..shard_count).map(|_| ShardStats::default()).collect(),
        }
    }

    /// Locks one shard. Callers hold at most one shard guard at a time.
    fn shard(&self, shard: usize) -> MutexGuard<'_, Shard> {
        self.shards[shard].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Every shard in turn, one lock at a time.
    fn each_shard(&self) -> impl Iterator<Item = MutexGuard<'_, Shard>> {
        (0..self.shards.len()).map(|i| self.shard(i))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configuration every shard runs with.
    pub fn config(&self) -> &GcConfig {
        &self.config
    }

    /// Total live graphs across shards.
    pub fn live_count(&self) -> usize {
        self.each_shard()
            .map(|s| s.cache.store().live_count())
            .sum()
    }

    /// Applies a change, routing it to the owning shard. Returns the
    /// global id affected (for ADD: the fresh global id).
    ///
    /// ADD/DEL take the routing table's write lock, UA/UR its read lock;
    /// either way the table guard is held across the owning shard's lock,
    /// so a graph cannot be deleted between lookup and update.
    pub fn apply(&self, op: ChangeOp) -> Result<GlobalId, DatasetError> {
        match op {
            ChangeOp::Add(g) => {
                let mut routing = self.routing.write().unwrap_or_else(|e| e.into_inner());
                let shard = routing.next_shard;
                let mut slot = self.shard(shard);
                let local = slot.cache.apply(ChangeOp::Add(g))?;
                routing.next_shard = (shard + 1) % self.shards.len();
                let global = routing.table.len();
                routing.table.push(Some((shard, local)));
                debug_assert_eq!(slot.reverse.len(), local);
                slot.reverse.push(global);
                Ok(global)
            }
            ChangeOp::Del(global) => {
                let mut routing = self.routing.write().unwrap_or_else(|e| e.into_inner());
                let (shard, local) = routing.locate(global)?;
                self.shard(shard).cache.apply(ChangeOp::Del(local))?;
                routing.table[global] = None;
                Ok(global)
            }
            ChangeOp::Ua { id, u, v } => self.apply_edge(id, |id| ChangeOp::Ua { id, u, v }),
            ChangeOp::Ur { id, u, v } => self.apply_edge(id, |id| ChangeOp::Ur { id, u, v }),
        }
    }

    fn apply_edge(
        &self,
        global: GlobalId,
        local_op: impl FnOnce(usize) -> ChangeOp,
    ) -> Result<GlobalId, DatasetError> {
        let routing = self.routing.read().unwrap_or_else(|e| e.into_inner());
        let (shard, local) = routing.locate(global)?;
        self.shard(shard).cache.apply(local_op(local))?;
        Ok(global)
    }

    fn locate(&self, global: GlobalId) -> Result<(usize, usize), DatasetError> {
        self.routing
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .locate(global)
    }

    /// A copy of a live graph, by global id.
    pub fn get(&self, global: GlobalId) -> Option<LabeledGraph> {
        let (shard, local) = self.locate(global).ok()?;
        self.shard(shard).cache.store().get(local).cloned()
    }

    /// Executes a query on every shard under one request `budget` and
    /// unions the translated answers. Metrics are summed across shards
    /// (tests, saved tests, pre-filter skips, direct and exclusion hits)
    /// with the slowest shard's query time (the deployment's critical
    /// path). A flag (`exact_match`, `exact_shortcut`, `empty_shortcut`,
    /// `csm_from_memo`) is set when any shard set it.
    ///
    /// The deadline is shared across the fan-out: each shard gets the
    /// *remaining* budget at the moment its slot starts, so a slow or
    /// contended shard cannot starve the others of their share.
    ///
    /// Per-shard routing:
    /// * healthy → [`GraphCachePlus::execute`], behind the shard's own
    ///   panic boundary: at worst a failing shard contributes a degraded
    ///   partial, tagged in the unioned metrics;
    /// * failed over (unhealthy) → cache-less [`baseline_budgeted`] over
    ///   the shard's store, counted in [`RoutedOutcome::baseline_shards`];
    /// * `stall` (chaos routing: a network partition to that shard) → the
    ///   slot sleeps out the remaining deadline (100 ms without one) and
    ///   contributes a degraded empty partial, without taking the shard's
    ///   lock, so other requests are served as usual.
    ///
    /// Shards whose recoveries accumulate [`PANIC_FAILOVER_THRESHOLD`]
    /// panics are failed over here; [`audit`](Self::audit) rejoins them.
    pub fn execute(
        &self,
        query: &LabeledGraph,
        kind: QueryKind,
        budget: QueryBudget,
        stall: Option<usize>,
    ) -> RoutedOutcome {
        let expiry = budget.expiry();
        let remaining = || budget.until(expiry);
        let mut answer = BitSet::new();
        let mut metrics = QueryMetrics::default();
        let mut baseline_shards = 0u32;
        for (i, stats) in self.stats.iter().enumerate() {
            let out = if stall == Some(i) {
                std::thread::sleep(remaining().deadline.unwrap_or(STALL_FALLBACK));
                QueryOutcome::degraded(Interrupt::Deadline)
            } else {
                let mut slot = self.shard(i);
                let baseline = !slot.healthy;
                let out = catch_unwind(AssertUnwindSafe(|| {
                    if baseline {
                        baseline_budgeted(
                            slot.cache.store(),
                            &self.config.method,
                            query,
                            kind,
                            remaining(),
                        )
                    } else {
                        slot.cache.execute(query, kind, remaining())
                    }
                }))
                // a slot that fails beyond recovery contributes no answers
                .unwrap_or_else(|_| QueryOutcome::degraded(Interrupt::Panic));
                for local in out.answer.iter_ones() {
                    answer.set(slot.reverse[local], true);
                }
                if baseline {
                    baseline_shards += 1;
                    self.router_health.add_baseline_served(1);
                }
                slot.panics = slot
                    .panics
                    .saturating_add(out.metrics.panics_recovered.min(u32::MAX as u64) as u32);
                if slot.healthy && slot.panics >= PANIC_FAILOVER_THRESHOLD {
                    slot.healthy = false;
                    self.router_health.add_shard_failover();
                }
                out
            };
            let m = &out.metrics;
            metrics.subiso_tests += m.subiso_tests;
            metrics.prefilter_skips += m.prefilter_skips;
            metrics.tests_saved += m.tests_saved;
            metrics.candidate_size += m.candidate_size;
            metrics.query_time = metrics.query_time.max(m.query_time);
            metrics.overhead_time += m.overhead_time;
            metrics.validation_time += m.validation_time;
            metrics.panics_recovered += m.panics_recovered;
            metrics.repairs_applied += m.repairs_applied;
            metrics.invalidations_avoided += m.invalidations_avoided;
            metrics.repair_fallbacks += m.repair_fallbacks;
            metrics.csm_from_memo |= m.csm_from_memo;
            metrics.hits.direct_hits += m.hits.direct_hits;
            metrics.hits.exclusion_hits += m.hits.exclusion_hits;
            metrics.hits.exact_match |= m.hits.exact_match;
            metrics.hits.exact_shortcut |= m.hits.exact_shortcut;
            metrics.hits.empty_shortcut |= m.hits.empty_shortcut;
            metrics.spans.merge(&m.spans);
            // every executed query counts exactly once per shard — the
            // invariant a stats scrape reconciles against a request ledger
            if m.hits.is_hit() {
                stats.hits.inc();
            } else {
                stats.misses.inc();
            }
            if metrics.degraded.is_none() {
                // one degraded shard degrades the unioned outcome: the
                // union may be missing that shard's share of the answer
                metrics.degraded = m.degraded;
            }
        }
        RoutedOutcome {
            outcome: QueryOutcome { answer, metrics },
            baseline_shards,
        }
    }

    // Kept only because `benchmark/` calls it (ROADMAP item 1).
    #[doc(hidden)]
    #[deprecated(note = "named by benchmark/ only; call execute")]
    pub fn execute_deadline(
        &self,
        query: &LabeledGraph,
        kind: QueryKind,
        budget: QueryBudget,
    ) -> RoutedOutcome {
        self.execute(query, kind, budget, None)
    }

    /// The shard owning a live global id, if any.
    pub fn owner_shard(&self, global: GlobalId) -> Option<usize> {
        self.locate(global).ok().map(|(shard, _)| shard)
    }

    /// Whether the router currently considers the shard healthy.
    pub fn shard_healthy(&self, shard: usize) -> bool {
        self.shard(shard).healthy
    }

    /// Shards currently failed over to baseline serving.
    pub fn unhealthy_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| !self.shard_healthy(i))
            .collect()
    }

    /// Routing-layer health counters (failovers / baseline serves) —
    /// shard-internal counters are folded by
    /// [`health_snapshot`](Self::health_snapshot).
    pub fn router_health(&self) -> &RuntimeHealth {
        &self.router_health
    }

    /// Sums the fault-tolerance counters across all shards, plus the
    /// routing layer's own counters.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let mut total = self.router_health.snapshot();
        for s in self.each_shard() {
            total.merge(&s.cache.health_snapshot());
        }
        total
    }

    /// Entries currently under quarantine across all shards.
    pub fn quarantined_entries(&self) -> usize {
        self.each_shard()
            .map(|s| s.cache.quarantined_entries())
            .sum()
    }

    /// The live per-shard counters, for layers that must record (e.g.
    /// shed) without taking a shard's lock.
    pub fn shard_counters(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Point-in-time per-shard counters, with live eviction/quarantine
    /// gauges folded in from each shard.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.each_shard()
            .zip(&self.stats)
            .map(|(shard, stats)| ShardStatsSnapshot {
                hits: stats.hits.get(),
                misses: stats.misses.get(),
                evictions: shard.cache.evictions(),
                quarantined: shard.cache.quarantined_entries() as u64,
                shed: stats.shed.get(),
            })
            .collect()
    }

    /// Folded label-index gauges across shards: `(resident bytes,
    /// non-empty syncs, cumulative sync nanoseconds)`. All zero when the
    /// candidate source is the linear scan.
    pub fn index_stats(&self) -> (u64, u64, u64) {
        let mut bytes = 0u64;
        let mut syncs = 0u64;
        let mut nanos = 0u64;
        for s in self.each_shard() {
            if let Some(idx) = s.cache.label_index() {
                bytes += idx.memory_bytes();
                syncs += idx.syncs();
                nanos += idx.sync_nanos();
            }
        }
        (bytes, syncs, nanos)
    }

    /// Pipeline-stage wall time summed across all shards (all-zero unless
    /// the configuration enables tracing).
    pub fn stage_totals(&self) -> StageSpans {
        let mut total = StageSpans::default();
        for s in self.each_shard() {
            total.merge(&s.cache.stage_totals());
        }
        total
    }

    /// Runs the consistency auditor on every shard (repair mode), folding
    /// the per-shard reports. Shard `i` audits with seed `seed + i` so
    /// samples stay deterministic but uncorrelated.
    pub fn audit(&self, sample_rate: f64, seed: u64) -> AuditReport {
        let mut total = AuditReport::default();
        for (i, mut s) in self.each_shard().enumerate() {
            let r = s.cache.audit(sample_rate, seed.wrapping_add(i as u64));
            total.sampled += r.sampled;
            total.clean += r.clean;
            total.repaired += r.repaired;
            total.evicted += r.evicted;
            // a failed-over shard rejoins once the audit leaves it with no
            // quarantined knowledge: everything it serves from here is clean
            if !s.healthy && s.cache.quarantined_entries() == 0 {
                s.healthy = true;
                s.panics = 0;
            }
        }
        total
    }

    /// Installs fault injectors per shard (chaos testing); shard `i` gets
    /// `make(i)`.
    pub fn set_fault_injectors(
        &mut self,
        mut make: impl FnMut(usize) -> Option<std::sync::Arc<crate::fault::FaultInjector>>,
    ) {
        for (i, s) in self.shards.iter_mut().enumerate() {
            if let Some(inj) = make(i) {
                s.get_mut()
                    .unwrap_or_else(|e| e.into_inner())
                    .cache
                    .set_fault_injector(inj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheModel;
    use gc_graph::generate::random_connected_graph;
    use gc_subiso::Algorithm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;
    use std::time::Instant;

    fn dataset(n: usize, seed: u64) -> Vec<LabeledGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let v = rng.random_range(4..10usize);
                random_connected_graph(&mut rng, v, 2, |r| r.random_range(0..3u16))
            })
            .collect()
    }

    fn query(data: &[LabeledGraph], seed: u64) -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        gc_graph::generate::bfs_extract(&mut rng, &data[0], 0, 3).expect("extractable")
    }

    #[test]
    fn sharded_answers_equal_single_instance() {
        let data = dataset(23, 1);
        let q = query(&data, 2);
        let mut single = GraphCachePlus::new(GcConfig::default(), data.clone());
        for shards in [1usize, 2, 3, 5] {
            let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), shards);
            assert_eq!(sharded.shard_count(), shards);
            let got = sharded
                .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
                .outcome;
            let expected = single.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
            assert_eq!(got.answer, expected.answer, "{shards} shards");
        }
    }

    #[test]
    fn routed_metrics_fold_hits_and_prefilter_skips() {
        let data = dataset(23, 1);
        let q = query(&data, 2);
        let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 2);
        let first = sharded
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
            .outcome
            .metrics;
        assert!(!first.hits.exact_shortcut);
        let again = sharded
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
            .outcome
            .metrics;
        assert!(again.hits.exact_match && again.hits.exact_shortcut);
        assert!(again.hits.direct_hits >= 2, "one twin per shard");

        // the paper's full scan pre-filters candidates; the index does not
        let paper = GcConfig::paper(Algorithm::Vf2Plus, CacheModel::Con);
        let mut single = GraphCachePlus::new(paper, data.clone());
        let sharded = ShardedGraphCache::new(paper, data, 2);
        let got = sharded
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
            .outcome
            .metrics;
        let expected = single
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
            .metrics;
        assert!(expected.prefilter_skips > 0);
        assert_eq!(got.prefilter_skips, expected.prefilter_skips);
        assert_eq!(got.subiso_tests, expected.subiso_tests);
    }

    #[test]
    fn changes_route_correctly() {
        let data = dataset(10, 3);
        let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 3);
        assert_eq!(sharded.live_count(), 10);

        // delete global 4, add a new graph, flip an edge on global 7
        sharded.apply(ChangeOp::Del(4)).unwrap();
        assert_eq!(sharded.live_count(), 9);
        assert!(sharded.get(4).is_none());
        assert!(matches!(
            sharded.apply(ChangeOp::Del(4)),
            Err(DatasetError::NoSuchGraph(4))
        ));

        let new_global = sharded.apply(ChangeOp::Add(data[0].clone())).unwrap();
        assert_eq!(new_global, 10);
        assert_eq!(sharded.live_count(), 10);
        assert!(sharded.get(10).is_some());

        let g7 = sharded.get(7).expect("live");
        let (u, v) = g7.edges().next().expect("has edges");
        sharded.apply(ChangeOp::Ur { id: 7, u, v }).unwrap();
        assert!(!sharded.get(7).expect("live").has_edge(u, v));
    }

    #[test]
    fn sharded_stays_exact_under_churn() {
        let data = dataset(18, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 3);
        // mirror state in a flat store for ground truth
        let mut flat = GraphCachePlus::new(GcConfig::default(), data.clone());

        for step in 0..40 {
            if step % 5 == 4 {
                let global = rng.random_range(0..data.len());
                if let Some(g) = sharded.get(global) {
                    let first_edge = g.edges().next();
                    if let Some((u, v)) = first_edge {
                        sharded.apply(ChangeOp::Ur { id: global, u, v }).unwrap();
                        flat.apply(ChangeOp::Ur { id: global, u, v }).unwrap();
                    }
                }
            }
            let q = query(&data, 100 + step);
            let got = sharded
                .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
                .outcome;
            let expected = flat.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
            assert_eq!(got.answer, expected.answer, "step {step}");
            // fan-out runs the union of all shard candidate sets
            assert_eq!(got.metrics.candidate_size, expected.metrics.candidate_size);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_asserts_in_debug() {
        let _ = ShardedGraphCache::new(GcConfig::default(), Vec::new(), 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn zero_shards_clamps_in_release() {
        let data = dataset(4, 11);
        let sharded = ShardedGraphCache::new(GcConfig::default(), data, 0);
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.live_count(), 4);
    }

    #[test]
    fn panicking_shard_is_contained() {
        use crate::fault::FaultInjector;
        let data = dataset(12, 9);
        let q = query(&data, 10);
        let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
        let expected = oracle
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
            .answer;
        let mut sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 3);
        // shard 1 panics on its first query; the other shards are clean
        sharded.set_fault_injectors(|i| {
            (i == 1).then(|| Arc::new(FaultInjector::new("panic-query@1".parse().unwrap())))
        });
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = sharded
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
            .outcome;
        std::panic::set_hook(prev);
        assert_eq!(out.answer, expected);
        assert!(out.metrics.degraded.is_none(), "retry recovered exactly");
        assert_eq!(out.metrics.panics_recovered, 1);
        assert_eq!(sharded.health_snapshot().panics_recovered, 1);
        // auditing clears whatever the recovery quarantined
        sharded.audit(1.0, 5);
        assert_eq!(sharded.quarantined_entries(), 0);
        // one contained panic stays below the failover threshold
        assert!(sharded.shard_healthy(1));
    }

    #[test]
    fn twice_panicking_shard_fails_over_to_baseline_until_audit() {
        use crate::fault::FaultInjector;
        let data = dataset(15, 13);
        let q = query(&data, 14);
        let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
        let expected = oracle
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
            .answer;

        let mut sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 3);
        // shard 1's first query panics, and so does the isolation retry
        sharded.set_fault_injectors(|i| {
            (i == 1).then(|| {
                Arc::new(FaultInjector::new(
                    "panic-query@1;panic-query@2".parse().unwrap(),
                ))
            })
        });
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let first = sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        std::panic::set_hook(prev);
        // the double panic resolved through the shard's own baseline
        // fallback, so the answer is still exact — and the shard is now
        // failed over at the routing layer
        assert_eq!(first.outcome.answer, expected);
        assert_eq!(
            first.baseline_shards, 0,
            "failover starts on the *next* query"
        );
        assert!(!sharded.shard_healthy(1));
        assert_eq!(sharded.unhealthy_shards(), vec![1]);
        assert_eq!(sharded.health_snapshot().shard_failovers, 1);

        // while failed over, shard 1's slice is served by router baseline:
        // exact answers, no cache exposure
        let second = sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        assert_eq!(second.outcome.answer, expected);
        assert!(second.outcome.metrics.degraded.is_none());
        assert_eq!(second.baseline_shards, 1);
        assert!(sharded.health_snapshot().baseline_served >= 1);

        // a full audit clears the quarantine and rejoins the shard
        sharded.audit(1.0, 7);
        assert_eq!(sharded.quarantined_entries(), 0);
        assert!(sharded.shard_healthy(1));
        let third = sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        assert_eq!(third.outcome.answer, expected);
        assert_eq!(third.baseline_shards, 0);
    }

    #[test]
    fn shard_counters_reconcile_with_executed_queries() {
        let data = dataset(20, 21);
        let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 3);
        let queries = 7u64;
        for i in 0..queries {
            let q = query(&data, 200 + i);
            sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        }
        let stats = sharded.shard_stats();
        assert_eq!(stats.len(), 3);
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(
                s.hits + s.misses,
                queries,
                "shard {i}: every executed query is classified exactly once"
            );
            assert_eq!(s.shed, 0, "nothing sheds without a serving layer");
        }
        // repeated queries hit: at least one shard saw a cache hit by now
        let q = query(&data, 200);
        sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        let after = sharded.shard_stats();
        assert!(
            after.iter().map(|s| s.hits).sum::<u64>() > 0,
            "a repeated query must register as a hit somewhere"
        );
        // merge folds field-wise
        let mut total = ShardStatsSnapshot::default();
        for s in &after {
            total.merge(s);
        }
        assert_eq!(total.hits + total.misses, (queries + 1) * 3);
        // the serving layer records shed straight on the live counters
        sharded.shard_counters()[1].shed.inc();
        assert_eq!(sharded.shard_stats()[1].shed, 1);
    }

    #[test]
    fn stalled_shard_burns_deadline_and_degrades() {
        let data = dataset(12, 17);
        let q = query(&data, 18);
        let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
        let expected = oracle
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
            .answer;

        let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 2);
        let budget = QueryBudget {
            deadline: Some(Duration::from_millis(30)),
            max_tests: None,
        };
        let t = Instant::now();
        let routed = sharded.execute(&q, QueryKind::Subgraph, budget, Some(1));
        let elapsed = t.elapsed();
        assert!(
            elapsed >= Duration::from_millis(30),
            "stall burns the deadline"
        );
        assert!(
            elapsed < Duration::from_millis(30) * 4,
            "a stall must not hang past the deadline's order of magnitude: {elapsed:?}"
        );
        assert_eq!(
            routed.outcome.metrics.degraded,
            Some(Interrupt::Deadline),
            "the stalled slot is explicitly degraded"
        );
        // the answer is sound: a subset of the true answer (missing at
        // most the stalled shard's share)
        for g in routed.outcome.answer.iter_ones() {
            assert!(expected.get(g), "unsound positive {g}");
        }
        assert!(sharded.shard_healthy(1), "stall is not a panic failover");

        // the stall was that request's alone: the next one is exact
        let clean = sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        assert_eq!(clean.outcome.answer, expected);
        assert!(clean.outcome.metrics.degraded.is_none());
    }

    #[test]
    fn stalled_shard_without_deadline_waits_the_fallback() {
        let data = dataset(12, 17);
        let q = query(&data, 18);
        let mut oracle = GraphCachePlus::new(GcConfig::default(), data.clone());
        let expected = oracle
            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
            .answer;

        let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 2);
        let t = Instant::now();
        let routed = sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, Some(1));
        let elapsed = t.elapsed();
        assert!(elapsed >= STALL_FALLBACK, "the stall blocks: {elapsed:?}");
        assert!(
            elapsed < STALL_FALLBACK * 4,
            "an unlimited request must not hang on a stall: {elapsed:?}"
        );
        assert_eq!(routed.outcome.metrics.degraded, Some(Interrupt::Deadline));
        for g in routed.outcome.answer.iter_ones() {
            assert!(expected.get(g), "unsound positive {g}");
        }

        let clean = sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        assert_eq!(clean.outcome.answer, expected);
        assert!(clean.outcome.metrics.degraded.is_none());
    }

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    #[test]
    fn concurrent_clients_share_one_cache() {
        let dataset = vec![
            g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
            g(vec![0, 0], &[(0, 1)]),
            g(vec![1, 1], &[(0, 1)]),
        ];
        let shared = Arc::new(ShardedGraphCache::new(GcConfig::default(), dataset, 1));

        let mut handles = Vec::new();
        for t in 0..4 {
            let cache = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                let q = if t % 2 == 0 {
                    g(vec![0, 0], &[(0, 1)])
                } else {
                    g(vec![1, 1], &[(0, 1)])
                };
                let mut answers = Vec::new();
                for _ in 0..10 {
                    answers.push(
                        cache
                            .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
                            .outcome
                            .answer,
                    );
                }
                // all runs of the same query agree
                assert!(answers.windows(2).all(|w| w[0] == w[1]));
                answers.pop().expect("ran 10 queries")
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results[0].iter_ones().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(results[1].iter_ones().collect::<Vec<_>>(), vec![2]);
        let stats = shared.shard_stats()[0];
        assert_eq!(stats.hits + stats.misses, 40);
        // 40 executions of 2 distinct queries → hits dominate
        assert!(stats.hits >= 36);
    }

    #[test]
    fn changes_interleave_with_queries() {
        let dataset = vec![g(vec![0, 0], &[(0, 1)])];
        let shared = ShardedGraphCache::new(GcConfig::default(), dataset, 1);
        let q = g(vec![0, 0], &[(0, 1)]);
        assert_eq!(
            shared
                .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
                .outcome
                .answer
                .count_ones(),
            1
        );
        shared
            .apply(ChangeOp::Add(g(vec![0, 0, 0], &[(0, 1), (1, 2)])))
            .unwrap();
        assert_eq!(
            shared
                .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
                .outcome
                .answer
                .count_ones(),
            2
        );
    }
}
