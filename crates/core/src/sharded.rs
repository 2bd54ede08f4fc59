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
//!
//! # Counters
//!
//! The deployment has one [`RuntimeHealth`], and each event is written to
//! it once: by a shard's GC+ (its queries, updates, quarantines, audits),
//! by the router (failovers, baseline serves, the slots it serves itself)
//! or by the serving layer (shed requests, through
//! [`health`](ShardedGraphCache::health)). A scrape reads it without a
//! shard lock, so it never waits behind a query.
//!
//! What a scrape reads of a shard's GC+ (evictions, quarantined entries,
//! retained log records, the label index's bytes and syncs, the stage
//! spans) is published into the shard's [`ShardStats`] gauges under the
//! shard's lock after every query, update and audit, so
//! [`shard_stats`](ShardedGraphCache::shard_stats),
//! [`index_stats`](ShardedGraphCache::index_stats) and
//! [`stage_totals`](ShardedGraphCache::stage_totals) take no shard lock
//! either.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

use gc_dataset::{ChangeOp, DatasetError};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::{Interrupt, QueryKind};
use gc_telemetry::{Counter, Gauge, StageGauges, StageSpans};

use crate::config::GcConfig;
use crate::fault::{HealthCounter, HealthSnapshot, QueryBudget, RuntimeHealth};
use crate::metrics::QueryMetrics;
use crate::runtime::baseline_budgeted;
use crate::system::{AuditReport, GraphCachePlus, MemoryLedger, QueryOutcome};

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

/// Always-on per-shard cache-effectiveness counters, and gauges of what a
/// scrape reads of the shard's GC+, published under the shard's lock
/// (relaxed atomics — the serving layer records `shed` through
/// [`shard_counters`](ShardedGraphCache::shard_counters), and a scrape
/// reads them, without a lock).
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
    /// Change-log records the shard's GC+ still holds (where a query's
    /// maintenance forgets, an update appends).
    pub log_records: Gauge,
    /// Cache evictions since the shard started.
    pub(crate) evictions: Gauge,
    /// Entries under quarantine.
    pub(crate) quarantined: Gauge,
    /// The label index's resident bytes (0 under the live scan).
    pub(crate) index_bytes: Gauge,
    /// Non-empty label-index syncs.
    pub(crate) index_syncs: Gauge,
    /// Cumulative wall time of those syncs, in nanoseconds.
    pub(crate) index_sync_nanos: Gauge,
    /// The pipeline-stage wall time the shard's GC+ has recorded.
    pub(crate) stages: StageGauges,
}

impl ShardStats {
    /// The gauges of a shard's freshly built GC+.
    fn of(cache: &GraphCachePlus) -> ShardStats {
        let stats = ShardStats::default();
        if let Some(idx) = cache.label_index() {
            stats.index_bytes.set(idx.memory_bytes());
        }
        stats.publish(cache, true);
        stats
    }

    /// Republishes every gauge from the shard's GC+: called under the
    /// shard's lock after each query, update and audit, whatever moved.
    /// Two recounts walk a whole structure, so they run only when their
    /// value can have moved: the quarantined entries after a contained
    /// panic (`panicked`, the only way in) or while any are quarantined
    /// (an audit or an eviction lets them out), and the index's bytes
    /// after a sync that replayed records (the only way an index
    /// changes).
    fn publish(&self, cache: &GraphCachePlus, panicked: bool) {
        self.log_records.set(cache.log_retained() as u64);
        self.evictions.set(cache.evictions());
        if panicked || self.quarantined.get() > 0 {
            self.quarantined.set(cache.quarantined_entries() as u64);
        }
        if let Some(idx) = cache.label_index() {
            if idx.syncs() != self.index_syncs.get() {
                self.index_syncs.set(idx.syncs());
                self.index_sync_nanos.set(idx.sync_nanos());
                self.index_bytes.set(idx.memory_bytes());
            }
        }
        self.stages.set(&cache.stage_totals());
    }

    /// The counters and gauges as they stand.
    fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            quarantined: self.quarantined.get(),
            shed: self.shed.get(),
            log_records: self.log_records.get(),
        }
    }
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
    /// Change-log records retained (a gauge, see
    /// [`ShardStats::log_records`]).
    pub log_records: u64,
}

impl ShardStatsSnapshot {
    /// Field-wise sum (quarantined and log_records are gauges but sum
    /// meaningfully into deployment-wide totals).
    pub fn merge(&mut self, other: &ShardStatsSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.quarantined += other.quarantined;
        self.shed += other.shed;
        self.log_records += other.log_records;
    }
}

/// A round-robin sharded GC+ deployment, shareable across threads.
pub struct ShardedGraphCache {
    shards: Vec<Mutex<Shard>>,
    routing: RwLock<Routing>,
    config: GcConfig,
    /// The deployment's one health (see the module docs).
    health: Arc<RuntimeHealth>,
    /// Always-on per-shard counters and published gauges.
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
        let health = Arc::new(RuntimeHealth::default());
        let mut shards: Vec<Mutex<Shard>> = partitions
            .into_iter()
            .zip(reverse)
            .map(|(p, reverse)| {
                Mutex::new(Shard {
                    cache: GraphCachePlus::with_health(config, p, Arc::clone(&health)),
                    reverse,
                    panics: 0,
                    healthy: true,
                })
            })
            .collect();
        let stats = shards
            .iter_mut()
            .map(|s| ShardStats::of(&s.get_mut().expect("no thread has seen this lock").cache))
            .collect();
        ShardedGraphCache {
            shards,
            routing: RwLock::new(Routing {
                table,
                next_shard: 0,
            }),
            config,
            health,
            stats,
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
                let local = self.apply_on(shard, &mut slot, ChangeOp::Add(g))?;
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
                self.apply_on(shard, &mut self.shard(shard), ChangeOp::Del(local))?;
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
        self.apply_on(shard, &mut self.shard(shard), local_op(local))?;
        Ok(global)
    }

    /// Applies a local change on a locked shard and republishes its
    /// gauges.
    fn apply_on(
        &self,
        shard: usize,
        slot: &mut Shard,
        op: ChangeOp,
    ) -> Result<usize, DatasetError> {
        let applied = slot.cache.apply(op);
        self.stats[shard].publish(&slot.cache, false);
        applied
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
    /// unions the translated answers. The shards' metrics are folded by
    /// `QueryMetrics::merge`: sums, the slowest shard's query time (the
    /// deployment's critical path), a flag set when any shard set it.
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
    /// A healthy shard's GC+ counts its own slot on the deployment's
    /// health; the router counts the slots it serves itself (stalled,
    /// failed over).
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
            let (out, counted) = if stall == Some(i) {
                std::thread::sleep(remaining().deadline.unwrap_or(STALL_FALLBACK));
                (QueryOutcome::degraded(Interrupt::Deadline), false)
            } else {
                let mut slot = self.shard(i);
                let baseline = !slot.healthy;
                let served = catch_unwind(AssertUnwindSafe(|| {
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
                }));
                // a healthy shard's GC+ counted the outcome it returned
                let counted = !baseline && served.is_ok();
                let panicked = served
                    .as_ref()
                    .map_or(true, |out| out.metrics.panics_recovered > 0);
                stats.publish(&slot.cache, panicked);
                // a slot that fails beyond recovery contributes no answers
                let out = served.unwrap_or_else(|_| QueryOutcome::degraded(Interrupt::Panic));
                for local in out.answer.iter_ones() {
                    answer.set(slot.reverse[local], true);
                }
                if baseline {
                    baseline_shards += 1;
                    self.health.add(HealthCounter::BaselineServed, 1);
                }
                slot.panics = slot
                    .panics
                    .saturating_add(out.metrics.panics_recovered.min(u32::MAX as u64) as u32);
                if slot.healthy && slot.panics >= PANIC_FAILOVER_THRESHOLD {
                    slot.healthy = false;
                    self.health.add(HealthCounter::ShardFailovers, 1);
                }
                (out, counted)
            };
            if !counted {
                // the router served this slot itself (a stall, a failed-over
                // shard's baseline, a panic out of the shard): it counts it
                self.health.record_query(&out.metrics);
            }
            // every executed query counts exactly once per shard — the
            // invariant a stats scrape reconciles against a request ledger
            if out.metrics.hits.is_hit() {
                stats.hits.inc();
            } else {
                stats.misses.inc();
            }
            metrics.merge(&out.metrics);
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

    /// The deployment's one health, for layers that record on it (the
    /// serving layer's shed requests).
    pub fn health(&self) -> &RuntimeHealth {
        &self.health
    }

    /// Point-in-time copy of the deployment's one health. Takes no shard
    /// lock.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.health.snapshot()
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

    /// Point-in-time per-shard counters and gauges. Takes no shard lock.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.stats.iter().map(ShardStats::snapshot).collect()
    }

    /// Folded label-index gauges across shards: `(resident bytes,
    /// non-empty syncs, cumulative sync nanoseconds)`. All zero when the
    /// candidate source is the linear scan. Takes no shard lock.
    pub fn index_stats(&self) -> (u64, u64, u64) {
        self.stats
            .iter()
            .fold((0, 0, 0), |(bytes, syncs, nanos), s| {
                (
                    bytes + s.index_bytes.get(),
                    syncs + s.index_syncs.get(),
                    nanos + s.index_sync_nanos.get(),
                )
            })
    }

    /// The bytes every shard holds, by owner, summed (one shard lock at
    /// a time).
    pub fn memory_bytes(&self) -> MemoryLedger {
        let mut total = MemoryLedger::default();
        for s in self.each_shard() {
            total.merge(&s.cache.memory_bytes());
        }
        total
    }

    /// Pipeline-stage wall time summed across all shards (all-zero unless
    /// the configuration enables tracing). Takes no shard lock.
    pub fn stage_totals(&self) -> StageSpans {
        let mut total = StageSpans::default();
        for s in &self.stats {
            total.merge(&s.stages.get());
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
            self.stats[i].publish(&s.cache, false);
            total.merge(&r);
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
        assert_eq!(
            sharded
                .health_snapshot()
                .get(HealthCounter::PanicsRecovered),
            1
        );
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
        assert_eq!(
            sharded.health_snapshot().get(HealthCounter::ShardFailovers),
            1
        );

        // while failed over, shard 1's slice is served by router baseline:
        // exact answers, no cache exposure
        let second = sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        assert_eq!(second.outcome.answer, expected);
        assert!(second.outcome.metrics.degraded.is_none());
        assert_eq!(second.baseline_shards, 1);
        assert!(sharded.health_snapshot().get(HealthCounter::BaselineServed) >= 1);

        // a capped query while failed over: shard 1's baseline slot runs
        // out of tests, and the router counts that degradation beside what
        // the healthy shards' GC+ counted for themselves
        let capped = QueryBudget {
            deadline: None,
            max_tests: Some(1),
        };
        let third = sharded.execute(&q, QueryKind::Subgraph, capped, None);
        assert_eq!(third.baseline_shards, 1);
        assert!(third.outcome.metrics.degraded.is_some());
        let by_shards: u64 = sharded
            .each_shard()
            .map(|s| s.cache.aggregate_metrics().degraded_queries)
            .sum();
        assert_eq!(
            sharded
                .health_snapshot()
                .get(HealthCounter::DegradedQueries),
            by_shards + 1,
            "the failed-over slot's degradation is counted once"
        );

        // a full audit clears the quarantine and rejoins the shard
        sharded.audit(1.0, 7);
        assert_eq!(sharded.quarantined_entries(), 0);
        assert!(sharded.shard_healthy(1));
        let rejoined = sharded.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None);
        assert_eq!(rejoined.outcome.answer, expected);
        assert_eq!(rejoined.baseline_shards, 0);
    }

    #[test]
    fn health_snapshot_takes_no_shard_lock() {
        let data = dataset(6, 23);
        let sharded = ShardedGraphCache::new(GcConfig::default(), data.clone(), 2);
        // global 0 lives on shard 0: its UR is the one record shard 0 holds
        let (u, v) = data[0].edges().next().expect("connected");
        sharded.apply(ChangeOp::Ur { id: 0, u, v }).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let guard = sharded.shard(0);
            let reader = &sharded;
            scope.spawn(move || {
                let records = reader.shard_counters().iter().map(|s| s.log_records.get());
                tx.send((reader.health_snapshot(), records.collect::<Vec<_>>()))
            });
            let scraped = rx.recv_timeout(Duration::from_secs(1));
            drop(guard);
            let (_, records) = scraped.expect("the scrape waited behind a shard lock");
            assert_eq!(records, [1, 0]);
        });
    }

    /// What a scrape reads, read from each shard's GC+ under its lock.
    fn locked_read(
        sharded: &ShardedGraphCache,
    ) -> (Vec<ShardStatsSnapshot>, (u64, u64, u64), StageSpans) {
        let (mut shards, mut index, mut stages) = (Vec::new(), (0, 0, 0), StageSpans::default());
        for (s, stats) in sharded.each_shard().zip(&sharded.stats) {
            shards.push(ShardStatsSnapshot {
                hits: stats.hits.get(),
                misses: stats.misses.get(),
                evictions: s.cache.evictions(),
                quarantined: s.cache.quarantined_entries() as u64,
                shed: stats.shed.get(),
                log_records: s.cache.log_retained() as u64,
            });
            if let Some(idx) = s.cache.label_index() {
                index.0 += idx.memory_bytes();
                index.1 += idx.syncs();
                index.2 += idx.sync_nanos();
            }
            stages.merge(&s.cache.stage_totals());
        }
        (shards, index, stages)
    }

    #[test]
    fn published_gauges_equal_a_locked_read_after_a_mixed_run() {
        use crate::fault::FaultInjector;
        let data = dataset(24, 31);
        let config = GcConfig {
            cache_capacity: 6,
            window_capacity: 2,
            trace: true,
            ..GcConfig::default()
        };
        let mut sharded = ShardedGraphCache::new(config, data.clone(), 2);
        // shard 0's sixth query panics once, and its retry runs after the
        // entries the query could have touched are quarantined
        sharded.set_fault_injectors(|i| {
            (i == 0).then(|| Arc::new(FaultInjector::new("panic-query@6".parse().unwrap())))
        });
        let published =
            |s: &ShardedGraphCache| (s.shard_stats(), s.index_stats(), s.stage_totals());
        assert_eq!(published(&sharded), locked_read(&sharded), "as built");
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut quarantined = 0;
        for i in 0..40u64 {
            // each query twice in a row: the panicking sixth finds the
            // fifth's entry to quarantine
            let k = i / 2;
            let kind = if k % 5 == 4 {
                QueryKind::Supergraph
            } else {
                QueryKind::Subgraph
            };
            // queries from every graph, so that admissions evict
            let mut rng = StdRng::seed_from_u64(300 + k);
            let source = &data[(k as usize * 5) % data.len()];
            let q = gc_graph::generate::bfs_extract(&mut rng, source, 0, 2 + k as usize % 3)
                .expect("extractable");
            sharded.execute(&q, kind, QueryBudget::UNLIMITED, None);
            // every sixth op removes a graph's first edge, three ops later
            // it comes back
            let id = (i / 6) as usize;
            let (u, v) = data[id].edges().next().expect("connected");
            match i % 6 {
                0 => sharded.apply(ChangeOp::Ur { id, u, v }).map(drop).unwrap(),
                3 => sharded.apply(ChangeOp::Ua { id, u, v }).map(drop).unwrap(),
                _ => {}
            }
            let read = locked_read(&sharded);
            quarantined = quarantined.max(read.0.iter().map(|s| s.quarantined).sum());
            assert_eq!(published(&sharded), read, "after op {i}");
        }
        std::panic::set_hook(prev);
        sharded.audit(0.5, 3);
        assert_eq!(
            published(&sharded),
            locked_read(&sharded),
            "after the audit"
        );
        let (shards, (bytes, syncs, _), stages) = published(&sharded);
        // every gauge moved, so the equalities above compared something
        assert!(quarantined > 0, "the contained panic quarantined nothing");
        assert!(shards.iter().all(|s| s.evictions > 0 && s.log_records > 0));
        assert!(
            shards.iter().all(|s| s.quarantined == 0),
            "the audit cleared them"
        );
        assert!(bytes > 0 && syncs > 0 && stages.total() > 0);
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
        assert_eq!(
            sharded
                .health_snapshot()
                .get(HealthCounter::DegradedQueries),
            1,
            "the router counts the stalled slot it served"
        );

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
