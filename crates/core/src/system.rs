//! The GraphCache+ facade — the system of Figure 1 wired together.
//!
//! [`GraphCachePlus`] owns the dataset (store + change log), the cache
//! subsystems and Method M. [`execute`](GraphCachePlus::execute) is the one
//! way a query enters; each call runs the paper's per-query pipeline:
//!
//! 1. **consistency maintenance** — if the dataset changed since the last
//!    query, EVI purges cache+window; CON runs Algorithms 1 & 2 (measured
//!    as *overhead*, with the CON-specific share tracked separately for
//!    Figure 6's "<1% of CON overhead" claim);
//! 2. **hit discovery** — the label index replays the change log, then
//!    GC+sub/GC+super probe the cached queries;
//! 3. **`CS_M`** — Method M's candidate set: an exact twin's memo brought
//!    current from the change log, else a label-index lookup (or the live
//!    set under the paper's live scan). It comes after the probe because
//!    the probe never reads it and an exact twin can supply it;
//! 4. **candidate pruning** — formulas (1)–(5) and the §6.3 optimal cases
//!    shrink `CS_M`;
//! 5. **verification** — Method M sub-iso tests the surviving candidates;
//!    steps 2–5 constitute the measured *query time*;
//! 6. **statistics + admission** — contributing entries are credited
//!    (PIN/PINC's R and C), the query enters the window, full windows
//!    flush into the cache under the replacement policy (more *overhead*).
//!    A `CS_M` the query built becomes the memo of the admitted entry or
//!    of the exact twin.
//!
//! # Three phases, one writer each
//!
//! An attempt runs three phases; only the first and the last take
//! `&mut self`:
//!
//! * `catch_up` (step 1 and the index replay) writes what the log makes
//!   stale: it forgets the records no consumer will read again, moves the
//!   maintenance cursor to the head, purges or refreshes the entry table,
//!   and syncs the label index. The auditor runs it too; a second call
//!   with the log unmoved does nothing.
//! * `read` (steps 2–5) writes nothing. It borrows a twin's current memo
//!   and copies one only to patch it, and returns the outcome, stamped
//!   with the log cursor it ran at, and the query's `Effects`.
//! * `commit` (step 6) writes the clock tick, the credits, the twin's
//!   refresh or the admission (flush and evictions included) and the
//!   memo. Effects name entries by `inserted_at`, unique per admission,
//!   and one whose entry moved or left since the read is skipped.
//!
//! So a read that panics leaves the entries, their credits and the clock
//! as `catch_up` left them, but for the boundary's quarantine.
//!
//! Dataset changes arrive through [`apply`](GraphCachePlus::apply), one
//! operation at a time (a `gc_dataset::PlanExecutor` driving the paper's
//! change plan hands each of its operations to it). Nothing else changes
//! the store or appends to the change log, so every change is logged and
//! passes the panic boundary and the fault hooks.
//!
//! # The change log's window
//!
//! Three things read the change log: the maintenance pass (from
//! `cursor`), the label index's sync (from its own cursor) and the `CS_M`
//! memos (each from the cursor it was stored at). Before each maintenance
//! pass, GC+ forgets every record before
//! `min(maintenance cursor, head − live_count)`, once that prefix is
//! `live_count` records long, so the cost is one move of the kept records
//! per `live_count` appends. A GC+ (each shard of a sharded one) then
//! holds fewer than 2 × its live graphs of records, plus the records since
//! its last query.
//!
//! The maintenance cursor bounds the point because the pass must read
//! every record after it; `catch_up` syncs the index right after the pass,
//! so the index's cursor is the same. The memos need no cursor of their
//! own: a memo at `at` is patched only while `head − at ≤ live_count`, and
//! forgetting `at` needs `at < head − live_count` at that moment. Each
//! later record raises `head` by one and `live_count` by at most one (only
//! ADD adds a graph), so `head − at − live_count` never falls again, and a
//! memo whose cursor is forgotten would have been looked up afresh anyway.
//! The memo path reads a forgotten cursor (`records_since` is `None`) as
//! "too far behind", which is the rule it already had; no answer, count or
//! memo use moves.
//!
//! # Failure model
//!
//! The pipeline above assumes every stage runs to completion. Three
//! mechanisms keep the system useful when it does not:
//!
//! * **budgets** — every [`execute`](GraphCachePlus::execute) call names
//!   its [`QueryBudget`] (this type never reads `GcConfig::budget`), which
//!   becomes a `CancelToken` threaded through probing and Method M; an
//!   exhausted budget yields a *sound partial* answer (its positives are
//!   verified) explicitly tagged in `QueryMetrics::degraded`, and the
//!   partial answer is never admitted into cache or window;
//! * **panic isolation** — [`execute`](GraphCachePlus::execute) and
//!   [`apply`](GraphCachePlus::apply) always run behind a panic boundary:
//!   a panicking attempt is contained and retried once (injected faults
//!   are one-shot). A query first quarantines the cache entries it may
//!   have touched; if its retry panics too, it runs cache-less
//!   ([`baseline_budgeted`]) under what is left of its budget. An update
//!   that panics twice propagates. Quarantined entries contribute no hits
//!   until re-verified;
//! * **the consistency auditor** — [`audit`](GraphCachePlus::audit)
//!   re-verifies a seeded random sample of entries (plus every quarantined
//!   one) against the store and repairs divergent ones in place — the
//!   recovery path for silent corruption that validity bookkeeping cannot
//!   see.

use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gc_dataset::{ChangeLog, ChangeOp, DatasetError, Deltas, GraphId, GraphStore, LogCursor};
use gc_graph::{BitSet, GraphBytes, LabeledGraph};
use gc_subiso::{Algorithm, CancelToken, Interrupt, QueryKind};
use gc_telemetry::{Stage, StageSpans};

use crate::config::{CacheModel, CandidateSource, GcConfig, MaintenanceMode};
use crate::entries::{Entries, Named};
use crate::entry::CachedQuery;
use crate::fault::{FaultInjector, HealthCounter, HealthSnapshot, QueryBudget, RuntimeHealth};
use crate::metrics::{AggregateMetrics, HitBreakdown, QueryMetrics};
use crate::processor::{discover_hits, EntryRef};
use crate::pruner::{prune, Shortcut};
use crate::runtime::baseline_budgeted;
pub use crate::runtime::{baseline_execute, QueryOutcome};
use crate::validator::{self, MaintenanceOutcome};

/// What a [`GraphCachePlus::read`] leaves for [`GraphCachePlus::commit`]
/// to write, naming entries stably ([`Named`]).
#[derive(Debug)]
struct Effects<'q> {
    query: &'q LabeledGraph,
    kind: QueryKind,
    /// Per contributing entry, the tests it alone saved.
    credits: Vec<(Named, u64)>,
    twin: Option<Named>,
    /// `None` when degraded: a partial answer never becomes cached
    /// knowledge.
    answer: Option<BitSet>,
    /// The `CS_M` the read built, at the log head: `None` under a live
    /// scan, or when the read borrowed the twin's current memo.
    memo: Option<(LogCursor, BitSet)>,
}

/// What one [`GraphCachePlus::audit`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Entries re-verified against the store.
    pub sampled: usize,
    /// Audited entries whose valid claims matched ground truth.
    pub clean: usize,
    /// Divergent entries rebuilt in place (answer + full validity).
    pub repaired: usize,
}

impl AuditReport {
    /// Field-wise sum (folding per-shard or per-pass reports).
    pub fn merge(&mut self, other: &AuditReport) {
        self.sampled += other.sampled;
        self.clean += other.clean;
        self.repaired += other.repaired;
    }
}

/// The bytes a GC+ instance holds, by owner: buffer capacities, not
/// lengths, and no allocator headers. The first three are the dataset
/// side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryLedger {
    /// The change log's records.
    pub log: u64,
    /// The dataset graphs, by feature.
    pub store: GraphBytes,
    /// The label index (zero under a live-scan candidate source).
    pub index: u64,
    /// Cache and window: cached graphs, answer and validity bitsets, memos.
    pub entries: u64,
}

impl MemoryLedger {
    /// Owner-wise sum.
    pub fn merge(&mut self, other: &MemoryLedger) {
        self.log += other.log;
        self.store += other.store;
        self.index += other.index;
        self.entries += other.entries;
    }
}

/// The GraphCache+ system.
#[derive(Debug)]
pub struct GraphCachePlus {
    config: GcConfig,
    store: GraphStore,
    log: ChangeLog,
    cursor: LogCursor,
    /// Cache then window, in walk order.
    entries: Entries,
    clock: u64,
    aggregate: AggregateMetrics,
    /// Postings-bitset candidate index; present iff `config.candidate_source`
    /// is [`CandidateSource::LabelIndex`]. Built once at construction and
    /// incrementally synced from the change log at each query — never
    /// rebuilt on the update path.
    label_index: Option<gc_dataset::LabelIndex>,
    /// Fault-tolerance counters: this instance's own, or the one health
    /// of the sharded deployment it serves in.
    health: Arc<RuntimeHealth>,
    /// Deterministic fault injection, when enabled (tests / chaos driver).
    injector: Option<Arc<FaultInjector>>,
}

impl GraphCachePlus {
    /// Builds a GC+ instance over an initial dataset.
    pub fn new(config: GcConfig, initial: Vec<LabeledGraph>) -> Self {
        Self::with_health(config, initial, Arc::default())
    }

    /// [`new`](Self::new), recording on a health the caller shares (a
    /// sharded deployment's one health).
    pub(crate) fn with_health(
        config: GcConfig,
        initial: Vec<LabeledGraph>,
        health: Arc<RuntimeHealth>,
    ) -> Self {
        let store = GraphStore::from_graphs(initial);
        let log = ChangeLog::new();
        let label_index = (config.candidate_source == CandidateSource::LabelIndex)
            .then(|| gc_dataset::LabelIndex::build(&store, &log));
        GraphCachePlus {
            entries: Entries::new(config.cache_capacity, config.window_capacity),
            config,
            log,
            cursor: LogCursor::default(),
            store,
            clock: 0,
            aggregate: AggregateMetrics::default(),
            label_index,
            health,
            injector: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &GcConfig {
        &self.config
    }

    /// The postings-bitset candidate index, when it is the configured
    /// candidate source. Exposed so harnesses can assert the incremental
    /// maintenance path (via [`gc_dataset::LabelIndex::records_replayed`])
    /// and structural convergence.
    pub fn label_index(&self) -> Option<&gc_dataset::LabelIndex> {
        self.label_index.as_ref()
    }

    /// Read access to the dataset.
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// Installs a deterministic fault injector (tests / chaos driver).
    pub fn set_fault_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Point-in-time copy of the fault-tolerance counters (a shard's GC+
    /// shares its deployment's one health).
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.health.snapshot()
    }

    /// The entry table: cache then window, in walk order.
    pub fn entries(&self) -> &[CachedQuery] {
        &self.entries
    }

    /// Entries currently under quarantine across cache and window.
    pub fn quarantined_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.quarantined).count()
    }

    /// Applies a single dataset change, logging it, behind a panic
    /// boundary. Returns the assigned id for ADD, the affected id
    /// otherwise. A panicking update (e.g. an injected fault) is contained
    /// and retried once from the unchanged pre-update state. A second
    /// panic propagates — a deterministic failure is a real bug, not a
    /// transient fault.
    pub fn apply(&mut self, op: ChangeOp) -> Result<GraphId, DatasetError> {
        let retry = op.clone();
        match catch_unwind(AssertUnwindSafe(|| self.apply_once(op))) {
            Ok(result) => result,
            Err(_) => {
                self.health.add(HealthCounter::PanicsRecovered, 1);
                self.apply_once(retry)
            }
        }
    }

    fn apply_once(&mut self, op: ChangeOp) -> Result<GraphId, DatasetError> {
        if let Some(inj) = &self.injector {
            // fires *before* any mutation, so a contained panic leaves the
            // dataset untouched and the operation can simply be retried
            inj.before_update();
        }
        let result = op.apply(&mut self.store, &mut self.log);
        if result.is_ok() {
            if let Some(bit) = self.injector.as_ref().and_then(|i| i.after_update()) {
                self.corrupt_one_entry(bit);
            }
        }
        result
    }

    /// Injected silent corruption: flips answer bit `bit` (and forces the
    /// matching validity bit on) in the first entry of the walk — exactly
    /// the divergence the consistency auditor exists to catch.
    fn corrupt_one_entry(&mut self, bit: usize) {
        if let Some(e) = self.entries.first_mut() {
            e.answer.set(bit, !e.answer.get(bit));
            e.cg_valid.set(bit, true);
        }
    }

    /// Number of change-log records ever appended, forgotten ones
    /// included.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Change-log records still held (module docs, *The change log's
    /// window*).
    pub fn log_retained(&self) -> usize {
        self.log.retained()
    }

    /// The bytes this instance holds, by owner.
    pub fn memory_bytes(&self) -> MemoryLedger {
        MemoryLedger {
            log: self.log.memory_bytes(),
            store: self.store.memory_bytes(),
            index: self
                .label_index
                .as_ref()
                .map_or(0, gc_dataset::LabelIndex::memory_bytes),
            entries: self.entries.memory_bytes(),
        }
    }

    /// Forgets the change-log records that neither the maintenance pass,
    /// nor the label index, nor any `CS_M` memo can read any more
    /// (module docs, *The change log's window*), once they are
    /// `live_count` records long. [`catch_up`](Self::catch_up) moves the
    /// maintenance cursor and the index's together, so the first bounds
    /// both.
    fn forget_read_records(&mut self) {
        let live = self.store.live_count();
        let upto = self.log.head().0.saturating_sub(live).min(self.cursor.0);
        if upto >= self.log.base().0 + live {
            self.log.forget_before(LogCursor(upto));
        }
    }

    /// Cache + window occupancy `(cache, window)`.
    pub fn occupancy(&self) -> (usize, usize) {
        self.entries.occupancy()
    }

    /// Total cache evictions so far.
    pub fn evictions(&self) -> u64 {
        self.entries.evictions()
    }

    /// Aggregated metrics since construction.
    pub fn aggregate_metrics(&self) -> &AggregateMetrics {
        &self.aggregate
    }

    /// Pipeline-stage wall time accumulated across queries *and* audits
    /// since construction: the aggregate's `span_totals`. All-zero unless
    /// [`GcConfig::trace`] is on.
    pub fn stage_totals(&self) -> StageSpans {
        self.aggregate.span_totals
    }

    /// Brings what a read sees up to the log head: forgets the records no
    /// consumer can read any more, runs step 1 (the maintenance pass) and
    /// lets the label index replay the change log. Query execution and the
    /// auditor (which must refresh validity bits before judging an entry's
    /// claims) both run it. Idempotent when the log has not moved.
    ///
    /// One policy over one delta classification: EVI purges the entry
    /// table; CON and CON-R differ only in how the pending records become
    /// [`Deltas`] (Algorithm 1's categories vs net edge deltas), and
    /// [`MaintenanceMode`] decides whether the single [`validator::refresh`]
    /// over the table's one slice (cache then window) clears what the keep
    /// table cannot prove intact or first tries a signature disproof. The
    /// tally goes to the shared health counters and into the returned
    /// metrics (overhead, validation time, repair tally, the repair and
    /// index-sync spans), with the instant query time starts.
    fn catch_up(&mut self) -> (QueryMetrics, Instant) {
        self.forget_read_records();
        let mut m = QueryMetrics::default();
        if self.log.changed_since(self.cursor) {
            let t = Instant::now();
            let records = self
                .log
                .records_since(self.cursor)
                .expect("the change log forgot records maintenance has not read");
            let deltas = match self.config.model {
                CacheModel::Evi => {
                    self.entries.clear();
                    None
                }
                CacheModel::Con => Some(Deltas::by_category(records)),
                CacheModel::ConRetro => Some(Deltas::by_net_edge(records)),
            };
            let repair = deltas.is_some() && self.config.maintenance == MaintenanceMode::Repair;
            let mut o = MaintenanceOutcome::default();
            if let Some(deltas) = deltas {
                o = validator::refresh(self.entries.iter_mut(), &deltas, &self.store, repair);
            }
            self.cursor = self.log.head();
            m.overhead_time = t.elapsed();
            if self.config.model != CacheModel::Evi {
                m.validation_time = m.overhead_time;
            }
            if repair && self.config.trace {
                m.spans
                    .record(Stage::Repair, m.overhead_time.as_nanos() as u64);
            }
            let health = &self.health;
            health.add(HealthCounter::RepairsApplied, o.repairs_applied);
            health.add(HealthCounter::InvalidationsAvoided, o.invalidations_avoided);
            health.add(HealthCounter::RepairFallbacks, o.repair_fallbacks);
            m.repairs_applied = o.repairs_applied;
            m.invalidations_avoided = o.invalidations_avoided;
            m.repair_fallbacks = o.repair_fallbacks;
        }
        // query time starts with the index's replay of the change log,
        // part of the prefilter span
        let query_start = Instant::now();
        if let Some(idx) = self.label_index.as_mut() {
            idx.sync(&self.store, &self.log);
            if self.config.trace {
                let nanos = query_start.elapsed().as_nanos() as u64;
                m.spans.record(Stage::Prefilter, nanos);
            }
        }
        (m, query_start)
    }

    /// Method M's candidate set `CS_M` for this query, and whether it came
    /// from the exact twin's memo ([`CachedQuery::csm`]). The index must be
    /// synced to the log head first.
    ///
    /// A memo at the log head is borrowed as it is. A memo taken at an
    /// earlier cursor `at` is copied and patched rather than looked up
    /// again: each graph a record after `at` names gets its bit re-decided
    /// by [`LabelIndex::admits`](gc_dataset::LabelIndex::admits), and no
    /// other bit can have moved. Past one pending record per live graph,
    /// patching could cost more than a lookup (whose refine pass is
    /// bounded by the live graphs), so the index is asked afresh; a memo
    /// whose cursor the log forgot is always that far behind (module
    /// docs). With no twin or no memo it is a plain index lookup, and
    /// under [`CandidateSource::LiveScan`] the live set.
    fn candidate_set(
        &self,
        query: &LabeledGraph,
        kind: QueryKind,
        exact: Option<EntryRef>,
    ) -> (Cow<'_, BitSet>, bool) {
        let Some(idx) = self.label_index.as_ref() else {
            return (Cow::Owned(self.store.live_bitset()), false);
        };
        if let Some((at, memo)) = exact.and_then(|r| self.entries[r].csm.as_ref()) {
            let pending = self.log.records_since(*at);
            if let Some(pending) = pending.filter(|p| p.len() <= self.store.live_count()) {
                // copied on the first pending record, if there is one
                let mut set = Cow::Borrowed(memo);
                for r in pending {
                    let admitted = idx.admits(r.graph_id, query, kind);
                    set.to_mut().set(r.graph_id, admitted);
                }
                debug_assert_eq!(
                    *set,
                    idx.candidates(query, kind),
                    "the CS_M memo drifted from the index"
                );
                return (set, true);
            }
        }
        (Cow::Owned(idx.candidates(query, kind)), false)
    }

    /// Executes a query through the full GC+ pipeline under `budget`
    /// ([`QueryBudget::UNLIMITED`] runs it to completion), behind a panic
    /// boundary: a panicking attempt quarantines the entries the query
    /// may have touched and is retried once; if the retry panics too, the
    /// query runs cache-less ([`baseline_budgeted`]) under what is left of
    /// `budget` since this call began. Never panics; a partial answer
    /// (budget exhausted, or even the fallback panicked) is sound and
    /// tagged in `metrics.degraded`, and never enters cache or window.
    ///
    /// An attempt is `catch_up`, `read` and `commit`, in that order,
    /// after the fault injector's query hook (module docs, *Three phases,
    /// one writer each*). Its metrics are the read's, plus the query
    /// time from the index sync on, the maintenance pass's figures and
    /// the admission's time.
    ///
    /// `metrics.panics_recovered` is every panic contained for this
    /// request, and the finished metrics are counted once, here: into the
    /// aggregate and the health.
    pub fn execute(
        &mut self,
        query: &LabeledGraph,
        kind: QueryKind,
        budget: QueryBudget,
    ) -> QueryOutcome {
        let expiry = budget.expiry();
        let attempt = |gc: &mut Self| {
            // the deadline clock starts before injected delays and
            // maintenance — everything a caller would experience counts
            // against it
            let token = (!budget.is_unlimited()).then(|| budget.token());
            if let Some(inj) = &gc.injector {
                inj.before_query();
            }
            let (maintenance, query_start) = gc.catch_up();
            let (mut out, effects) = gc.read(query, kind, token.as_ref());
            let m = &mut out.metrics;
            m.query_time = query_start.elapsed();
            m.merge(&maintenance);
            let admission = gc.commit(effects);
            m.overhead_time += admission;
            if gc.config.trace {
                m.spans
                    .record(Stage::Admission, admission.as_nanos() as u64);
            }
            out
        };
        let out = 'served: {
            if let Ok(out) = catch_unwind(AssertUnwindSafe(|| attempt(self))) {
                break 'served out;
            }
            self.quarantine_related(query, kind);
            if let Ok(mut out) = catch_unwind(AssertUnwindSafe(|| attempt(self))) {
                // the retry's answer is exact (or already tagged by its
                // own budget)
                out.metrics.panics_recovered += 1;
                break 'served out;
            }
            // both attempts panicked: answer from the store alone, under
            // what is left of the budget
            let budget = budget.until(expiry);
            let baseline = catch_unwind(AssertUnwindSafe(|| {
                baseline_budgeted(&self.store, &self.config.method, query, kind, budget)
            }));
            let (mut out, fallback_panics) = match baseline {
                Ok(out) => (out, 0),
                Err(_) => (QueryOutcome::degraded(Interrupt::Panic), 1),
            };
            out.metrics.panics_recovered += 2 + fallback_panics;
            out.cursor = self.log.head();
            out
        };
        self.count(&out.metrics);
        out
    }

    /// The one place a finished query is counted.
    fn count(&mut self, m: &QueryMetrics) {
        self.aggregate.record(m);
        self.health.record_query(m);
    }

    // Kept only because `benchmark/` calls it (ROADMAP item 1).
    #[doc(hidden)]
    #[deprecated(note = "named by benchmark/ only; call execute")]
    pub fn execute_isolated_budgeted(
        &mut self,
        query: &LabeledGraph,
        kind: QueryKind,
        budget: QueryBudget,
    ) -> QueryOutcome {
        self.execute(query, kind, budget)
    }

    /// Steps 2–5 over the state [`catch_up`](Self::catch_up) left: hit
    /// probe, `CS_M`, pruning and Method M. Writes nothing; the query's
    /// effects on the cache go to [`commit`](Self::commit). `token` is the
    /// query's budget, `None` when unlimited (the probe then charges
    /// nothing). The outcome is stamped with the cursor the read ran at.
    fn read<'q>(
        &self,
        query: &'q LabeledGraph,
        kind: QueryKind,
        token: Option<&CancelToken>,
    ) -> (QueryOutcome, Effects<'q>) {
        let trace = self.config.trace;
        let index_backed = self.label_index.is_some();
        let mut spans = StageSpans::default();
        // Hit discovery under the token: an exhausted budget skips the
        // remaining probes, which only weakens pruning — every hit found
        // is real, so discovery never degrades the answer by itself. The
        // probe reads no CS_M, so it runs first: an exact twin can then
        // supply CS_M from its memo.
        let matcher = Algorithm::Vf2Plus.matcher();
        let t_probe = trace.then(Instant::now);
        let hits = discover_hits(query, kind, &self.entries, matcher, token);
        if let Some(t) = t_probe {
            spans.record(Stage::HitProbe, t.elapsed().as_nanos() as u64);
        }
        // CS_M: the postings index's output (the default) or the whole
        // live dataset (the paper's SI-method deployment). Both are sound
        // supersets of the answer set; the pruner's optimal-case checks
        // stay correct against either — graphs outside a sound filter can
        // never be answers. Index candidates already passed the full
        // signature check (the folded pre-filter), so the scan below runs
        // with Method M's per-candidate pre-filter off: one pass total.
        // Under the index, an exact twin's memo stands in for the lookup.
        let t_csm = (trace && index_backed).then(Instant::now);
        let (csm, csm_from_memo) = self.candidate_set(query, kind, hits.exact);
        if let Some(t) = t_csm {
            spans.record(Stage::Prefilter, t.elapsed().as_nanos() as u64);
        }
        let candidate_size = csm.count_ones() as u64;
        let outcome = prune(&csm, &hits, &self.entries);

        let (answer, tests, prefilter_skips, degraded, panics_recovered) = if outcome
            .candidates
            .is_empty()
        {
            (outcome.direct_answers, 0, 0, None, 0)
        } else {
            let unlimited = CancelToken::unlimited();
            let t_scan = trace.then(Instant::now);
            let mut method = self.config.method.with_timing(trace);
            if index_backed {
                // the index already applied the signature pre-filter;
                // re-running it per candidate would be a second pass
                method = method.with_prefilter(false);
            }
            let (store, candidates) = (&self.store, &outcome.candidates);
            let m =
                method.run_budgeted(query, kind, store, candidates, token.unwrap_or(&unlimited));
            if let Some(t) = t_scan {
                spans.record(Stage::CandidateScan, t.elapsed().as_nanos() as u64);
                // Prefilter/Verify are the scan's inner stages
                spans.record(Stage::Prefilter, m.prefilter_nanos);
                spans.record(Stage::Verify, m.verify_nanos);
            }
            let mut answer = m.answer;
            answer.union_with(&outcome.direct_answers);
            (
                answer,
                m.tests,
                m.prefilter_skips,
                m.interrupted,
                m.panics_recovered,
            )
        };

        let cursor = self.log.head();
        let effects = Effects {
            query,
            kind,
            credits: (outcome.attribution.iter())
                .map(|&(r, saved)| (self.entries.name(r), saved))
                .collect(),
            twin: hits.exact.map(|r| self.entries.name(r)),
            answer: degraded.is_none().then(|| answer.clone()),
            memo: match csm {
                Cow::Owned(set) if index_backed => Some((cursor, set)),
                _ => None,
            },
        };
        let metrics = QueryMetrics {
            subiso_tests: tests,
            prefilter_skips,
            tests_saved: candidate_size.saturating_sub(tests),
            candidate_size,
            hits: HitBreakdown {
                direct_hits: hits.direct.len() as u32,
                exclusion_hits: hits.exclusion.len() as u32,
                exact_match: hits.exact.is_some(),
                exact_shortcut: matches!(outcome.shortcut, Some(Shortcut::ExactMatch(_))),
                empty_shortcut: matches!(outcome.shortcut, Some(Shortcut::EmptyResult(_))),
            },
            degraded,
            panics_recovered,
            csm_from_memo,
            spans,
            ..QueryMetrics::default()
        };
        (
            QueryOutcome {
                answer,
                metrics,
                cursor,
            },
            effects,
        )
    }

    /// Step 6: writes what a [`read`](Self::read) left, skipping an
    /// effect whose entry moved or left since. Ticks the clock, credits the
    /// contributing entries (PIN/PINC's `R` and `C`), refreshes the exact
    /// twin in place (full validity again) or admits the query, and
    /// stores the read's `CS_M` as the memo of either. A degraded query
    /// refreshes and admits nothing, but its twin still takes the memo:
    /// `CS_M` is exact either way. Returns its wall time (overhead).
    fn commit(&mut self, effects: Effects<'_>) -> Duration {
        let t_admit = Instant::now();
        self.clock += 1;
        // Per-saved-test cost proxy ∝ query size; dataset-graph sizes are
        // iid across hits, so they fold into a constant that does not
        // affect PINC's ranking.
        let query = effects.query;
        let per_test_cost = (query.vertex_count() + query.edge_count()) as f64;
        for (name, saved) in effects.credits {
            if let Some(e) = self.entries.named_mut(name) {
                e.credit(saved, saved as f64 * per_test_cost);
            }
        }
        let (span, memo) = (self.store.id_span(), effects.memo);
        if let Some(twin) = effects.twin {
            if let Some(e) = self.entries.named_mut(twin) {
                if memo.is_some() {
                    e.csm = memo;
                }
                if let Some(answer) = effects.answer {
                    e.answer = answer;
                    e.cg_valid = BitSet::all_set(span);
                    e.quarantined = false;
                }
            }
        } else if let Some(answer) = effects.answer {
            let mut entry = CachedQuery::new(query.clone(), effects.kind, answer, span, self.clock);
            entry.csm = memo;
            self.entries.admit(entry);
        }
        t_admit.elapsed()
    }

    /// Quarantines every entry the given query could have interacted with
    /// (same kind, signature-compatible in either containment direction:
    /// the entries the hit probe's screens pass). Returns how many entries
    /// were newly quarantined.
    pub fn quarantine_related(&mut self, query: &LabeledGraph, kind: QueryKind) -> usize {
        let related: Vec<EntryRef> = self.entries.screen(query, kind).map(|(r, _)| r).collect();
        for &r in &related {
            self.entries[r].quarantined = true;
        }
        self.health
            .add(HealthCounter::QuarantinedEntries, related.len() as u64);
        related.len()
    }

    /// The consistency auditor. Re-verifies a seeded random sample of
    /// resident entries (every quarantined entry is always audited)
    /// against the live store using Method M, and compares each entry's
    /// *valid claims* — answer bits it currently holds validity for —
    /// with ground truth. Divergent entries are repaired in place (answer
    /// rebuilt, validity restored). Audited entries leave quarantine.
    ///
    /// Validity bits are refreshed first, so entries that merely lag the
    /// change log are *not* misdiagnosed as divergent — the auditor only
    /// flags corruption the consistency machinery cannot see.
    pub fn audit(&mut self, sample_rate: f64, seed: u64) -> AuditReport {
        let t_audit = self.config.trace.then(Instant::now);
        let (maintenance, _) = self.catch_up();
        self.aggregate.span_totals.merge(&maintenance.spans);
        let mut report = AuditReport::default();
        let live = self.store.live_bitset();
        let span = self.store.id_span();
        let mut rng = seed | 1; // xorshift state must be nonzero
        let store = &self.store;
        let method = &self.config.method;
        for e in self.entries.iter_mut() {
            let sampled =
                e.quarantined || sample_rate >= 1.0 || xorshift_f64(&mut rng) < sample_rate;
            if !sampled {
                continue;
            }
            report.sampled += 1;
            let truth = method.run(e.graph(), e.kind(), store, &live).answer;
            let valid_live = e.cg_valid.intersection(&live);
            let claimed = e.answer.intersection(&valid_live);
            let actual = truth.intersection(&valid_live);
            e.quarantined = false;
            if claimed == actual {
                report.clean += 1;
            } else {
                e.answer = truth;
                e.cg_valid = BitSet::all_set(span);
                report.repaired += 1;
            }
        }
        self.health
            .add(HealthCounter::AuditRepairs, report.repaired as u64);
        if let Some(t) = t_audit {
            self.aggregate
                .span_totals
                .record(Stage::Audit, t.elapsed().as_nanos() as u64);
        }
        report
    }
}

/// Minimal xorshift64* step mapped to `[0, 1)` — the auditor's sampling
/// coin. Deterministic for a given seed, no external RNG dependency in
/// this crate.
fn xorshift_f64(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    fn dataset() -> Vec<LabeledGraph> {
        vec![
            g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]), // 0: triangle
            g(vec![0, 0, 0], &[(0, 1), (1, 2)]),         // 1: path3
            g(vec![0, 0], &[(0, 1)]),                    // 2: edge
            g(vec![1, 1], &[(0, 1)]),                    // 3: labeled edge
        ]
    }

    fn config() -> GcConfig {
        GcConfig {
            cache_capacity: 10,
            window_capacity: 2,
            ..GcConfig::default()
        }
    }

    #[test]
    fn first_query_scans_the_index_candidates() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        // the postings index excludes graph 3 (labels {1,1}) before the
        // scan; the three label-0 graphs are tested
        assert_eq!(out.metrics.candidate_size, 3);
        assert_eq!(out.metrics.subiso_tests, 3);
        assert_eq!(out.metrics.tests_saved, 0);
        assert_eq!(gc.occupancy(), (0, 1));
    }

    #[test]
    fn paper_scan_config_tests_every_live_graph() {
        let cfg = GcConfig {
            candidate_source: CandidateSource::LiveScan,
            ..config()
        };
        let mut gc = GraphCachePlus::new(cfg, dataset());
        assert!(gc.label_index().is_none());
        let q = g(vec![0, 0], &[(0, 1)]);
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(out.metrics.candidate_size, 4, "CS_M is the live set");
        assert_eq!(out.metrics.subiso_tests, 4);
        let again = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert!(again.metrics.hits.exact_shortcut);
        assert!(!again.metrics.csm_from_memo, "a live scan keeps no memo");
    }

    #[test]
    fn repeated_query_is_exact_match_with_zero_tests() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        let first = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        let second = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(first.answer, second.answer);
        assert_eq!(second.metrics.subiso_tests, 0);
        assert!(second.metrics.hits.exact_shortcut);
        assert!(!first.metrics.csm_from_memo);
        assert!(second.metrics.csm_from_memo, "the twin's memo is CS_M");
        assert_eq!(second.metrics.candidate_size, 3);
        // the twin was refreshed in place, not duplicated
        assert_eq!(gc.occupancy(), (0, 1));
    }

    #[test]
    fn a_path_is_no_exact_match_for_the_ring_it_embeds_in() {
        // on one label a 6-vertex ring and a 6-vertex path share histogram
        // and saturated fingerprint; only the edge count tells the path
        // that the cached ring, which contains it, is not its twin
        let path = g(vec![0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let ring = g(
            vec![0; 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        );
        let longer = g(
            vec![0; 7],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
        );
        let graphs = vec![ring.clone(), path.clone(), longer, dataset()[0].clone()];
        let mut gc = GraphCachePlus::new(config(), graphs);
        let cached = gc.execute(&ring, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(cached.answer.iter_ones().collect::<Vec<_>>(), vec![0]);
        let out = gc.execute(&path, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        let oracle = baseline_execute(gc.store(), &gc.config().method, &path, QueryKind::Subgraph);
        assert!(!out.metrics.hits.exact_match);
        assert_eq!(out.answer, oracle.answer);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn direct_hit_prunes_answers() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        // prime with path3 (answers: triangle 0, path3 1)
        let p3 = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
        gc.execute(&p3, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        // edge ⊆ path3: direct hit makes graphs 0,1 test-free
        let q = g(vec![0, 0], &[(0, 1)]);
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(out.metrics.subiso_tests < 4);
        assert!(out.metrics.hits.direct_hits >= 1);
    }

    #[test]
    fn empty_answer_shortcut_fires() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        // no dataset graph contains two 1-1 edges in a path: query 1-1-1
        let q1 = g(vec![1, 1, 1], &[(0, 1), (1, 2)]);
        let first = gc.execute(&q1, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert!(first.answer.is_empty());
        // a supergraph of q1 must also be empty — and provably so
        let q2 = g(vec![1, 1, 1, 0], &[(0, 1), (1, 2), (2, 3)]);
        let out = gc.execute(&q2, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert!(out.answer.is_empty());
        assert!(out.metrics.hits.empty_shortcut);
        assert_eq!(out.metrics.subiso_tests, 0);
    }

    #[test]
    fn con_model_survives_changes_with_correct_answers() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        // UA on graph 3 (labels 1-1): does not affect q's positive answers
        gc.apply(ChangeOp::Add(g(vec![0, 0, 0], &[(0, 1)])))
            .unwrap();
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(
            out.answer.iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2, 4],
            "new graph 4 contains a 0-0 edge"
        );
        assert!(
            out.metrics.csm_from_memo,
            "the ADD was patched into the memo"
        );
        assert_eq!(out.metrics.candidate_size, 4);
    }

    #[test]
    fn repair_mode_splices_a_changed_bit_to_ground_truth() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let tri = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let first = gc.execute(&tri, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(first.answer.iter_ones().collect::<Vec<_>>(), vec![0]);
        // break graph 0's triangle: the cached bit is now stale; repair
        // flips it in place instead of discarding the entry
        gc.apply(ChangeOp::Ur { id: 0, u: 0, v: 1 }).unwrap();
        let out = gc.execute(&tri, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert!(out.answer.is_empty(), "no live graph contains a triangle");
        assert_eq!(out.metrics.repairs_applied, 1);
        assert!(out.metrics.invalidations_avoided > 0);
        assert!(
            out.metrics.hits.exact_shortcut,
            "the spliced entry still serves exactly"
        );
    }

    #[test]
    fn exhausted_repair_budget_falls_back_to_invalidation() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        // UR an edge of triangle 0: Algorithm 2 invalidates its bit
        // (UR-exclusive on an answered graph). Graph 0 still contains a 0-0
        // edge, so no signature disproof exists and repair falls back
        gc.apply(ChangeOp::Ur { id: 0, u: 0, v: 1 }).unwrap();
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        // answers stay exact — the cleared bit is recomputed by the scan
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(out.metrics.repair_fallbacks, 1);
        assert_eq!(out.metrics.invalidations_avoided, 0);
        assert_eq!(out.metrics.repairs_applied, 0);
        assert!(
            !out.metrics.hits.exact_shortcut,
            "the twin lost full validity, so the repeat is re-verified"
        );
        assert_eq!(gc.aggregate_metrics().repair_fallbacks, 1);
    }

    #[test]
    fn evi_purges_on_any_change() {
        let cfg = GcConfig {
            model: CacheModel::Evi,
            cache_capacity: 10,
            window_capacity: 2,
            ..GcConfig::default()
        };
        let mut gc = GraphCachePlus::new(cfg, dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(gc.occupancy(), (0, 1));
        gc.apply(ChangeOp::Del(3)).unwrap();
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        // cache was purged: full scan of the 3 live graphs, no exact match
        assert_eq!(out.metrics.subiso_tests, 3);
        assert!(!out.metrics.hits.exact_match);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn supergraph_queries_work_end_to_end() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        // supergraph query: find dataset graphs contained in the triangle
        let tri = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let out = gc.execute(&tri, QueryKind::Supergraph, QueryBudget::UNLIMITED);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        // repeat → exact shortcut
        let out2 = gc.execute(&tri, QueryKind::Supergraph, QueryBudget::UNLIMITED);
        assert_eq!(out2.answer, out.answer);
        assert!(out2.metrics.hits.exact_shortcut);
    }

    #[test]
    fn apply_propagates_errors() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        assert!(gc.apply(ChangeOp::Del(99)).is_err());
        assert!(gc.apply(ChangeOp::Ua { id: 0, u: 0, v: 1 }).is_err()); // exists
        assert!(gc.apply(ChangeOp::Ur { id: 2, u: 0, v: 9 }).is_err());
        // log only contains successful ops
        assert_eq!(gc.log.len(), 0);
    }

    #[test]
    fn metrics_aggregate_every_query() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(gc.aggregate_metrics().queries, 2);
        assert_eq!(gc.aggregate_metrics().exact_shortcuts, 1);
    }

    #[test]
    fn window_flush_populates_cache() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        // window capacity 2: two distinct queries flush into cache
        gc.execute(
            &g(vec![0, 0], &[(0, 1)]),
            QueryKind::Subgraph,
            QueryBudget::UNLIMITED,
        );
        gc.execute(
            &g(vec![1, 1], &[(0, 1)]),
            QueryKind::Subgraph,
            QueryBudget::UNLIMITED,
        );
        assert_eq!(gc.occupancy(), (2, 0));
    }

    /// Runs `f` with the default panic hook silenced (for tests that
    /// deliberately contain panics).
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn exhausted_test_cap_degrades_without_admission() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        let oracle = baseline_execute(gc.store(), &gc.config().method, &q, QueryKind::Subgraph);
        let out = gc.execute(
            &q,
            QueryKind::Subgraph,
            QueryBudget {
                deadline: None,
                max_tests: Some(1),
            },
        );
        assert_eq!(out.metrics.degraded, Some(Interrupt::TestCap));
        assert!(out.metrics.subiso_tests <= 1);
        assert!(
            out.answer.is_subset_of(&oracle.answer),
            "partial answers are sound: verified positives only"
        );
        assert_eq!(gc.occupancy(), (0, 0), "partial answers are not admitted");
        assert_eq!(gc.aggregate_metrics().degraded_queries, 1);
        assert_eq!(gc.health_snapshot().get(HealthCounter::DegradedQueries), 1);
        // an unbudgeted rerun is exact and cacheable again
        let full = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert!(full.metrics.degraded.is_none());
        assert_eq!(full.answer, oracle.answer);
        assert_eq!(gc.occupancy(), (0, 1));
    }

    #[test]
    fn injected_query_panic_is_contained_and_retried() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        gc.set_fault_injector(Arc::new(FaultInjector::new(
            "panic-query@1".parse().unwrap(),
        )));
        let q = g(vec![0, 0], &[(0, 1)]);
        let oracle = baseline_execute(gc.store(), &gc.config().method, &q, QueryKind::Subgraph);
        let out = quiet_panics(|| gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED));
        assert_eq!(
            out.answer, oracle.answer,
            "retry produced the oracle answer"
        );
        assert!(out.metrics.degraded.is_none());
        assert_eq!(out.metrics.panics_recovered, 1);
        assert_eq!(gc.health_snapshot().get(HealthCounter::PanicsRecovered), 1);
        assert_eq!(gc.aggregate_metrics().panics_recovered, 1);
        assert_eq!(gc.aggregate_metrics().queries, 1);
    }

    #[test]
    fn injected_update_panic_is_contained_and_retried() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        gc.set_fault_injector(Arc::new(FaultInjector::new(
            "panic-update@1".parse().unwrap(),
        )));
        let added = quiet_panics(|| {
            gc.apply(ChangeOp::Add(g(vec![0, 0, 0], &[(0, 1)])))
                .unwrap()
        });
        assert_eq!(added, 4);
        assert_eq!(gc.health_snapshot().get(HealthCounter::PanicsRecovered), 1);
        // the retried ADD is fully visible to queries
        let out = gc.execute(
            &g(vec![0, 0], &[(0, 1)]),
            QueryKind::Subgraph,
            QueryBudget::UNLIMITED,
        );
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
    }

    #[test]
    fn auditor_repairs_injected_corruption() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        // corrupt the resident entry's answer bit for graph 0 right after
        // the next (unrelated) update commits
        gc.set_fault_injector(Arc::new(FaultInjector::new("corrupt@1:0".parse().unwrap())));
        gc.apply(ChangeOp::Add(g(vec![1, 1, 1], &[(0, 1), (1, 2)])))
            .unwrap();
        let report = gc.audit(1.0, 42);
        assert_eq!(report.repaired, 1);
        assert_eq!(gc.quarantined_entries(), 0);
        assert_eq!(gc.health_snapshot().get(HealthCounter::AuditRepairs), 1);
        // post-repair the entry serves the oracle answer again
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert!(out.metrics.hits.exact_match);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn quarantined_entries_stop_serving_until_audited() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(gc.quarantine_related(&q, QueryKind::Subgraph), 1);
        assert_eq!(gc.quarantined_entries(), 1);
        assert_eq!(
            gc.health_snapshot().get(HealthCounter::QuarantinedEntries),
            1
        );
        // the quarantined twin serves no hits: all index candidates are
        // re-tested, no exact match
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert!(!out.metrics.hits.exact_match);
        assert_eq!(out.metrics.subiso_tests, 3);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        // the auditor always re-verifies quarantined entries, even at
        // sampling rate zero, and clears the clean ones
        let report = gc.audit(0.0, 9);
        assert_eq!(report.sampled, 1);
        assert_eq!(report.clean, 1);
        assert_eq!(gc.quarantined_entries(), 0);
    }

    #[test]
    fn trace_flag_populates_stage_spans() {
        let mut gc = GraphCachePlus::new(
            GcConfig {
                trace: true,
                ..config()
            },
            dataset(),
        );
        let q = g(vec![0, 0], &[(0, 1)]);
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert!(out.metrics.spans.get(Stage::HitProbe) > 0);
        assert!(out.metrics.spans.get(Stage::CandidateScan) > 0);
        assert!(out.metrics.spans.get(Stage::Verify) > 0);
        assert!(
            out.metrics.spans.get(Stage::Verify) <= out.metrics.spans.get(Stage::CandidateScan),
            "verify runs inside the sequential scan, so it fits in its wall time"
        );
        assert!(
            out.metrics.spans.get(Stage::Prefilter) > 0,
            "index sync + postings lookup is attributed to the prefilter stage"
        );
        assert!(out.metrics.spans.get(Stage::Admission) > 0);
        assert_eq!(out.metrics.spans.get(Stage::Audit), 0);
        gc.audit(1.0, 3);
        let totals = gc.stage_totals();
        assert!(totals.get(Stage::Audit) > 0, "audit passes are timed too");
        assert!(totals.get(Stage::HitProbe) >= out.metrics.spans.get(Stage::HitProbe));
        assert_eq!(
            gc.aggregate_metrics().span_totals.get(Stage::CandidateScan),
            out.metrics.spans.get(Stage::CandidateScan)
        );
    }

    #[test]
    fn untraced_queries_record_no_spans() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(out.metrics.spans, StageSpans::default());
        gc.audit(1.0, 3);
        assert_eq!(gc.stage_totals(), StageSpans::default());
    }

    #[test]
    fn repeated_panic_falls_back_to_baseline() {
        // two consecutive injected panics: the isolated path must bypass
        // the cache and still return the exact store answer
        let mut gc = GraphCachePlus::new(config(), dataset());
        gc.set_fault_injector(Arc::new(FaultInjector::new(
            "panic-query@1;panic-query@2".parse().unwrap(),
        )));
        let q = g(vec![0, 0], &[(0, 1)]);
        let oracle = baseline_execute(gc.store(), &gc.config().method, &q, QueryKind::Subgraph);
        let out = quiet_panics(|| gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED));
        assert_eq!(out.answer, oracle.answer);
        assert!(out.metrics.degraded.is_none(), "baseline answers are exact");
        assert_eq!(out.metrics.panics_recovered, 2);
        assert_eq!(gc.health_snapshot().get(HealthCounter::PanicsRecovered), 2);
    }

    #[test]
    fn repeated_panic_fallback_keeps_the_request_budget() {
        // both pipeline attempts panic; the cache-less fallback must still
        // stop at the request's test cap instead of scanning every graph
        let mut gc = GraphCachePlus::new(config(), dataset());
        gc.set_fault_injector(Arc::new(FaultInjector::new(
            "panic-query@1;panic-query@2".parse().unwrap(),
        )));
        let q = g(vec![0, 0], &[(0, 1)]);
        let oracle = baseline_execute(gc.store(), &gc.config().method, &q, QueryKind::Subgraph);
        let capped = QueryBudget {
            deadline: None,
            max_tests: Some(1),
        };
        let out = quiet_panics(|| gc.execute(&q, QueryKind::Subgraph, capped));
        assert_eq!(out.metrics.degraded, Some(Interrupt::TestCap));
        assert!(out.metrics.subiso_tests <= 1);
        assert!(out.answer.is_subset_of(&oracle.answer));
        assert_eq!(out.metrics.panics_recovered, 2);
        assert_eq!(gc.aggregate_metrics().degraded_queries, 1);
        assert_eq!(gc.health_snapshot().get(HealthCounter::DegradedQueries), 1);
    }

    /// What a commit may write, per entry in walk order: graph, answer,
    /// validity, quarantine flag and statistics.
    fn table(gc: &GraphCachePlus) -> Vec<(LabeledGraph, BitSet, BitSet, bool, u64, u64, u64)> {
        (gc.entries.iter())
            .map(|e| {
                let s = &e.stats;
                let (answer, valid) = (e.answer.clone(), e.cg_valid.clone());
                let stats = (s.tests_saved, s.cost_saved.to_bits(), s.inserted_at);
                (
                    e.graph().clone(),
                    answer,
                    valid,
                    e.quarantined,
                    stats.0,
                    stats.1,
                    stats.2,
                )
            })
            .collect()
    }

    // The one check a read runs that can panic is the memo's comparison
    // with a fresh lookup, compiled in debug builds only.
    #[cfg(debug_assertions)]
    #[test]
    fn a_panicking_read_commits_nothing_and_uses_up_no_tick() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        let q = g(vec![0, 0], &[(0, 1)]);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        // the twin's memo is current but wrong: the read that takes it
        // panics after the probe has credited nothing yet
        gc.entries[0].csm = Some((gc.log.head(), BitSet::new()));
        let (before, clock) = (table(&gc), gc.clock);
        let out = quiet_panics(|| gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED));
        assert_eq!(out.metrics.panics_recovered, 1);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(gc.clock, clock + 1, "only the retry's commit ticked");
        let mut after = table(&gc);
        let admitted = after.pop().expect("the retry admitted the query");
        assert_eq!(admitted.6, clock + 1);
        // the twin is as the first attempt found it, but for the
        // quarantine the boundary set before the retry
        let mut quarantined = before.clone();
        quarantined[0].3 = true;
        assert_eq!(after, quarantined);
    }

    #[test]
    fn commit_skips_effects_whose_entries_moved_or_left() {
        let cfg = GcConfig {
            cache_capacity: 2,
            window_capacity: 2,
            ..GcConfig::default()
        };
        let mut gc = GraphCachePlus::new(cfg, dataset());
        let (edge, path) = (
            g(vec![0, 0], &[(0, 1)]),
            g(vec![0, 0, 0], &[(0, 1), (1, 2)]),
        );
        gc.execute(&path, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        gc.execute(&edge, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(gc.occupancy(), (2, 0));
        // the edge's twin is at position 1 and takes the shortcut's credit
        gc.catch_up();
        let (out, effects) = gc.read(&edge, QueryKind::Subgraph, None);
        assert!(out.metrics.hits.exact_shortcut);
        assert_eq!(effects.twin, Some(gc.entries.name(1)));
        assert_eq!(effects.credits.len(), 1);
        // two admissions that outscore both flush them out, so that other
        // entries hold both positions
        for (i, labels) in [vec![1], vec![1, 1]].into_iter().enumerate() {
            let mut e = CachedQuery::new(
                g(labels, &[]),
                QueryKind::Subgraph,
                BitSet::new(),
                4,
                90 + i as u64,
            );
            e.stats.tests_saved = 50;
            e.stats.cost_saved = 50.0;
            gc.entries.admit(e);
        }
        assert_eq!((gc.occupancy(), gc.evictions()), ((2, 0), 2));
        let before = table(&gc);
        gc.commit(effects);
        assert_eq!(table(&gc), before, "no credit, refresh or admission landed");
        assert_eq!(gc.occupancy(), (2, 0));
    }

    #[test]
    fn twice_panicking_update_propagates_and_leaves_the_dataset_alone() {
        let mut gc = GraphCachePlus::new(config(), dataset());
        gc.set_fault_injector(Arc::new(FaultInjector::new(
            "panic-update@1;panic-update@2".parse().unwrap(),
        )));
        let caught =
            quiet_panics(|| catch_unwind(AssertUnwindSafe(|| gc.apply(ChangeOp::Del(0)))).is_err());
        assert!(caught, "a second panic is a real bug and propagates");
        assert_eq!(gc.store().live_count(), 4);
        assert_eq!(gc.log_len(), 0);
        assert_eq!(gc.health_snapshot().get(HealthCounter::PanicsRecovered), 1);
        // the faults are spent: the same update now lands
        assert_eq!(gc.apply(ChangeOp::Del(0)), Ok(0));
    }
}
