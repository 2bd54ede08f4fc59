//! The differential chaos driver — fault-tolerant execution, empirically
//! enforced.
//!
//! [`run_diff`] replays the paper's Type A and Type B workloads on two
//! in-process instances side by side, a *subject* and an *oracle*, fed
//! identical query and change streams while a deterministic [`FaultPlan`]
//! injects update/query panics, delays and silent answer-set corruption.
//! A [`DiffMode`] is all that tells the three differentials apart:
//!
//! | mode | subject | oracle | oracle faulted | artefact |
//! |---|---|---|---|---|
//! | `Chaos` | 48-entry cache under a deadline | same, unlimited budget | no | `CHAOS_report.json` |
//! | `IndexDiff` | postings-index `CS_M` | paper full scan | yes | `CHAOS_indexdiff.json` |
//! | `RepairDiff` | delta repair | invalidate-only | yes | `CHAOS_repairdiff.json` |
//!
//! One fully seeded replay loop ([`replay_cell`]) runs every mode. It fires
//! due change batches into both instances through the panic boundary,
//! audits after each burst (both sides, with one seed, when both are
//! faulted), runs every query on both sides and classifies each answer
//! pair with one symmetric soundness check ([`classify`]). The verdict is
//! [`DiffReport::passed`]. `experiments chaos --net` ([`crate::netchaos`])
//! keeps its own driver: it storms a live TCP server with concurrent
//! clients instead of stepping two instances.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gc_core::{
    AuditReport, CandidateSource, FaultInjector, FaultPlan, GcConfig, GraphCachePlus,
    HealthSnapshot, MaintenanceMode, QueryBudget, QueryOutcome,
};
use gc_dataset::{ChangePlan, PlanExecutor};
use gc_graph::LabeledGraph;
use gc_telemetry::{Histogram, HistogramSnapshot, Stage, StageSpans};
use gc_workload::Workload;

use crate::report::{latency_json, spans_json};
use crate::{
    build_dataset, build_plan, build_type_a_workloads, build_type_b_workloads, with_quiet_panics,
    Scale,
};

/// Knobs of one differential run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Dataset/workload scale.
    pub scale: Scale,
    /// The faults to inject into every workload replay.
    pub fault_plan: FaultPlan,
    /// Per-query wall-clock deadline on the subject.
    pub deadline: Duration,
    /// Auditor sampling rate after each burst (quarantine is always audited).
    pub audit_rate: f64,
}

impl ChaosConfig {
    /// Default setup for a scale: the built-in fault plan, a 250 ms
    /// deadline and full-rate audits.
    pub fn new(scale: Scale) -> ChaosConfig {
        ChaosConfig {
            scale,
            fault_plan: default_fault_plan(),
            deadline: Duration::from_millis(250),
            audit_rate: 1.0,
        }
    }
}

/// The built-in fault plan: one update panic, two query panics, one
/// injected delay and two silent corruptions — every fault category,
/// early enough to fire at any scale.
pub fn default_fault_plan() -> FaultPlan {
    "panic-update@2;corrupt@4:0;panic-query@5;delay-query@9:40;panic-query@23;corrupt@11:3"
        .parse()
        .expect("built-in fault plan parses")
}

/// Which pair of pipelines a differential run compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffMode {
    /// A faulted GC+ under a deadline against a fault-free oracle.
    Chaos,
    /// The postings-index `CS_M` against the paper's full scan, both faulted.
    IndexDiff,
    /// Delta-repair maintenance against invalidate-only, both faulted.
    RepairDiff,
}

impl DiffMode {
    /// Every mode, in CLI order.
    pub const ALL: [DiffMode; 3] = [DiffMode::Chaos, DiffMode::IndexDiff, DiffMode::RepairDiff];

    /// One-line description of the pair under test.
    pub fn title(self) -> &'static str {
        match self {
            DiffMode::Chaos => "Chaos: faulted GC+ vs fault-free oracle",
            DiffMode::IndexDiff => "Index diff: postings index vs full scan, both faulted",
            DiffMode::RepairDiff => "Repair diff: delta repair vs invalidate-only, both faulted",
        }
    }

    /// Salt XORed into the scale seed to seed op materialization.
    fn seed_salt(self) -> u64 {
        match self {
            DiffMode::Chaos => 0xC4A0_5CA0,
            DiffMode::IndexDiff => 0x1DD1_F0AD,
            DiffMode::RepairDiff => 0x6E9A_1D1F,
        }
    }

    /// Does the oracle run the fault plan, and so the same audits, too?
    fn oracle_faulted(self) -> bool {
        self != DiffMode::Chaos
    }

    /// The (subject, oracle) configurations for a workload of `queries`
    /// queries; the subject is the indexed pipeline under the deadline.
    fn configs(self, queries: usize, deadline: Duration) -> (GcConfig, GcConfig) {
        // A small cache keeps full-rate audits affordable. The diffs never
        // evict: both switches change entry benefit, so eviction would make
        // the caches differ (never the answers) and void audit comparison.
        let cache_capacity = if self == DiffMode::Chaos {
            48
        } else {
            queries + 16
        };
        let subject = GcConfig {
            cache_capacity,
            window_capacity: 8,
            budget: QueryBudget {
                deadline: Some(deadline),
                max_tests: None,
            },
            // stage spans feed the chaos report and `repair_nanos`
            trace: self != DiffMode::IndexDiff,
            // explicit, so the index diff never compares scan with scan
            candidate_source: CandidateSource::LabelIndex,
            ..GcConfig::default()
        };
        let oracle = match self {
            DiffMode::Chaos => GcConfig {
                budget: QueryBudget::UNLIMITED,
                ..subject
            },
            DiffMode::IndexDiff => GcConfig {
                candidate_source: CandidateSource::LiveScan,
                ..subject
            },
            DiffMode::RepairDiff => GcConfig {
                maintenance: MaintenanceMode::Invalidate,
                ..subject
            },
        };
        (subject, oracle)
    }

    /// The report columns, in the order the artefact writes them: the
    /// shared head, then the mode's own.
    pub fn columns(self) -> impl Iterator<Item = &'static Column> {
        let own = match self {
            DiffMode::Chaos => CHAOS_COLUMNS,
            DiffMode::IndexDiff => INDEX_DIFF_COLUMNS,
            DiffMode::RepairDiff => REPAIR_DIFF_COLUMNS,
        };
        SHARED_COLUMNS.iter().chain(own)
    }

    /// Did one workload pass? Every mode requires no divergence, no audit
    /// divergence and no entry left quarantined on either side. Chaos adds
    /// a deadline overrun of at most 2× (one retry after a contained panic
    /// is the worst legitimate case). Both diffs add equal panic counts,
    /// the index diff an index that never grew `CS_M` or rebuilt, and the
    /// repair diff no repair activity on the invalidate-only oracle.
    pub fn passed(self, c: &DiffCell) -> bool {
        let (s, o) = (&c.subject, &c.oracle);
        let panics_match = s.health.panics_recovered == o.health.panics_recovered;
        let own = match self {
            DiffMode::Chaos => c.max_overrun <= 2.0,
            DiffMode::IndexDiff => panics_match && c.candidate_violations == 0 && s.index_replay_ok,
            DiffMode::RepairDiff => panics_match && c.oracle_repair_activity() == 0,
        };
        own && c.divergent == 0 && c.audit_divergent == 0 && s.quarantined + o.quarantined == 0
    }
}

/// How one answer pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both sides undegraded and equal.
    Exact,
    /// A side degraded, and no degraded side invented an id.
    Degraded,
    /// Silently wrong: an undegraded mismatch or an invented id.
    Divergent,
}

/// The one soundness check every mode applies to an answer pair. A
/// degraded (sound partial) answer may miss positives but must never
/// invent one; two degraded answers cannot be checked against each other.
pub fn classify(a: &QueryOutcome, b: &QueryOutcome) -> Verdict {
    match (a.metrics.degraded.is_some(), b.metrics.degraded.is_some()) {
        (false, false) if a.answer == b.answer => Verdict::Exact,
        (false, false) => Verdict::Divergent,
        (true, false) if !a.answer.is_subset_of(&b.answer) => Verdict::Divergent,
        (false, true) if !b.answer.is_subset_of(&a.answer) => Verdict::Divergent,
        _ => Verdict::Degraded,
    }
}

/// End-of-run state of one side of a differential.
#[derive(Debug, Clone, Copy, Default)]
pub struct SideState {
    /// The side's fault-tolerance counters.
    pub health: HealthSnapshot,
    /// Entries still quarantined after the final audit.
    pub quarantined: usize,
    /// `|CS_M|` summed over every query.
    pub candidates: u64,
    /// Does the side keep a label index that replayed every logged change,
    /// never rebuilding?
    pub index_replay_ok: bool,
}

impl SideState {
    /// Records `gc`'s end-of-run state (the running sums stay).
    fn finish(&mut self, gc: &GraphCachePlus) {
        self.health = gc.health_snapshot();
        self.quarantined = gc.quarantined_entries();
        self.index_replay_ok = gc
            .label_index()
            .is_some_and(|idx| idx.records_replayed() == gc.log_len() as u64);
    }
}

/// Per-workload result of one differential replay, in any mode.
#[derive(Debug, Clone, Default)]
pub struct DiffCell {
    /// Workload name (ZZ / ZU / UU / 0% / 20% / 50%).
    pub workload: String,
    /// Queries replayed on both sides.
    pub queries: usize,
    /// Dataset updates applied to both sides.
    pub updates: usize,
    /// Answer pairs classified [`Verdict::Exact`].
    pub exact: usize,
    /// Answer pairs classified [`Verdict::Degraded`].
    pub degraded: usize,
    /// [`Verdict::Divergent`] pairs plus updates only one side accepted.
    pub divergent: usize,
    /// Auditor passes (one per update burst plus the final sweep).
    pub audits: usize,
    /// Audit passes whose reports differed (compared when both faulted).
    pub audit_divergent: usize,
    /// The subject's auditor activity, summed over all passes.
    pub audit_total: AuditReport,
    /// Undegraded queries where the subject examined more candidates.
    pub candidate_violations: usize,
    /// The subject's worst `elapsed / deadline` ratio.
    pub max_overrun: f64,
    /// The subject's per-query latency as the harness saw it, µs.
    pub latency: HistogramSnapshot,
    /// The subject's pipeline-stage wall time (zero unless traced).
    pub stages: StageSpans,
    /// The subject at the end of the run.
    pub subject: SideState,
    /// The oracle at the end of the run.
    pub oracle: SideState,
}

impl DiffCell {
    /// Repair-path counters on the oracle (zero if its mode disables repair).
    fn oracle_repair_activity(&self) -> u64 {
        let h = &self.oracle.health;
        h.repairs_applied + h.invalidations_avoided + h.repair_fallbacks
    }
}

/// One report column: its JSON name and the cell's value, as JSON.
pub type Column = (&'static str, fn(&DiffCell) -> String);

/// The columns every artefact starts with.
const SHARED_COLUMNS: &[Column] = &[
    ("workload", |c| format!("\"{}\"", c.workload)),
    ("queries", |c| c.queries.to_string()),
    ("updates", |c| c.updates.to_string()),
    ("exact", |c| c.exact.to_string()),
    ("degraded", |c| c.degraded.to_string()),
    ("divergent", |c| c.divergent.to_string()),
];

#[rustfmt::skip]
const CHAOS_COLUMNS: &[Column] = &[
    ("max_overrun", |c| format!("{:.4}", c.max_overrun)),
    ("panics_recovered", |c| c.subject.health.panics_recovered.to_string()),
    ("audits", |c| c.audits.to_string()),
    ("audit_sampled", |c| c.audit_total.sampled.to_string()),
    ("audit_repaired", |c| c.audit_total.repaired.to_string()),
    ("audit_evicted", |c| c.audit_total.evicted.to_string()),
    ("quarantined_final", |c| c.subject.quarantined.to_string()),
    ("latency_us", |c| latency_json(&c.latency)),
    ("stage_nanos", |c| spans_json(&c.stages)),
];

#[rustfmt::skip]
const INDEX_DIFF_COLUMNS: &[Column] = &[
    ("audit_passes", |c| c.audits.to_string()),
    ("audit_divergent", |c| c.audit_divergent.to_string()),
    ("audit_repaired", |c| c.audit_total.repaired.to_string()),
    ("candidate_violations", |c| c.candidate_violations.to_string()),
    ("index_candidates", |c| c.subject.candidates.to_string()),
    ("scan_candidates", |c| c.oracle.candidates.to_string()),
    ("panics_indexed", |c| c.subject.health.panics_recovered.to_string()),
    ("panics_scanned", |c| c.oracle.health.panics_recovered.to_string()),
    ("quarantined_indexed", |c| c.subject.quarantined.to_string()),
    ("quarantined_scanned", |c| c.oracle.quarantined.to_string()),
    ("index_replay_ok", |c| c.subject.index_replay_ok.to_string()),
];

#[rustfmt::skip]
const REPAIR_DIFF_COLUMNS: &[Column] = &[
    ("audit_passes", |c| c.audits.to_string()),
    ("audit_divergent", |c| c.audit_divergent.to_string()),
    ("audit_repaired", |c| c.audit_total.repaired.to_string()),
    ("repairs_applied", |c| c.subject.health.repairs_applied.to_string()),
    ("invalidations_avoided", |c| c.subject.health.invalidations_avoided.to_string()),
    ("repair_fallbacks", |c| c.subject.health.repair_fallbacks.to_string()),
    ("repair_nanos", |c| c.stages.get(Stage::Repair).to_string()),
    ("panics_repair", |c| c.subject.health.panics_recovered.to_string()),
    ("panics_oracle", |c| c.oracle.health.panics_recovered.to_string()),
    ("quarantined_repair", |c| c.subject.quarantined.to_string()),
    ("quarantined_oracle", |c| c.oracle.quarantined.to_string()),
];

/// Aggregated result of one [`run_diff`] invocation.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The pair that was compared.
    pub mode: DiffMode,
    /// The injected plan, in its compact string form.
    pub fault_plan: String,
    /// The per-query deadline, milliseconds.
    pub deadline_ms: u64,
    /// One result per workload.
    pub cells: Vec<DiffCell>,
}

impl DiffReport {
    /// `true` iff every workload passed the mode's verdict and, for a
    /// repair diff, the run was not vacuous: repair kept at least one entry
    /// that invalidation would have discarded.
    pub fn passed(&self) -> bool {
        let vacuous = self.mode == DiffMode::RepairDiff && self.total_invalidations_avoided() == 0;
        !vacuous && self.cells.iter().all(|c| self.mode.passed(c))
    }

    /// Validity bits the subject kept that invalidation would have cleared;
    /// a repair diff where this is zero proves nothing.
    pub fn total_invalidations_avoided(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.subject.health.invalidations_avoided)
            .sum()
    }

    /// Hand-rolled JSON with the mode's columns (the CI artefact).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"fault_plan\": \"{}\",\n  \"deadline_ms\": {},\n  \"passed\": {},\n",
            self.fault_plan,
            self.deadline_ms,
            self.passed()
        );
        if self.mode == DiffMode::RepairDiff {
            out.push_str(&format!(
                "  \"total_invalidations_avoided\": {},\n",
                self.total_invalidations_avoided()
            ));
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let fields: Vec<String> = (self.mode.columns())
                .map(|(name, value)| format!("\"{name}\": {}", value(c)))
                .collect();
            let sep = if i + 1 == self.cells.len() { "" } else { "," };
            out.push_str(&format!("    {{{}}}{sep}\n", fields.join(", ")));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs one mode over all six paper workloads.
pub fn run_diff(mode: DiffMode, cfg: &ChaosConfig) -> DiffReport {
    let dataset = build_dataset(&cfg.scale);
    let plan = build_plan(&cfg.scale);
    let mut workloads = build_type_a_workloads(&dataset, &cfg.scale);
    workloads.extend(build_type_b_workloads(&dataset, &cfg.scale));
    let run = |w| replay_cell(mode, &dataset, w, &plan, cfg);
    let cells = with_quiet_panics(|| workloads.iter().map(run).collect());
    DiffReport {
        mode,
        fault_plan: cfg.fault_plan.to_string(),
        deadline_ms: cfg.deadline.as_millis() as u64,
        cells,
    }
}

/// Replays one workload on the mode's subject and oracle, comparing every
/// answer and, when both are faulted, every audit report.
pub fn replay_cell(
    mode: DiffMode,
    dataset: &[LabeledGraph],
    workload: &Workload,
    plan: &ChangePlan,
    cfg: &ChaosConfig,
) -> DiffCell {
    let (subject_config, oracle_config) = mode.configs(workload.len(), cfg.deadline);
    let mut subject = GraphCachePlus::new(subject_config, dataset.to_vec());
    let mut oracle = GraphCachePlus::new(oracle_config, dataset.to_vec());
    subject.set_fault_injector(Arc::new(FaultInjector::new(cfg.fault_plan.clone())));
    if mode.oracle_faulted() {
        oracle.set_fault_injector(Arc::new(FaultInjector::new(cfg.fault_plan.clone())));
    }
    // Both sides get the same concrete operations, materialized against
    // the subject's store under the mode's own seed.
    let seed = cfg.scale.seed ^ mode.seed_salt();
    let mut changes = PlanExecutor::new(plan.clone(), dataset.to_vec(), seed);
    let mut cell = DiffCell {
        workload: workload.name.clone(),
        queries: workload.len(),
        ..DiffCell::default()
    };
    let latency = Histogram::new();
    // Silent corruption lands on the update path, so the auditor runs
    // right after each burst, before a query can see it.
    let audit =
        |cell: &mut DiffCell, subject: &mut GraphCachePlus, oracle: &mut GraphCachePlus, seed| {
            cell.audits += 1;
            let a = subject.audit(cfg.audit_rate, seed);
            if mode.oracle_faulted() && a != oracle.audit(cfg.audit_rate, seed) {
                cell.audit_divergent += 1;
            }
            let total = &mut cell.audit_total;
            total.sampled += a.sampled;
            total.clean += a.clean;
            total.repaired += a.repaired;
            total.evicted += a.evicted;
        };

    for (i, q) in workload.queries.iter().enumerate() {
        let mut burst = 0usize;
        for op in changes.due(i) {
            let Some(change) = changes.materialize(op, subject.store()) else {
                continue;
            };
            let a = subject.apply(change.clone());
            // an update only one side accepted is a divergence too
            cell.divergent += usize::from(a.is_ok() != oracle.apply(change).is_ok());
            burst += 1;
        }
        if burst > 0 {
            cell.updates += burst;
            let seed = cfg.scale.seed + i as u64;
            audit(&mut cell, &mut subject, &mut oracle, seed);
        }

        let t = Instant::now();
        let a = subject.execute(q, workload.kind, subject.config().budget);
        let elapsed = t.elapsed();
        let b = oracle.execute(q, workload.kind, oracle.config().budget);
        let overrun = elapsed.as_secs_f64() / cfg.deadline.as_secs_f64();
        cell.max_overrun = cell.max_overrun.max(overrun);
        latency.record(elapsed.as_micros().min(u64::MAX as u128) as u64);
        cell.subject.candidates += a.metrics.candidate_size;
        cell.oracle.candidates += b.metrics.candidate_size;
        let undegraded = a.metrics.degraded.is_none() && b.metrics.degraded.is_none();
        let grew = a.metrics.candidate_size > b.metrics.candidate_size;
        cell.candidate_violations += usize::from(undegraded && grew);
        match classify(&a, &b) {
            Verdict::Exact => cell.exact += 1,
            Verdict::Degraded => cell.degraded += 1,
            Verdict::Divergent => cell.divergent += 1,
        }
    }

    // final sweep: late faults may have left quarantined entries
    audit(&mut cell, &mut subject, &mut oracle, cfg.scale.seed);
    cell.latency = latency.snapshot();
    cell.stages = subject.stage_totals();
    cell.subject.finish(&subject);
    cell.oracle.finish(&oracle);
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_core::QueryMetrics;
    use gc_graph::BitSet;
    use gc_subiso::Interrupt;

    fn tiny_chaos_config() -> ChaosConfig {
        ChaosConfig::new(Scale {
            dataset_graphs: 40,
            num_queries: 60,
            positive_pool: 20,
            noanswer_pool: 10,
            seed: 0xC405,
        })
    }

    /// Runs `mode` under the built-in faults: nothing diverges, the faults
    /// fired and were caught, each of the mode's own checks holds, and the
    /// artefact says so.
    fn suite(mode: DiffMode) {
        let report = run_diff(mode, &tiny_chaos_config());
        assert_eq!(report.cells.len(), 6, "three Type A + three Type B");
        let (mut panics, mut repaired) = (0, 0);
        for c in &report.cells {
            let (s, o, w) = (&c.subject, &c.oracle, &c.workload);
            assert_eq!(c.divergent, 0, "{mode:?}: answer divergence in {w}");
            assert_eq!(c.audit_divergent, 0, "{mode:?}: audit divergence in {w}");
            assert!(
                s.quarantined + o.quarantined == 0,
                "{mode:?}: quarantine in {w}"
            );
            assert_eq!(c.queries, 60);
            panics += s.health.panics_recovered;
            repaired += c.audit_total.repaired;
            if mode.oracle_faulted() {
                assert_eq!(s.health.panics_recovered, o.health.panics_recovered, "{w}");
            }
            match mode {
                DiffMode::Chaos => {
                    assert!(c.max_overrun <= 2.0, "deadline overrun in {w}");
                    // telemetry rides along: one latency sample per query,
                    // and tracing accumulated real stage time
                    assert_eq!(c.latency.count, 60, "latency samples in {w}");
                    assert!(c.latency.max() > 0 && c.latency.p50() <= c.latency.p99());
                    assert!(c.stages.total() > 0, "no stage time in {w}");
                }
                DiffMode::IndexDiff => {
                    assert_eq!(c.candidate_violations, 0, "index grew CS_M in {w}");
                    assert!(s.index_replay_ok, "index rebuilt in {w}");
                    assert!(s.candidates <= o.candidates, "index examined more in {w}");
                }
                DiffMode::RepairDiff => {
                    assert_eq!(c.oracle_repair_activity(), 0, "oracle repaired in {w}")
                }
            }
        }
        assert!(report.passed());
        assert!(panics > 0, "fault plan injected no panics");
        assert!(repaired > 0, "injected corruption was never caught");
        let json = report.to_json();
        // a repair diff is vacuous unless repair kept entries that
        // invalidation would have discarded
        if mode == DiffMode::RepairDiff {
            let avoided = report.total_invalidations_avoided();
            assert!(avoided > 0, "repair mode never avoided an invalidation");
            assert!(json.contains(&format!("\"total_invalidations_avoided\": {avoided},")));
        }
        assert!(json.contains("\"passed\": true"));
        assert!(!json.contains(",\n  ]"), "no trailing comma");
    }

    #[test]
    fn chaos_suite_passes_under_builtin_faults() {
        suite(DiffMode::Chaos);
    }

    #[test]
    fn index_diff_suite_passes_under_builtin_faults() {
        suite(DiffMode::IndexDiff);
    }

    #[test]
    fn repair_diff_suite_passes_under_builtin_faults() {
        suite(DiffMode::RepairDiff);
    }

    #[test]
    fn fault_free_plan_is_all_exact() {
        let mut cfg = tiny_chaos_config();
        cfg.fault_plan = FaultPlan::none();
        let dataset = build_dataset(&cfg.scale);
        let plan = build_plan(&cfg.scale);
        let w = &build_type_a_workloads(&dataset, &cfg.scale)[0];
        for mode in DiffMode::ALL {
            let c = replay_cell(mode, &dataset, w, &plan, &cfg);
            assert_eq!(c.divergent, 0, "{mode:?}");
            assert_eq!(c.subject.health.panics_recovered, 0, "{mode:?}");
            assert_eq!(c.oracle.health.panics_recovered, 0, "{mode:?}");
            assert_eq!(c.exact + c.degraded, c.queries, "{mode:?}");
            assert!(mode.passed(&c), "{mode:?}");
        }
    }

    fn outcome(ids: &[usize], degraded: bool) -> QueryOutcome {
        QueryOutcome {
            answer: BitSet::from_indices(ids.iter().copied()),
            metrics: QueryMetrics {
                degraded: degraded.then_some(Interrupt::Deadline),
                ..QueryMetrics::default()
            },
        }
    }

    #[test]
    fn classify_catches_every_kind_of_divergence() {
        use Verdict::*;
        let full = outcome(&[1, 3, 5], false);
        // both undegraded: equal is exact, anything else is divergent
        assert_eq!(classify(&full, &outcome(&[1, 3, 5], false)), Exact);
        assert_eq!(classify(&full, &outcome(&[1, 3], false)), Divergent);
        assert_eq!(classify(&outcome(&[1, 3, 5, 7], false), &full), Divergent);
        // one side degraded, on either side: a sound subset is degraded,
        // an invented id is divergent
        assert_eq!(classify(&outcome(&[1, 5], true), &full), Degraded);
        assert_eq!(classify(&full, &outcome(&[3], true)), Degraded);
        assert_eq!(classify(&outcome(&[1, 2], true), &full), Divergent);
        assert_eq!(classify(&full, &outcome(&[5, 9], true)), Divergent);
        // both degraded: nothing to check against
        let (a, b) = (outcome(&[1], true), outcome(&[2], true));
        assert_eq!(classify(&a, &b), Degraded);
    }

    /// Every field holds its own non-zero value, so a column that reads the
    /// wrong field (or the wrong side) writes the wrong number.
    #[rustfmt::skip]
    fn distinct_cell() -> DiffCell {
        let side = |n: u64, index_replay_ok| SideState {
            health: HealthSnapshot { panics_recovered: n, repairs_applied: n + 1,
                invalidations_avoided: n + 2, repair_fallbacks: n + 3, ..Default::default() },
            quarantined: n as usize + 4, candidates: n + 5, index_replay_ok,
        };
        let (latency, mut stages) = (Histogram::new(), StageSpans::new());
        latency.record(37);
        stages.record(Stage::Prefilter, 41);
        stages.record(Stage::Repair, 42);
        DiffCell {
            workload: "ZZ".into(), queries: 10, updates: 11, exact: 12, degraded: 13,
            divergent: 14, audits: 15, audit_divergent: 16, candidate_violations: 21,
            audit_total: AuditReport { sampled: 17, clean: 18, repaired: 19, evicted: 20 },
            max_overrun: 0.25, latency: latency.snapshot(), stages,
            subject: side(50, true), oracle: side(60, false),
        }
    }

    #[test]
    fn report_json_shape() {
        let head = "\"workload\": \"ZZ\", \"queries\": 10, \"updates\": 11, \"exact\": 12, \
                    \"degraded\": 13, \"divergent\": 14";
        let own = |mode| match mode {
            DiffMode::Chaos => {
                "\"max_overrun\": 0.2500, \"panics_recovered\": 50, \"audits\": 15, \
                 \"audit_sampled\": 17, \"audit_repaired\": 19, \"audit_evicted\": 20, \
                 \"quarantined_final\": 54, \"latency_us\": {\"count\": 1, \"p50\": 37, \
                 \"p95\": 37, \"p99\": 37, \"max\": 37}, \"stage_nanos\": {\"prefilter\": 41, \
                 \"candidate_scan\": 0, \"verify\": 0, \"hit_probe\": 0, \"admission\": 0, \
                 \"audit\": 0, \"repair\": 42}"
            }
            DiffMode::IndexDiff => {
                "\"audit_passes\": 15, \"audit_divergent\": 16, \"audit_repaired\": 19, \
                 \"candidate_violations\": 21, \"index_candidates\": 55, \
                 \"scan_candidates\": 65, \"panics_indexed\": 50, \"panics_scanned\": 60, \
                 \"quarantined_indexed\": 54, \"quarantined_scanned\": 64, \
                 \"index_replay_ok\": true"
            }
            DiffMode::RepairDiff => {
                "\"audit_passes\": 15, \"audit_divergent\": 16, \"audit_repaired\": 19, \
                 \"repairs_applied\": 51, \"invalidations_avoided\": 52, \
                 \"repair_fallbacks\": 53, \"repair_nanos\": 42, \"panics_repair\": 50, \
                 \"panics_oracle\": 60, \"quarantined_repair\": 54, \"quarantined_oracle\": 64"
            }
        };
        for mode in DiffMode::ALL {
            let report = DiffReport {
                mode,
                fault_plan: "panic-query@1".into(),
                deadline_ms: 250,
                cells: vec![distinct_cell(); 2],
            };
            // the repair diff's header sums both cells' avoided invalidations
            let total = match mode {
                DiffMode::RepairDiff => "  \"total_invalidations_avoided\": 104,\n",
                _ => "",
            };
            let row = format!("    {{{head}, {}}}", own(mode));
            let expected = format!(
                "{{\n  \"fault_plan\": \"panic-query@1\",\n  \"deadline_ms\": 250,\n  \
                 \"passed\": false,\n{total}  \"cells\": [\n{row},\n{row}\n  ]\n}}\n"
            );
            assert_eq!(report.to_json(), expected, "{mode:?}");
        }
    }

    #[test]
    fn vacuous_repair_diff_fails() {
        let mut report = DiffReport {
            mode: DiffMode::RepairDiff,
            fault_plan: String::new(),
            deadline_ms: 250,
            cells: vec![DiffCell::default()],
        };
        // a clean cell, but repair never kept an entry invalidation would drop
        assert!(DiffMode::RepairDiff.passed(&report.cells[0]));
        assert!(!report.passed());
        report.cells[0].subject.health.invalidations_avoided = 1;
        assert!(report.passed());
    }
}
