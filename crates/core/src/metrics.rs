//! Per-query and aggregate metrics — the quantities behind Figures 4–6
//! and the §7.2 insight statistics.
//!
//! The paper reports, per configuration:
//!
//! * **query time** (Figure 4, 6) — wall time of query execution: hit
//!   discovery + candidate pruning + Method M verification;
//! * **overhead** (Figure 6) — cache maintenance off the answer's critical
//!   path: admitting into the entry table, replacement, re-indexing; for CON
//!   additionally log analysis + cache validation (tracked separately to
//!   reproduce the "<1% of CON overhead" claim);
//! * **number of sub-iso tests** (Figure 5) — Method M tests actually
//!   executed, deterministic and Method-M-independent;
//! * **hit breakdown** (§7.2 insights) — exact-match hits vs zero-test
//!   exact matches, direct/exclusion (sub/super) hits.
//!
//! Every view of a query's [`QueryMetrics`] is one of two folds:
//! `QueryMetrics::merge` joins a routed query's shards and
//! [`AggregateMetrics::record`] adds a finished query to a workload. Both
//! name every field, so a field added without being folded does not compile.

use std::time::Duration;

use gc_subiso::Interrupt;
use gc_telemetry::StageSpans;

/// Cache-hit classification for one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitBreakdown {
    /// Direct hits discovered (formula (1) contributors), counted whether
    /// or not a §6.3 shortcut then made pruning unnecessary.
    pub direct_hits: u32,
    /// Exclusion hits discovered (formula (5) contributors), counted
    /// whether or not a §6.3 shortcut then made pruning unnecessary.
    pub exclusion_hits: u32,
    /// An isomorphic cached query existed.
    pub exact_match: bool,
    /// §6.3 optimal case 1 fired (exact match, zero tests).
    pub exact_shortcut: bool,
    /// §6.3 optimal case 2 fired (provably empty answer, zero tests).
    pub empty_shortcut: bool,
}

impl HitBreakdown {
    /// Did the cache contribute to this query at all — either a usable
    /// hit (direct/exclusion) or one of the §6.3 shortcuts? Used by the
    /// sharded deployment's per-shard hit/miss counters.
    pub fn is_hit(&self) -> bool {
        self.direct_hits > 0
            || self.exclusion_hits > 0
            || self.exact_match
            || self.exact_shortcut
            || self.empty_shortcut
    }
}

/// Everything measured about one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Wall time on the answer's critical path.
    pub query_time: Duration,
    /// Cache-maintenance wall time (validation + admission/replacement).
    pub overhead_time: Duration,
    /// CON-specific share of `overhead_time`: Algorithm 1 + Algorithm 2.
    pub validation_time: Duration,
    /// Sub-iso tests Method M executed for this query.
    pub subiso_tests: u64,
    /// Of `subiso_tests`, candidates decided negatively by Method M's O(1)
    /// signature pre-filter without running the matcher.
    pub prefilter_skips: u64,
    /// Tests avoided thanks to the cache (`|CS_M| - tests executed`).
    pub tests_saved: u64,
    /// `|CS_M|` before pruning.
    pub candidate_size: u64,
    /// Hit classification.
    pub hits: HitBreakdown,
    /// `Some(interrupt)` iff the query did **not** run to completion
    /// (budget exhausted or a panic was contained) and the answer is a
    /// sound *partial* result — verified positives only, never admitted to
    /// the cache. `None` means the answer is exact (Theorems 3/6 hold).
    pub degraded: Option<Interrupt>,
    /// Worker panics contained while executing this query.
    pub panics_recovered: u64,
    /// Answer bits the maintenance pass spliced back to ground truth in
    /// place (delta repair) during this query's consistency refresh.
    pub repairs_applied: u64,
    /// Validity bits preserved that invalidate-mode maintenance would have
    /// cleared — the recomputations the repair path avoided.
    pub invalidations_avoided: u64,
    /// Affected bits the repair path had to invalidate after all because
    /// the signature disproof could not settle them.
    pub repair_fallbacks: u64,
    /// `CS_M` was the exact twin's memo (current, or patched from the
    /// change log) instead of a label-index lookup.
    pub csm_from_memo: bool,
    /// Per-stage pipeline wall time for this query. All-zero unless the
    /// system ran with [`GcConfig::trace`](crate::GcConfig::trace) on.
    pub spans: StageSpans,
}

impl QueryMetrics {
    /// Folds another shard's metrics of the same query into these: sums,
    /// the slowest shard's query time (the deployment's critical path),
    /// flags set when any shard set them, and the first degradation kept
    /// (one degraded shard degrades the union, which may lack its share).
    pub(crate) fn merge(&mut self, other: &QueryMetrics) {
        let QueryMetrics {
            query_time,
            overhead_time,
            validation_time,
            subiso_tests,
            prefilter_skips,
            tests_saved,
            candidate_size,
            hits,
            degraded,
            panics_recovered,
            repairs_applied,
            invalidations_avoided,
            repair_fallbacks,
            csm_from_memo,
            spans,
        } = other;
        let HitBreakdown {
            direct_hits,
            exclusion_hits,
            exact_match,
            exact_shortcut,
            empty_shortcut,
        } = hits;
        self.query_time = self.query_time.max(*query_time);
        self.overhead_time += *overhead_time;
        self.validation_time += *validation_time;
        self.subiso_tests += subiso_tests;
        self.prefilter_skips += prefilter_skips;
        self.tests_saved += tests_saved;
        self.candidate_size += candidate_size;
        self.hits.direct_hits += direct_hits;
        self.hits.exclusion_hits += exclusion_hits;
        self.hits.exact_match |= exact_match;
        self.hits.exact_shortcut |= exact_shortcut;
        self.hits.empty_shortcut |= empty_shortcut;
        self.degraded = self.degraded.or(*degraded);
        self.panics_recovered += panics_recovered;
        self.repairs_applied += repairs_applied;
        self.invalidations_avoided += invalidations_avoided;
        self.repair_fallbacks += repair_fallbacks;
        self.csm_from_memo |= csm_from_memo;
        self.spans.merge(spans);
    }
}

/// Running aggregation over a workload.
#[derive(Debug, Clone, Default)]
pub struct AggregateMetrics {
    /// Queries recorded.
    pub queries: u64,
    /// Sum of query times.
    pub total_query_time: Duration,
    /// Sum of overhead times.
    pub total_overhead_time: Duration,
    /// Sum of CON-specific validation times.
    pub total_validation_time: Duration,
    /// Sum of executed sub-iso tests.
    pub total_tests: u64,
    /// Sum of pre-filter-decided candidates across queries.
    pub total_prefilter_skips: u64,
    /// Sum of avoided sub-iso tests.
    pub total_tests_saved: u64,
    /// Queries that executed zero sub-iso tests.
    pub zero_test_queries: u64,
    /// Queries for which an isomorphic cached query existed.
    pub exact_match_queries: u64,
    /// Queries answered by §6.3 optimal case 1.
    pub exact_shortcuts: u64,
    /// Queries answered by §6.3 optimal case 2.
    pub empty_shortcuts: u64,
    /// Total direct hits used.
    pub direct_hits: u64,
    /// Total exclusion hits used.
    pub exclusion_hits: u64,
    /// Queries that returned an explicitly tagged partial (degraded)
    /// answer instead of the exact one.
    pub degraded_queries: u64,
    /// Worker panics contained across all recorded queries.
    pub panics_recovered: u64,
    /// Total answer bits delta-repaired in place by maintenance.
    pub repairs_applied: u64,
    /// Total validity bits preserved that invalidation would have cleared.
    pub invalidations_avoided: u64,
    /// Total affected bits the disproof could not settle, which fell back
    /// to invalidation.
    pub repair_fallbacks: u64,
    /// Queries whose `CS_M` came from an exact twin's memo.
    pub csm_memo_hits: u64,
    /// Per-stage pipeline wall time summed over all recorded queries and
    /// over the auditor's passes (all-zero when tracing is off).
    pub span_totals: StageSpans,
}

impl AggregateMetrics {
    /// Folds one query's metrics into the aggregate.
    pub fn record(&mut self, m: &QueryMetrics) {
        let QueryMetrics {
            query_time,
            overhead_time,
            validation_time,
            subiso_tests,
            prefilter_skips,
            tests_saved,
            candidate_size: _,
            hits,
            degraded,
            panics_recovered,
            repairs_applied,
            invalidations_avoided,
            repair_fallbacks,
            csm_from_memo,
            spans,
        } = m;
        let HitBreakdown {
            direct_hits,
            exclusion_hits,
            exact_match,
            exact_shortcut,
            empty_shortcut,
        } = hits;
        self.queries += 1;
        self.total_query_time += *query_time;
        self.total_overhead_time += *overhead_time;
        self.total_validation_time += *validation_time;
        self.total_tests += subiso_tests;
        self.total_prefilter_skips += prefilter_skips;
        self.total_tests_saved += tests_saved;
        self.zero_test_queries += u64::from(*subiso_tests == 0);
        self.exact_match_queries += u64::from(*exact_match);
        self.exact_shortcuts += u64::from(*exact_shortcut);
        self.empty_shortcuts += u64::from(*empty_shortcut);
        self.direct_hits += u64::from(*direct_hits);
        self.exclusion_hits += u64::from(*exclusion_hits);
        self.degraded_queries += u64::from(degraded.is_some());
        self.panics_recovered += panics_recovered;
        self.repairs_applied += repairs_applied;
        self.invalidations_avoided += invalidations_avoided;
        self.repair_fallbacks += repair_fallbacks;
        self.csm_memo_hits += u64::from(*csm_from_memo);
        self.span_totals.merge(spans);
    }

    /// Average query time in milliseconds.
    pub fn avg_query_time_ms(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.total_query_time.as_secs_f64() * 1e3 / self.queries as f64
    }

    /// Average overhead per query in milliseconds.
    pub fn avg_overhead_ms(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.total_overhead_time.as_secs_f64() * 1e3 / self.queries as f64
    }

    /// Average sub-iso tests per query.
    pub fn avg_tests(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.total_tests as f64 / self.queries as f64
    }

    /// Share of CON-specific validation inside total overhead (the paper
    /// reports it is "less than 1%").
    pub fn validation_share_of_overhead(&self) -> f64 {
        let o = self.total_overhead_time.as_secs_f64();
        if o == 0.0 {
            return 0.0;
        }
        self.total_validation_time.as_secs_f64() / o
    }
}

/// Speedup of `base` over `with_cache` for a chosen measure (paper:
/// "ratio of the average performance of the base Method M over the average
/// performance of GC+"; > 1 means GC+ improves on the base).
pub fn speedup(base: f64, with_cache: f64) -> f64 {
    if with_cache == 0.0 {
        return f64::INFINITY;
    }
    base / with_cache
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(tests: u64, q_ms: u64, o_ms: u64) -> QueryMetrics {
        QueryMetrics {
            query_time: Duration::from_millis(q_ms),
            overhead_time: Duration::from_millis(o_ms),
            validation_time: Duration::from_micros(o_ms * 5),
            subiso_tests: tests,
            prefilter_skips: tests / 2,
            tests_saved: 10 - tests.min(10),
            candidate_size: 10,
            hits: HitBreakdown {
                direct_hits: 1,
                exclusion_hits: 2,
                exact_match: tests == 0,
                exact_shortcut: tests == 0,
                empty_shortcut: false,
            },
            ..QueryMetrics::default()
        }
    }

    #[test]
    fn aggregation_sums_and_averages() {
        let mut agg = AggregateMetrics::default();
        agg.record(&metrics(10, 100, 4));
        agg.record(&metrics(0, 10, 2));
        assert_eq!(agg.queries, 2);
        assert_eq!(agg.total_tests, 10);
        assert_eq!(agg.total_prefilter_skips, 5);
        assert_eq!(agg.zero_test_queries, 1);
        assert_eq!(agg.exact_match_queries, 1);
        assert_eq!(agg.exact_shortcuts, 1);
        assert_eq!(agg.direct_hits, 2);
        assert_eq!(agg.exclusion_hits, 4);
        assert!((agg.avg_query_time_ms() - 55.0).abs() < 1e-9);
        assert!((agg.avg_overhead_ms() - 3.0).abs() < 1e-9);
        assert!((agg.avg_tests() - 5.0).abs() < 1e-9);
        assert!(agg.validation_share_of_overhead() > 0.0);
    }

    #[test]
    fn empty_aggregate_is_zero() {
        let agg = AggregateMetrics::default();
        assert_eq!(agg.avg_query_time_ms(), 0.0);
        assert_eq!(agg.avg_tests(), 0.0);
        assert_eq!(agg.validation_share_of_overhead(), 0.0);
    }

    #[test]
    fn degraded_and_panic_counters_fold() {
        let mut agg = AggregateMetrics::default();
        let mut m = metrics(3, 1, 1);
        m.degraded = Some(Interrupt::Deadline);
        m.panics_recovered = 2;
        agg.record(&m);
        agg.record(&metrics(1, 1, 1));
        assert_eq!(agg.degraded_queries, 1);
        assert_eq!(agg.panics_recovered, 2);
    }

    #[test]
    fn maintenance_counters_fold() {
        let mut agg = AggregateMetrics::default();
        let mut m = metrics(2, 1, 1);
        m.repairs_applied = 3;
        m.invalidations_avoided = 5;
        m.repair_fallbacks = 1;
        agg.record(&m);
        m.csm_from_memo = true;
        agg.record(&m);
        assert_eq!(agg.repairs_applied, 6);
        assert_eq!(agg.invalidations_avoided, 10);
        assert_eq!(agg.repair_fallbacks, 2);
        assert_eq!(agg.csm_memo_hits, 1);
    }

    #[test]
    fn hit_breakdown_classification() {
        assert!(!HitBreakdown::default().is_hit());
        for set in [
            HitBreakdown {
                direct_hits: 1,
                ..HitBreakdown::default()
            },
            HitBreakdown {
                exclusion_hits: 1,
                ..HitBreakdown::default()
            },
            HitBreakdown {
                exact_match: true,
                ..HitBreakdown::default()
            },
            HitBreakdown {
                empty_shortcut: true,
                ..HitBreakdown::default()
            },
        ] {
            assert!(set.is_hit(), "{set:?}");
        }
    }

    #[test]
    fn span_totals_accumulate_across_queries() {
        use gc_telemetry::Stage;
        let mut agg = AggregateMetrics::default();
        let mut m = metrics(2, 1, 1);
        m.spans.record(Stage::HitProbe, 100);
        m.spans.record(Stage::Verify, 40);
        agg.record(&m);
        agg.record(&m);
        assert_eq!(agg.span_totals.get(Stage::HitProbe), 200);
        assert_eq!(agg.span_totals.get(Stage::Verify), 80);
        assert_eq!(agg.span_totals.get(Stage::Audit), 0);
    }

    #[test]
    fn merge_folds_every_field() {
        use gc_telemetry::Stage;
        let shard = |base: u64| {
            let mut m = QueryMetrics {
                query_time: Duration::from_micros(base),
                overhead_time: Duration::from_micros(base + 1),
                validation_time: Duration::from_micros(base + 2),
                subiso_tests: base + 3,
                prefilter_skips: base + 4,
                tests_saved: base + 5,
                candidate_size: base + 6,
                hits: HitBreakdown {
                    direct_hits: base as u32 + 7,
                    exclusion_hits: base as u32 + 8,
                    exact_match: false,
                    exact_shortcut: false,
                    empty_shortcut: false,
                },
                degraded: None,
                panics_recovered: base + 9,
                repairs_applied: base + 10,
                invalidations_avoided: base + 11,
                repair_fallbacks: base + 12,
                csm_from_memo: false,
                spans: StageSpans::default(),
            };
            m.spans.record(Stage::Verify, base + 13);
            m
        };
        let flagged = |mut m: QueryMetrics| {
            m.hits.exact_match = true;
            m.hits.exact_shortcut = true;
            m.hits.empty_shortcut = true;
            m.csm_from_memo = true;
            m
        };
        let mut a = shard(100);
        a.degraded = Some(Interrupt::TestCap);
        let mut b = flagged(shard(1000));
        b.degraded = Some(Interrupt::Deadline);
        a.merge(&b);
        assert_eq!(a.query_time, Duration::from_micros(1000), "slowest shard");
        assert_eq!(a.overhead_time, Duration::from_micros(1102));
        assert_eq!(a.validation_time, Duration::from_micros(1104));
        assert_eq!(a.subiso_tests, 1106);
        assert_eq!(a.prefilter_skips, 1108);
        assert_eq!(a.tests_saved, 1110);
        assert_eq!(a.candidate_size, 1112);
        assert_eq!(a.hits.direct_hits, 1114);
        assert_eq!(a.hits.exclusion_hits, 1116);
        assert!(a.hits.exact_match && a.hits.exact_shortcut && a.hits.empty_shortcut);
        assert_eq!(
            a.degraded,
            Some(Interrupt::TestCap),
            "first degradation kept"
        );
        assert_eq!(a.panics_recovered, 1118);
        assert_eq!(a.repairs_applied, 1120);
        assert_eq!(a.invalidations_avoided, 1122);
        assert_eq!(a.repair_fallbacks, 1124);
        assert!(a.csm_from_memo);
        assert_eq!(a.spans.get(Stage::Verify), 1126);
        // a flag stays set, and a later degradation degrades a clean fold
        let mut clean = flagged(shard(1));
        clean.merge(&shard(2));
        assert!(clean.hits.exact_match && clean.hits.exact_shortcut);
        assert!(clean.hits.empty_shortcut && clean.csm_from_memo);
        clean.merge(&b);
        assert_eq!(clean.degraded, Some(Interrupt::Deadline));
    }

    #[test]
    fn speedup_definition() {
        assert_eq!(speedup(100.0, 20.0), 5.0);
        assert_eq!(speedup(10.0, 0.0), f64::INFINITY);
        assert!(speedup(10.0, 20.0) < 1.0);
    }
}
