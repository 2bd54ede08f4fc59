//! Query Processing Runtime helpers: the cache-less runners and the
//! per-query result type (the cached pipeline is [`crate::system`]).
//!
//! The baseline runner is "Method M without GC+" — the denominator of
//! every speedup the paper reports. It scans the live dataset with the
//! configured SI algorithm, timing the scan and counting one sub-iso test
//! per live graph.

use std::time::Instant;

use gc_dataset::GraphStore;
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::{Interrupt, MethodM, QueryKind};

use crate::fault::QueryBudget;
use crate::metrics::QueryMetrics;

/// Answer plus measurements for one executed query.
#[derive(Debug, Clone, Default)]
pub struct QueryOutcome {
    /// The answer set (bit per dataset-graph id). Exactly equal to the
    /// cache-less Method M answer — Theorems 3/6.
    pub answer: BitSet,
    /// Per-query measurements.
    pub metrics: QueryMetrics,
}

impl QueryOutcome {
    /// The outcome of a query that could not run: no answers (so still
    /// sound) and explicitly tagged `degraded` with the reason.
    pub fn degraded(why: Interrupt) -> Self {
        let mut out = QueryOutcome::default();
        out.metrics.degraded = Some(why);
        out
    }
}

/// Runs plain Method M (no cache) against the live dataset — the paper's
/// baseline configuration.
pub fn baseline_execute(
    store: &GraphStore,
    method: &MethodM,
    query: &LabeledGraph,
    kind: QueryKind,
) -> QueryOutcome {
    let started = Instant::now();
    let csm = store.live_bitset();
    let candidate_size = csm.count_ones() as u64;
    let result = method.run(query, kind, store, &csm);
    let query_time = started.elapsed();
    QueryOutcome {
        answer: result.answer,
        metrics: QueryMetrics {
            query_time,
            subiso_tests: result.tests,
            prefilter_skips: result.prefilter_skips,
            tests_saved: 0,
            candidate_size,
            ..QueryMetrics::default()
        },
    }
}

/// Cache-less budgeted execution over the live dataset — the serving path
/// when the cache is bypassed (a failed-over shard, or a query whose
/// pipeline panicked twice). Answers are exact unless the budget runs out
/// first (then sound-partial, tagged like any degraded outcome).
pub fn baseline_budgeted(
    store: &GraphStore,
    method: &MethodM,
    query: &LabeledGraph,
    kind: QueryKind,
    budget: QueryBudget,
) -> QueryOutcome {
    let started = Instant::now();
    let token = budget.token();
    let csm = store.live_bitset();
    let candidate_size = csm.count_ones() as u64;
    let m = method.run_budgeted(query, kind, store, &csm, &token);
    QueryOutcome {
        answer: m.answer,
        metrics: QueryMetrics {
            query_time: started.elapsed(),
            subiso_tests: m.tests,
            prefilter_skips: m.prefilter_skips,
            candidate_size,
            degraded: m.interrupted,
            panics_recovered: m.panics_recovered,
            ..QueryMetrics::default()
        },
    }
}

/// Runs an FTV-style baseline (no cache): the postings-bitset index
/// produces `CS_M`, then Method M verifies it with its own per-candidate
/// pre-filter off — the index already applied the full signature check
/// (the folded pre-filter), so verification is a single pass. The index
/// is synced from the log first and must be built **once** per run and
/// shared across a churning workload; rebuilding it per query throws away
/// the incremental maintenance this architecture exists for.
pub fn ftv_baseline_execute(
    store: &GraphStore,
    log: &gc_dataset::ChangeLog,
    index: &mut gc_dataset::LabelIndex,
    method: &MethodM,
    query: &LabeledGraph,
    kind: QueryKind,
) -> QueryOutcome {
    let started = Instant::now();
    index.sync(store, log);
    let csm = index.candidates(query, kind);
    let candidate_size = csm.count_ones() as u64;
    let result = method.with_prefilter(false).run(query, kind, store, &csm);
    let query_time = started.elapsed();
    QueryOutcome {
        answer: result.answer,
        metrics: QueryMetrics {
            query_time,
            subiso_tests: result.tests,
            prefilter_skips: result.prefilter_skips,
            tests_saved: store.live_count() as u64 - result.tests.min(store.live_count() as u64),
            candidate_size,
            ..QueryMetrics::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_subiso::Algorithm;

    #[test]
    fn ftv_baseline_filters_before_verifying() {
        let triangle = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let alien = LabeledGraph::from_parts(vec![5, 5], &[(0, 1)]).unwrap();
        let edge = LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap();
        let store = GraphStore::from_graphs(vec![triangle, alien, edge.clone()]);
        let log = gc_dataset::ChangeLog::new();
        let mut index = gc_dataset::LabelIndex::build(&store, &log);
        let m = MethodM::new(Algorithm::Vf2);

        let out = ftv_baseline_execute(&store, &log, &mut index, &m, &edge, QueryKind::Subgraph);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(
            out.metrics.subiso_tests, 2,
            "label filter skipped the alien graph"
        );
        assert_eq!(out.metrics.tests_saved, 1);
        // agreement with the unfiltered baseline
        let plain = baseline_execute(&store, &m, &edge, QueryKind::Subgraph);
        assert_eq!(out.answer, plain.answer);
    }

    #[test]
    fn baseline_scans_whole_live_dataset() {
        let triangle = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let edge = LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap();
        let mut store = GraphStore::from_graphs(vec![triangle, edge.clone()]);
        store.delete(1).unwrap();

        let m = MethodM::new(Algorithm::Vf2);
        let out = baseline_execute(&store, &m, &edge, QueryKind::Subgraph);
        assert_eq!(out.metrics.subiso_tests, 1, "deleted graph is not tested");
        assert_eq!(out.metrics.candidate_size, 1);
        assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0]);
        assert_eq!(out.metrics.tests_saved, 0);
    }
}
