//! Query Processing Runtime helpers: the cache-less runner and the
//! per-query result type (the cached pipeline is [`crate::system`]).
//!
//! The cache-less runner is "Method M without GC+" over the live dataset:
//! the tests' oracle, and the fallback after a query's pipeline panicked
//! twice. The reproduction's baseline arms are GC+ runs with neither cache
//! nor window, which find no hits and prune nothing.

use std::time::Instant;

use gc_dataset::{GraphStore, LogCursor};
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
    /// The change-log cursor the answer reflects: GC+ stamps the cursor
    /// its read ran at, so the answer is Method M's on the store replayed
    /// to it. `LogCursor(0)` where no log was read: a cache-less runner, a
    /// sharded union (its per-shard stamps are in
    /// [`RoutedOutcome::cursors`](crate::RoutedOutcome::cursors)).
    pub cursor: LogCursor,
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
    baseline_budgeted(store, method, query, kind, QueryBudget::UNLIMITED)
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
        cursor: LogCursor::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_subiso::Algorithm;

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
