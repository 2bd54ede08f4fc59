//! The Dataset Change Plan (paper §7.1).
//!
//! > "Dataset change operations are performed in batches, with occurrence
//! > time indicated by the id of queries in workload. The plan we used for
//! > AIDS consists of 2,000 operations (in 100 batches, 20 operations per
//! > batch), during the processing of 10,000 queries. A batch of
//! > operations are generated as following: first, an occurrence time for
//! > the batch is selected uniformly at random from the id of queries;
//! > then, a type uniformly selected from {ADD, DEL, UA, UR}, a graph
//! > uniformly selected from dataset (ADD using the initial dataset …;
//! > DEL, UA and UR using the up-to-date dataset at running time) and a
//! > uniformly selected edge within the graph providing UA or UR being the
//! > selected type (UA would add an edge that has not been in the graph
//! > yet; UR would remove an existed edge)."
//!
//! Because DEL/UA/UR must bind to the *live* dataset at running time, a
//! plan stores only `(occurrence time, op type)` pairs ([`ChangePlan`]);
//! the [`PlanExecutor`] materializes concrete operations one at a time
//! against the store as it stands ([`PlanExecutor::next_due`]) and leaves
//! applying them, and logging them, to the caller: a GC+ takes each
//! through its one write path, and a differential hands the same operation
//! to both its sides.

use gc_graph::{LabeledGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::log::{ChangeOp, OpType};
use crate::store::GraphStore;

/// A planned (not yet materialized) operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedOp {
    /// The operation category to materialize.
    pub op: OpType,
}

/// One batch of planned operations, due when the query with index
/// `at_query` arrives.
#[derive(Debug, Clone)]
pub struct ChangeBatch {
    /// Workload position (query index) at which the batch fires.
    pub at_query: usize,
    /// Operations in the batch.
    pub ops: Vec<PlannedOp>,
}

/// Configuration for [`ChangePlan::generate`]. The paper's AIDS plan is
/// `batches = 100`, `ops_per_batch = 20`, `num_queries = 10_000`.
#[derive(Debug, Clone, Copy)]
pub struct ChangePlanConfig {
    /// Number of batches.
    pub batches: usize,
    /// Operations per batch.
    pub ops_per_batch: usize,
    /// Workload length the occurrence times are drawn from.
    pub num_queries: usize,
    /// RNG seed for occurrence times and op types.
    pub seed: u64,
}

impl ChangePlanConfig {
    /// The paper's plan for AIDS: 2,000 ops in 100 batches of 20 over
    /// 10,000 queries.
    pub fn paper_aids() -> Self {
        ChangePlanConfig {
            batches: 100,
            ops_per_batch: 20,
            num_queries: 10_000,
            seed: 0x6c75,
        }
    }

    /// A proportionally scaled plan for a workload of `num_queries`
    /// queries, preserving the paper's 20-ops-per-batch granularity and
    /// ops/query ratio (0.2).
    pub fn scaled(num_queries: usize, seed: u64) -> Self {
        let total_ops = num_queries / 5; // paper ratio: 2,000 ops / 10,000 queries
        let ops_per_batch = 20usize.min(total_ops.max(1));
        let batches = (total_ops / ops_per_batch).max(1);
        ChangePlanConfig {
            batches,
            ops_per_batch,
            num_queries,
            seed,
        }
    }
}

/// A generated change plan: batches sorted by occurrence time.
#[derive(Debug, Clone)]
pub struct ChangePlan {
    /// Batches in non-decreasing `at_query` order.
    pub batches: Vec<ChangeBatch>,
}

impl ChangePlan {
    /// Generates a plan per the paper's recipe.
    pub fn generate(cfg: &ChangePlanConfig) -> ChangePlan {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut batches: Vec<ChangeBatch> = (0..cfg.batches)
            .map(|_| {
                let at_query = if cfg.num_queries == 0 {
                    0
                } else {
                    rng.random_range(0..cfg.num_queries)
                };
                let ops = (0..cfg.ops_per_batch)
                    .map(|_| PlannedOp {
                        op: OpType::ALL[rng.random_range(0..4usize)],
                    })
                    .collect();
                ChangeBatch { at_query, ops }
            })
            .collect();
        batches.sort_by_key(|b| b.at_query);
        ChangePlan { batches }
    }

    /// Total planned operations.
    pub fn total_ops(&self) -> usize {
        self.batches.iter().map(|b| b.ops.len()).sum()
    }

    /// An empty plan (static dataset — the GC baseline setting).
    pub fn empty() -> ChangePlan {
        ChangePlan {
            batches: Vec::new(),
        }
    }
}

/// Materializes a [`ChangePlan`] against a live [`GraphStore`] as the
/// workload advances.
#[derive(Debug)]
pub struct PlanExecutor {
    plan: ChangePlan,
    /// Snapshot of the initial dataset; ADD re-draws from here "so as to
    /// maximally keep the original dataset characteristics".
    initial: Vec<LabeledGraph>,
    rng: StdRng,
    /// The next planned op: its batch, and its position in that batch.
    next_batch: usize,
    next_op: usize,
}

impl PlanExecutor {
    /// Creates an executor. `initial` should be the dataset as loaded
    /// (before any change).
    pub fn new(plan: ChangePlan, initial: Vec<LabeledGraph>, seed: u64) -> Self {
        PlanExecutor {
            plan,
            initial,
            rng: StdRng::seed_from_u64(seed),
            next_batch: 0,
            next_op: 0,
        }
    }

    /// The next operation of the batches due at or before `query_idx`, in
    /// plan order, drawn against `store` as it stands, so the caller
    /// applies each before it asks for the next. A planned op that cannot
    /// fire (e.g. UR on an edgeless dataset) is skipped, its draws spent.
    /// `None` once every due op has been drawn.
    pub fn next_due(&mut self, query_idx: usize, store: &GraphStore) -> Option<ChangeOp> {
        loop {
            let batch = self.plan.batches.get(self.next_batch)?;
            if batch.at_query > query_idx {
                return None;
            }
            let Some(&PlannedOp { op }) = batch.ops.get(self.next_op) else {
                self.next_batch += 1;
                self.next_op = 0;
                continue;
            };
            self.next_op += 1;
            if let Some(change) = self.materialize(op, store) {
                return Some(change);
            }
        }
    }

    /// Draws one concrete operation of category `op` against the current
    /// state of `store` without applying it. `None` when the category
    /// cannot fire.
    fn materialize(&mut self, op: OpType, store: &GraphStore) -> Option<ChangeOp> {
        match op {
            OpType::Add => {
                if self.initial.is_empty() {
                    return None;
                }
                let pick = self.rng.random_range(0..self.initial.len());
                Some(ChangeOp::Add(self.initial[pick].clone()))
            }
            OpType::Del => self.pick_live(store, |_| true).map(ChangeOp::Del),
            OpType::Ua => {
                // pick a live graph with at least one absent edge slot
                let id = self.pick_live(store, |g| {
                    let n = g.vertex_count();
                    n >= 2 && g.edge_count() < n * (n - 1) / 2
                })?;
                let (u, v) = self.pick_absent_edge(store.get(id).expect("live"));
                Some(ChangeOp::Ua { id, u, v })
            }
            OpType::Ur => {
                let id = self.pick_live(store, |g| g.edge_count() > 0)?;
                let edges: Vec<_> = store.get(id).expect("live").edges().collect();
                let (u, v) = edges[self.rng.random_range(0..edges.len())];
                Some(ChangeOp::Ur { id, u, v })
            }
        }
    }

    /// Uniformly picks a live graph id satisfying `pred`, with bounded
    /// rejection sampling followed by an exhaustive fallback.
    fn pick_live(
        &mut self,
        store: &GraphStore,
        pred: impl Fn(&LabeledGraph) -> bool,
    ) -> Option<usize> {
        let span = store.id_span();
        if span == 0 || store.live_count() == 0 {
            return None;
        }
        for _ in 0..64 {
            let id = self.rng.random_range(0..span);
            if let Some(g) = store.get(id) {
                if pred(g) {
                    return Some(id);
                }
            }
        }
        // rare fallback: scan
        let candidates: Vec<usize> = store
            .iter_live()
            .filter(|(_, g)| pred(g))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[self.rng.random_range(0..candidates.len())])
        }
    }

    /// Uniformly picks an absent (non-)edge of `g`; caller guarantees one
    /// exists.
    fn pick_absent_edge(&mut self, g: &LabeledGraph) -> (VertexId, VertexId) {
        let n = g.vertex_count() as u32;
        loop {
            let u = self.rng.random_range(0..n);
            let v = self.rng.random_range(0..n);
            if u != v && !g.has_edge(u, v) {
                return (u, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ChangeLog;
    use gc_graph::generate::random_connected_graph;

    fn small_dataset(count: usize, seed: u64) -> Vec<LabeledGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n = rng.random_range(4..10usize);
                random_connected_graph(&mut rng, n, 2, |r| r.random_range(0..4u16))
            })
            .collect()
    }

    #[test]
    fn generate_respects_config() {
        let cfg = ChangePlanConfig {
            batches: 10,
            ops_per_batch: 5,
            num_queries: 100,
            seed: 3,
        };
        let plan = ChangePlan::generate(&cfg);
        assert_eq!(plan.batches.len(), 10);
        assert_eq!(plan.total_ops(), 50);
        // sorted occurrence times within range
        for w in plan.batches.windows(2) {
            assert!(w[0].at_query <= w[1].at_query);
        }
        assert!(plan.batches.iter().all(|b| b.at_query < 100));
    }

    #[test]
    fn paper_and_scaled_configs() {
        let p = ChangePlanConfig::paper_aids();
        assert_eq!(p.batches * p.ops_per_batch, 2000);
        let s = ChangePlanConfig::scaled(1000, 1);
        assert_eq!(s.batches * s.ops_per_batch, 200);
        assert_eq!(s.ops_per_batch, 20);
        // tiny workloads still produce a valid plan
        let t = ChangePlanConfig::scaled(10, 1);
        assert!(t.batches >= 1 && t.ops_per_batch >= 1);
    }

    /// Applies every op due at `query_idx`, each drawn after the one
    /// before it landed; returns how many.
    fn apply_due(
        exec: &mut PlanExecutor,
        query_idx: usize,
        store: &mut GraphStore,
        log: &mut ChangeLog,
    ) -> usize {
        let mut applied = 0;
        while let Some(op) = exec.next_due(query_idx, store) {
            op.apply(store, log).expect("drawn against this store");
            applied += 1;
        }
        applied
    }

    #[test]
    fn executor_applies_batches_in_order() {
        let initial = small_dataset(20, 7);
        let mut store = GraphStore::from_graphs(initial.clone());
        let mut log = ChangeLog::new();
        let cfg = ChangePlanConfig {
            batches: 5,
            ops_per_batch: 4,
            num_queries: 50,
            seed: 11,
        };
        let plan = ChangePlan::generate(&cfg);
        let first_due = plan.batches[0].at_query;
        let mut exec = PlanExecutor::new(plan, initial, 13);

        // nothing due before the first batch time
        if first_due > 0 {
            assert_eq!(apply_due(&mut exec, first_due - 1, &mut store, &mut log), 0);
        }
        let mut total = 0;
        for q in 0..50 {
            total += apply_due(&mut exec, q, &mut store, &mut log);
        }
        assert!(
            exec.next_due(usize::MAX, &store).is_none(),
            "every batch fired"
        );
        assert_eq!(total, 20, "20 graphs leave every op something to act on");
        assert_eq!(log.len(), total);
    }

    #[test]
    fn ops_preserve_store_invariants() {
        let initial = small_dataset(10, 21);
        let mut store = GraphStore::from_graphs(initial.clone());
        let mut log = ChangeLog::new();
        let cfg = ChangePlanConfig {
            batches: 30,
            ops_per_batch: 10,
            num_queries: 30,
            seed: 5,
        };
        let plan = ChangePlan::generate(&cfg);
        let mut exec = PlanExecutor::new(plan, initial, 5);
        let applied: usize = (0..30)
            .map(|q| apply_due(&mut exec, q, &mut store, &mut log))
            .sum();
        // every applied op left exactly one record, on an id the store issued
        let records = log.records_since(Default::default()).unwrap();
        assert_eq!(records.len(), applied);
        assert!(records.iter().all(|r| r.graph_id < store.id_span()));
        // every live graph is still a simple graph (no panic implies sorted
        // adjacency invariants held throughout)
        for (_, g) in store.iter_live() {
            for v in g.vertices() {
                let ns = g.neighbors(v);
                assert!(ns.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn executor_skips_when_dataset_exhausted() {
        // dataset of one tiny graph; DELs will eventually exhaust it
        let initial = vec![LabeledGraph::from_parts(vec![0, 1], &[(0, 1)]).unwrap()];
        let mut store = GraphStore::from_graphs(initial.clone());
        let mut log = ChangeLog::new();
        // plan with many DELs: craft manually
        let plan = ChangePlan {
            batches: vec![ChangeBatch {
                at_query: 0,
                ops: vec![PlannedOp { op: OpType::Del }; 5],
            }],
        };
        let mut exec = PlanExecutor::new(plan, initial, 2);
        let applied = apply_due(&mut exec, 0, &mut store, &mut log);
        assert_eq!(applied, 1, "only one graph existed to delete");
        assert!(
            exec.next_due(0, &store).is_none(),
            "the other four were skipped"
        );
        assert_eq!(store.live_count(), 0);
    }
}
