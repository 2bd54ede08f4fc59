//! # GraphCache+ — consistency-preserving caching for graph-pattern queries
//!
//! A Rust reproduction of *"Ensuring Consistency in Graph Cache for
//! Graph-Pattern Queries"* (Wang, Ntarmos, Triantafillou — EDBT/ICDT 2017
//! Workshops).
//!
//! Subgraph/supergraph queries over a dataset of labeled graphs entail the
//! NP-complete subgraph isomorphism problem. GraphCache+ (GC+) caches
//! previously executed queries together with their answer sets and uses
//! subgraph/supergraph relationships between new and cached queries to
//! prune the candidate set — while the dataset *changes underneath* (graph
//! additions/deletions, edge additions/removals). Three consistency models
//! are provided: **EVI** (evict everything on change), **CON**
//! (fine-grained per-graph validity bits refreshed from the dataset change
//! log — the paper's Algorithms 1 & 2) and **CON-R** (the same refresh
//! driven by net edge deltas, so changes that cancel out keep validity —
//! the paper's §8 future work).
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`graph`] — labeled graphs, bitsets, generators ([`gc_graph`]);
//! * [`subiso`] — VF2 / VF2+ / GraphQL matchers and Method M
//!   ([`gc_subiso`]);
//! * [`dataset`] — dynamic graph store, change log, log analyzer, change
//!   plans, the synthetic AIDS dataset ([`gc_dataset`]);
//! * [`workload`] — the paper's Type A / Type B query workload generators
//!   ([`gc_workload`]);
//! * [`cache`] — the GraphCache+ system itself ([`gc_core`]).
//!
//! ## Quickstart
//!
//! ```
//! use graphcache_plus::prelude::*;
//!
//! // a tiny dataset: three labeled graphs
//! let dataset = vec![
//!     LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap(),
//!     LabeledGraph::from_parts(vec![0, 0, 1], &[(0, 1), (1, 2)]).unwrap(),
//!     LabeledGraph::from_parts(vec![1, 1], &[(0, 1)]).unwrap(),
//! ];
//! let mut gc = GraphCachePlus::new(GcConfig::default(), dataset);
//!
//! // subgraph query: which dataset graphs contain a 0–0 edge?
//! let q = LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap();
//! let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
//! assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
//!
//! // the dataset changes; GC+ keeps its answers exact
//! gc.apply(ChangeOp::Del(0)).unwrap();
//! let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
//! assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![1]);
//! ```

pub use gc_core as cache;
pub use gc_dataset as dataset;
pub use gc_graph as graph;
pub use gc_subiso as subiso;
pub use gc_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use gc_core::runtime::ftv_baseline_execute;
    pub use gc_core::{
        baseline_execute, CacheModel, CandidateSource, GcConfig, GraphCachePlus, MaintenanceMode,
        Policy, QueryBudget, QueryOutcome, RoutedOutcome, ShardedGraphCache,
    };
    pub use gc_dataset::{
        aids::{synthetic_aids, AidsConfig},
        ChangeLog, ChangeOp, ChangePlan, ChangePlanConfig, Deltas, GraphStore, LabelIndex,
        PlanExecutor,
    };
    pub use gc_graph::{BitSet, GraphSource, Label, LabeledGraph, VertexId, Zipf};
    pub use gc_subiso::{Algorithm, MethodM, QueryKind, SubgraphMatcher};
    pub use gc_workload::{generate_type_a, generate_type_b, TypeAConfig, TypeBConfig, Workload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_wires_up() {
        let dataset = vec![LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap()];
        let mut gc = GraphCachePlus::new(GcConfig::default(), dataset);
        let q = LabeledGraph::from_parts(vec![0], &[]).unwrap();
        let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        assert_eq!(out.answer.count_ones(), 1);
    }
}
