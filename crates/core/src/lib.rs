//! GraphCache+ (GC+) — a consistency-preserving semantic cache for
//! subgraph/supergraph queries over *dynamic* graph datasets.
//!
//! This crate is the paper's primary contribution. A [`GraphCachePlus`]
//! instance owns the dataset ([`gc_dataset::GraphStore`] + change log) and
//! the cache subsystems of Figure 1:
//!
//! * **Dataset Manager** — change log + log analysis into one per-graph
//!   [delta classification](gc_dataset::Deltas) (in `gc-dataset`),
//!   consumed here by the Cache Validator;
//! * **Cache Manager** — [`entries::Entries`] (one ordered table of
//!   [`entry::CachedQuery`] entries: the bounded cache, then the window
//!   that batches admissions into it), [`stats`] statistics manager,
//!   [`policy`] replacement (the paper's HD: PIN or PINC, picked by the
//!   spread of `R`), and the [`validator`]'s single refresh pass behind
//!   the consistency models:
//!   [`config::CacheModel::Evi`] (purge on any change),
//!   [`config::CacheModel::Con`] (Algorithm 2 per-graph validity refresh)
//!   and [`config::CacheModel::ConRetro`] (the same refresh driven by net
//!   edge deltas, the paper's §8 future work);
//! * **Query Processing Runtime** — [`processor`] (GC+sub / GC+super hit
//!   discovery against cached queries), [`pruner`] (candidate-set pruning,
//!   formulas (1)–(5) of §6, plus both §6.3 optimal cases), [`system`]
//!   (the per-query pipeline behind [`GraphCachePlus::execute`], with the
//!   paper's metrics: query time, overhead, sub-iso test counts, hit
//!   breakdown) and [`runtime`] (cache-less Method M — the tests' oracle
//!   and the fallback after a second panic — and [`QueryOutcome`]);
//! * **Method M** — any [`gc_subiso::MethodM`] (VF2, VF2+ or GQL).
//!
//! The answers produced are *exactly* those of cache-less Method M — the
//! paper's Theorems 3 and 6, enforced in this repo by integration and
//! property tests rather than trust.
//!
//! ```
//! use gc_core::{GcConfig, GraphCachePlus, QueryBudget};
//! use gc_graph::LabeledGraph;
//! use gc_subiso::QueryKind;
//!
//! let g0 = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
//! let g1 = LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap();
//! let mut gc = GraphCachePlus::new(GcConfig::default(), vec![g0, g1]);
//!
//! let q = LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap();
//! let out = gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
//! assert_eq!(out.answer.iter_ones().collect::<Vec<_>>(), vec![0, 1]);
//! ```

pub mod config;
pub mod entries;
pub mod entry;
pub mod fault;
pub mod metrics;
pub mod policy;
pub mod processor;
pub mod pruner;
pub mod runtime;
pub mod sharded;
pub mod stats;
pub mod system;
pub mod validator;

// Unit tests of the cache and window parts of the entry table.
#[cfg(test)]
mod cache;
#[cfg(test)]
mod window;

pub use config::{CacheModel, CandidateSource, GcConfig, MaintenanceMode};
pub use fault::{
    Fault, FaultInjector, FaultPlan, HealthCounter, HealthSnapshot, QueryBudget, RequestDirective,
    RuntimeHealth,
};
pub use metrics::{AggregateMetrics, HitBreakdown, QueryMetrics};
pub use sharded::{
    RoutedOutcome, ShardStats, ShardStatsSnapshot, ShardedGraphCache, PANIC_FAILOVER_THRESHOLD,
};
pub use system::{baseline_execute, AuditReport, GraphCachePlus, MemoryLedger, QueryOutcome};
pub use validator::MaintenanceOutcome;
