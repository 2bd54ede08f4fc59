//! The dynamic graph dataset substrate of GraphCache+.
//!
//! The paper's Dataset Manager owns the dataset graphs and the change log.
//! This crate provides:
//!
//! * [`GraphStore`] — an id-stable store of labeled graphs supporting the
//!   four change operations of the paper (ADD, DEL, UA = edge addition,
//!   UR = edge removal). Ids are never reused, so the `BitSet`-indexed
//!   answer/validity structures of the cache stay positionally stable;
//! * [`ChangeLog`] — the append-only dataset log with an *incremental
//!   records* cursor (Algorithm 1 line 5);
//! * [`Deltas`] — the Log Analyzer: one [`Delta`] per graph the
//!   incremental records touched, by Algorithm 1's operation categories
//!   (CON) or by net edge delta (CON-R);
//! * [`ChangePlan`] / [`PlanExecutor`] — the paper's "Dataset Change Plan"
//!   (§7.1): batches of operations whose occurrence times are uniform over
//!   query ids, with types uniform over {ADD, DEL, UA, UR}; ADD re-draws
//!   from the *initial* dataset to preserve its characteristics, DEL/UA/UR
//!   act on the live dataset at running time;
//! * [`aids::synthetic_aids`] — the synthetic stand-in for the NCI AIDS
//!   antiviral screen dataset, matched to the published moments (see
//!   DESIGN.md §3).

pub mod aids;
pub mod analyzer;
pub mod index;
pub mod log;
pub mod plan;
pub mod store;

pub use analyzer::{Delta, Deltas};
pub use index::LabelIndex;
pub use log::{ChangeLog, ChangeOp, ChangeRecord, LogCursor, OpType};
pub use plan::{ChangePlan, ChangePlanConfig, PlanExecutor, PlannedOp};
pub use store::{DatasetError, GraphId, GraphStore};
