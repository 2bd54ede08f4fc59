//! The dataset change log.
//!
//! Every applied change appends a [`ChangeRecord`] — `(graph id, op type)`
//! — exactly the information Algorithm 1 consumes. Consumers (the Cache
//! Validator, via the Log Analyzer, and the label index) remember a
//! [`LogCursor`]; the records appended after their cursor are the paper's
//! "incremental records that have not been reflected in cache" (Algorithm 1
//! line 5).
//!
//! # The window
//!
//! Cursors count every record ever appended: [`head`](ChangeLog::head) and
//! [`len`](ChangeLog::len) never go back. The log itself keeps only the
//! records from its [`base`](ChangeLog::base) to the head. Whoever owns the
//! log and every consumer's cursor may move the base forward with
//! [`forget_before`](ChangeLog::forget_before), and must never move it past
//! a cursor someone will still read from: `gc_core`'s GC+ forgets only what
//! its maintenance pass and its label index have both read (see its
//! `system` module). A log nobody forgets keeps everything, as before.
//!
//! [`records_since`](ChangeLog::records_since) returns `None` for a cursor
//! behind the base: the records it names are gone, and a caller that holds
//! one decides what that means (a memo is looked up afresh; a maintenance
//! pass or an index treats it as a bug). It never returns a short slice.

use gc_graph::{LabeledGraph, VertexId};

use crate::store::{DatasetError, GraphId, GraphStore};

/// The four dataset change categories of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Graph addition.
    Add,
    /// Graph deletion.
    Del,
    /// Graph update by edge addition.
    Ua,
    /// Graph update by edge removal.
    Ur,
}

impl OpType {
    /// All types, in the paper's enumeration order.
    pub const ALL: [OpType; 4] = [OpType::Add, OpType::Del, OpType::Ua, OpType::Ur];

    /// Paper abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            OpType::Add => "ADD",
            OpType::Del => "DEL",
            OpType::Ua => "UA",
            OpType::Ur => "UR",
        }
    }
}

impl std::fmt::Display for OpType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully materialized change operation, ready to [`apply`](Self::apply)
/// to a [`GraphStore`].
#[derive(Debug, Clone)]
pub enum ChangeOp {
    /// Insert this graph under a fresh id.
    Add(LabeledGraph),
    /// Delete the graph with this id.
    Del(GraphId),
    /// Add edge `(u, v)` to graph `id`.
    Ua {
        /// Target graph id.
        id: GraphId,
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// Remove edge `(u, v)` from graph `id`.
    Ur {
        /// Target graph id.
        id: GraphId,
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
}

impl ChangeOp {
    /// The log category of this operation.
    pub fn op_type(&self) -> OpType {
        match self {
            ChangeOp::Add(_) => OpType::Add,
            ChangeOp::Del(_) => OpType::Del,
            ChangeOp::Ua { .. } => OpType::Ua,
            ChangeOp::Ur { .. } => OpType::Ur,
        }
    }

    /// Writes the operation into `store` and, when that succeeds, its
    /// record into `log`. Returns the assigned id for ADD, the affected id
    /// otherwise; a rejected operation leaves both untouched.
    pub fn apply(
        self,
        store: &mut GraphStore,
        log: &mut ChangeLog,
    ) -> Result<GraphId, DatasetError> {
        match self {
            ChangeOp::Add(g) => {
                let id = store.add_graph(g);
                log.append(id, OpType::Add);
                Ok(id)
            }
            ChangeOp::Del(id) => {
                store.delete(id)?;
                log.append(id, OpType::Del);
                Ok(id)
            }
            ChangeOp::Ua { id, u, v } => {
                store.add_edge(id, u, v)?;
                log.append_edge(id, OpType::Ua, u, v);
                Ok(id)
            }
            ChangeOp::Ur { id, u, v } => {
                store.remove_edge(id, u, v)?;
                log.append_edge(id, OpType::Ur, u, v);
                Ok(id)
            }
        }
    }
}

/// One line of the dataset log: which graph changed, and how.
///
/// `edge` carries the touched endpoints for UA/UR records (normalized
/// `u < v`). Algorithm 1 ignores it; the *retrospective* analysis (CON-R,
/// the paper's future-work extension: [`crate::Deltas::by_net_edge`]) uses
/// it to detect changes that net out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeRecord {
    /// The affected dataset graph (for ADD: the id the graph received).
    pub graph_id: GraphId,
    /// The operation category.
    pub op: OpType,
    /// For UA/UR: the edge endpoints, normalized `u < v`. `None` for
    /// ADD/DEL.
    pub edge: Option<(VertexId, VertexId)>,
}

impl ChangeRecord {
    /// An ADD/DEL record.
    pub fn structural(graph_id: GraphId, op: OpType) -> Self {
        debug_assert!(matches!(op, OpType::Add | OpType::Del));
        ChangeRecord {
            graph_id,
            op,
            edge: None,
        }
    }

    /// A UA/UR record with its edge (endpoints normalized).
    pub fn edge(graph_id: GraphId, op: OpType, u: VertexId, v: VertexId) -> Self {
        debug_assert!(matches!(op, OpType::Ua | OpType::Ur));
        ChangeRecord {
            graph_id,
            op,
            edge: Some((u.min(v), u.max(v))),
        }
    }
}

/// A consumer's position in the log; records at indices `>= cursor` are
/// the consumer's pending "incremental records".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogCursor(pub usize);

/// Append-only dataset change log that keeps the records from its base to
/// its head (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    /// The records at cursors `base..head`, in order.
    records: Vec<ChangeRecord>,
    /// Records forgotten so far: the cursor of `records[0]`.
    base: usize,
}

impl ChangeLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an ADD/DEL record.
    pub fn append(&mut self, graph_id: GraphId, op: OpType) {
        self.records.push(ChangeRecord {
            graph_id,
            op,
            edge: None,
        });
    }

    /// Appends a UA/UR record with its edge endpoints.
    pub fn append_edge(&mut self, graph_id: GraphId, op: OpType, u: VertexId, v: VertexId) {
        self.records.push(ChangeRecord::edge(graph_id, op, u, v));
    }

    /// Total records ever appended, forgotten ones included.
    pub fn len(&self) -> usize {
        self.base + self.records.len()
    }

    /// `true` iff nothing was ever logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cursor pointing just past the current tail.
    pub fn head(&self) -> LogCursor {
        LogCursor(self.len())
    }

    /// The oldest cursor the log can still read from: every record before
    /// it is forgotten.
    pub fn base(&self) -> LogCursor {
        LogCursor(self.base)
    }

    /// Records still held: those from the base to the head.
    pub fn retained(&self) -> usize {
        self.records.len()
    }

    /// The incremental records since `cursor` (Algorithm 1 line 5), or
    /// `None` when `cursor` is behind the base and some of them are
    /// forgotten. A cursor past the head reads as the head.
    pub fn records_since(&self, cursor: LogCursor) -> Option<&[ChangeRecord]> {
        let from = cursor.0.checked_sub(self.base)?;
        Some(&self.records[from.min(self.records.len())..])
    }

    /// `true` iff records were appended after `cursor` — the Dataset
    /// Manager's "has the dataset been changed recently?" check that gates
    /// cache validation on each query arrival.
    pub fn changed_since(&self, cursor: LogCursor) -> bool {
        cursor.0 < self.len()
    }

    /// Forgets every record before `cursor` (clamped to the head), moving
    /// the base there; a cursor at or behind the base forgets nothing. The
    /// records kept move to the front of the buffer, which keeps its
    /// capacity. The caller vouches that no consumer will read from before
    /// `cursor` again.
    pub fn forget_before(&mut self, cursor: LogCursor) {
        let upto = cursor.0.min(self.len());
        if upto > self.base {
            self.records.drain(..upto - self.base);
            self.base = upto;
        }
    }

    /// Bytes the log holds: its buffer's capacity in records.
    pub fn memory_bytes(&self) -> u64 {
        (self.records.capacity() * std::mem::size_of::<ChangeRecord>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_tracks_incremental_records() {
        let mut log = ChangeLog::new();
        assert!(log.is_empty());
        let c0 = log.head();
        assert!(!log.changed_since(c0));

        log.append(3, OpType::Ua);
        log.append(3, OpType::Ur);
        assert!(log.changed_since(c0));
        assert_eq!(log.records_since(c0).unwrap().len(), 2);

        let c1 = log.head();
        log.append(7, OpType::Del);
        let inc = log.records_since(c1).unwrap();
        assert_eq!(inc, &[ChangeRecord::structural(7, OpType::Del)]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn stale_cursor_is_clamped() {
        let log = ChangeLog::new();
        assert_eq!(log.records_since(LogCursor(10)), Some(&[][..]));
    }

    #[test]
    fn forgetting_moves_the_base_and_keeps_every_cursor() {
        let mut log = ChangeLog::new();
        for id in 0..5 {
            log.append(id, OpType::Ua);
        }
        log.forget_before(LogCursor(3));
        assert_eq!(log.base(), LogCursor(3));
        assert_eq!(log.retained(), 2);
        // head, len and changed_since still count every record ever appended
        assert_eq!(log.head(), LogCursor(5));
        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
        assert!(log.changed_since(LogCursor(0)));
        assert!(log.changed_since(LogCursor(4)));
        assert!(!log.changed_since(LogCursor(5)));
        // a cursor at or past the base reads what it always read
        let kept = [3, 4].map(|graph_id| ChangeRecord {
            graph_id,
            op: OpType::Ua,
            edge: None,
        });
        assert_eq!(log.records_since(LogCursor(3)), Some(&kept[..]));
        assert_eq!(log.records_since(LogCursor(4)), Some(&kept[1..]));
        assert_eq!(log.records_since(log.head()), Some(&[][..]));
        // behind the base: None, never a short slice
        assert_eq!(log.records_since(LogCursor(2)), None);
        assert_eq!(log.records_since(LogCursor(0)), None);
        // appends after forgetting land at the head as before
        log.append(9, OpType::Add);
        assert_eq!(log.records_since(LogCursor(5)).unwrap()[0].graph_id, 9);
        assert_eq!(log.len(), 6);
    }

    #[test]
    fn forget_before_never_goes_back_or_past_the_head() {
        let mut log = ChangeLog::new();
        log.forget_before(LogCursor(4));
        assert_eq!(log.base(), LogCursor(0), "nothing to forget");
        log.append(1, OpType::Add);
        log.append(2, OpType::Add);
        log.forget_before(LogCursor(1));
        log.forget_before(LogCursor(0));
        assert_eq!(log.base(), LogCursor(1), "the base never moves back");
        log.forget_before(LogCursor(99));
        assert_eq!(log.base(), log.head(), "clamped to the head");
        assert_eq!(log.retained(), 0);
        assert_eq!(log.records_since(log.head()), Some(&[][..]));
        assert_eq!(log.records_since(LogCursor(1)), None);
    }

    #[test]
    fn memory_bytes_counts_capacity_not_length() {
        let mut log = ChangeLog::new();
        assert_eq!(log.memory_bytes(), 0);
        for id in 0..100 {
            log.append(id, OpType::Ua);
        }
        let full = log.memory_bytes();
        assert!(full >= 100 * std::mem::size_of::<ChangeRecord>() as u64);
        log.forget_before(LogCursor(90));
        assert_eq!(log.memory_bytes(), full, "forgetting keeps the buffer");
    }

    #[test]
    fn edge_records_normalize_endpoints() {
        let r = ChangeRecord::edge(4, OpType::Ua, 9, 2);
        assert_eq!(r.edge, Some((2, 9)));
        let mut log = ChangeLog::new();
        log.append_edge(4, OpType::Ur, 5, 1);
        assert_eq!(
            log.records_since(LogCursor::default()).unwrap()[0].edge,
            Some((1, 5))
        );
    }

    #[test]
    fn op_types_roundtrip() {
        for t in OpType::ALL {
            assert!(!t.name().is_empty());
        }
        assert_eq!(OpType::Ua.to_string(), "UA");
        let op = ChangeOp::Ua { id: 1, u: 0, v: 1 };
        assert_eq!(op.op_type(), OpType::Ua);
        assert_eq!(ChangeOp::Del(0).op_type(), OpType::Del);
        assert_eq!(ChangeOp::Add(LabeledGraph::new()).op_type(), OpType::Add);
        assert_eq!(ChangeOp::Ur { id: 0, u: 0, v: 1 }.op_type(), OpType::Ur);
    }
}
