//! The dataset change log.
//!
//! Every applied change appends a [`ChangeRecord`] — `(graph id, op type)`
//! — exactly the information Algorithm 1 consumes. Consumers (the Cache
//! Validator, via the Log Analyzer) remember a [`LogCursor`]; the records
//! appended after their cursor are the paper's "incremental records that
//! have not been reflected in cache" (Algorithm 1 line 5).

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

/// Append-only dataset change log.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    records: Vec<ChangeRecord>,
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

    /// Total records ever appended.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` iff nothing was ever logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The cursor pointing just past the current tail.
    pub fn head(&self) -> LogCursor {
        LogCursor(self.records.len())
    }

    /// The incremental records since `cursor` (Algorithm 1 line 5).
    pub fn records_since(&self, cursor: LogCursor) -> &[ChangeRecord] {
        &self.records[cursor.0.min(self.records.len())..]
    }

    /// `true` iff records were appended after `cursor` — the Dataset
    /// Manager's "has the dataset been changed recently?" check that gates
    /// cache validation on each query arrival.
    pub fn changed_since(&self, cursor: LogCursor) -> bool {
        cursor.0 < self.records.len()
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
        assert_eq!(log.records_since(c0).len(), 2);

        let c1 = log.head();
        log.append(7, OpType::Del);
        let inc = log.records_since(c1);
        assert_eq!(inc, &[ChangeRecord::structural(7, OpType::Del)]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn stale_cursor_is_clamped() {
        let log = ChangeLog::new();
        assert_eq!(log.records_since(LogCursor(10)).len(), 0);
    }

    #[test]
    fn edge_records_normalize_endpoints() {
        let r = ChangeRecord::edge(4, OpType::Ua, 9, 2);
        assert_eq!(r.edge, Some((2, 9)));
        let mut log = ChangeLog::new();
        log.append_edge(4, OpType::Ur, 5, 1);
        assert_eq!(
            log.records_since(LogCursor::default())[0].edge,
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
