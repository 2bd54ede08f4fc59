//! The id-stable graph store.
//!
//! Dataset-graph ids index the cache's `Answer` and `CGvalid` bitsets
//! (paper Algorithm 2 speaks of "currently maximum graph id m in dataset"),
//! so ids must be dense-ish, monotonically assigned, and **never reused**:
//! a deleted graph leaves a tombstone. The live candidate set `CS_M` is the
//! bitset of non-tombstoned ids.

use gc_graph::{BitSet, GraphBytes, GraphError, GraphSource, LabeledGraph, VertexId};

/// Stable dataset-graph identifier (bit position in answer/validity sets).
pub type GraphId = usize;

/// Errors raised by dataset mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The id was never assigned or the graph has been deleted.
    NoSuchGraph(GraphId),
    /// The underlying edge mutation failed (UA on existing edge, UR on
    /// missing edge, bad endpoint…).
    Graph { id: GraphId, source: GraphError },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::NoSuchGraph(id) => write!(f, "no graph with id {id}"),
            DatasetError::Graph { id, source } => write!(f, "graph {id}: {source}"),
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatasetError::Graph { source, .. } => Some(source),
            DatasetError::NoSuchGraph(_) => None,
        }
    }
}

/// An id-stable store of labeled graphs with ADD/DEL/UA/UR mutations.
///
/// Under ADD/DEL, store slots and every id-indexed bitset (answers,
/// validity, `CS_M` memos, the label index's postings) grow with the ids
/// ever assigned, not with the graphs alive.
#[derive(Debug, Clone, Default)]
pub struct GraphStore {
    slots: Vec<Option<LabeledGraph>>,
    live: usize,
}

impl GraphStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-loads an initial dataset; graph `i` receives id `i`.
    pub fn from_graphs(graphs: Vec<LabeledGraph>) -> Self {
        let live = graphs.len();
        GraphStore {
            slots: graphs.into_iter().map(Some).collect(),
            live,
        }
    }

    /// **ADD**: inserts a graph under a fresh id (`max_id + 1`).
    pub fn add_graph(&mut self, g: LabeledGraph) -> GraphId {
        self.slots.push(Some(g));
        self.live += 1;
        self.slots.len() - 1
    }

    /// **DEL**: removes the graph, leaving a tombstone. The id is never
    /// reused.
    pub fn delete(&mut self, id: GraphId) -> Result<LabeledGraph, DatasetError> {
        match self.slots.get_mut(id) {
            Some(slot @ Some(_)) => {
                self.live -= 1;
                Ok(slot.take().expect("matched Some"))
            }
            _ => Err(DatasetError::NoSuchGraph(id)),
        }
    }

    /// **UA**: adds edge `(u, v)` to graph `id`.
    pub fn add_edge(&mut self, id: GraphId, u: VertexId, v: VertexId) -> Result<(), DatasetError> {
        let g = self.get_mut(id)?;
        g.add_edge(u, v)
            .map_err(|source| DatasetError::Graph { id, source })
    }

    /// **UR**: removes edge `(u, v)` from graph `id`.
    pub fn remove_edge(
        &mut self,
        id: GraphId,
        u: VertexId,
        v: VertexId,
    ) -> Result<(), DatasetError> {
        let g = self.get_mut(id)?;
        g.remove_edge(u, v)
            .map_err(|source| DatasetError::Graph { id, source })
    }

    /// The live graph with this id, if any.
    pub fn get(&self, id: GraphId) -> Option<&LabeledGraph> {
        self.slots.get(id).and_then(Option::as_ref)
    }

    fn get_mut(&mut self, id: GraphId) -> Result<&mut LabeledGraph, DatasetError> {
        self.slots
            .get_mut(id)
            .and_then(Option::as_mut)
            .ok_or(DatasetError::NoSuchGraph(id))
    }

    /// Number of live graphs.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of ids ever assigned (`max_id + 1`).
    pub fn id_span(&self) -> usize {
        self.slots.len()
    }

    /// The bytes the store holds, by feature: every live graph's
    /// [`GraphBytes`], with the slot vector's tombstones and spare capacity
    /// under `csr`.
    pub fn memory_bytes(&self) -> GraphBytes {
        let slot = std::mem::size_of::<Option<LabeledGraph>>();
        let mut total = GraphBytes {
            csr: ((self.slots.capacity() - self.live) * slot) as u64,
            ..GraphBytes::default()
        };
        for (_, g) in self.iter_live() {
            total += g.memory_bytes();
        }
        total
    }

    /// Iterator over live `(id, graph)` pairs.
    pub fn iter_live(&self) -> impl Iterator<Item = (GraphId, &LabeledGraph)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|g| (i, g)))
    }

    /// The live candidate set `CS_M` — a bitset with one bit per live id.
    pub fn live_bitset(&self) -> BitSet {
        let mut b = BitSet::with_capacity(self.slots.len());
        for (i, s) in self.slots.iter().enumerate() {
            if s.is_some() {
                b.set(i, true);
            }
        }
        b
    }
}

impl GraphSource for GraphStore {
    fn graph(&self, id: usize) -> Option<&LabeledGraph> {
        self.get(id)
    }
    fn id_span(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path on `n` vertices labelled `0..n`.
    fn g(n: usize) -> LabeledGraph {
        let edges: Vec<_> = (1..n as u32).map(|i| (i - 1, i)).collect();
        LabeledGraph::from_parts((0..n as u16).collect(), &edges).unwrap()
    }

    #[test]
    fn add_assigns_monotone_ids() {
        let mut s = GraphStore::new();
        assert_eq!(s.add_graph(g(2)), 0);
        assert_eq!(s.add_graph(g(3)), 1);
        assert_eq!(s.id_span(), 2);
        assert_eq!(s.live_count(), 2);
    }

    #[test]
    fn delete_leaves_tombstone_and_never_reuses() {
        let mut s = GraphStore::from_graphs(vec![g(2), g(3), g(4)]);
        let removed = s.delete(1).unwrap();
        assert_eq!(removed.vertex_count(), 3);
        assert_eq!(s.live_count(), 2);
        assert_eq!(s.id_span(), 3);
        assert!(s.get(1).is_none());
        assert!(!s.live_bitset().get(1));
        assert_eq!(s.delete(1), Err(DatasetError::NoSuchGraph(1)));
        // next add gets a brand-new id
        assert_eq!(s.add_graph(g(5)), 3);
        assert_eq!(s.id_span(), 4);
    }

    #[test]
    fn ua_ur_mutate_in_place() {
        let mut s = GraphStore::from_graphs(vec![g(4)]);
        s.add_edge(0, 0, 2).unwrap();
        assert!(s.get(0).unwrap().has_edge(0, 2));
        s.remove_edge(0, 0, 2).unwrap();
        assert!(!s.get(0).unwrap().has_edge(0, 2));
        // error paths
        assert!(matches!(
            s.add_edge(0, 0, 1),
            Err(DatasetError::Graph { id: 0, .. })
        ));
        assert!(matches!(
            s.remove_edge(0, 0, 3),
            Err(DatasetError::Graph { id: 0, .. })
        ));
        assert_eq!(s.add_edge(5, 0, 1), Err(DatasetError::NoSuchGraph(5)));
    }

    #[test]
    fn live_bitset_tracks_membership() {
        let mut s = GraphStore::from_graphs(vec![g(2), g(2), g(2)]);
        s.delete(0).unwrap();
        let live = s.live_bitset();
        assert_eq!(live.iter_ones().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(
            s.iter_live().map(|(i, _)| i).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn graph_source_impl() {
        let mut s = GraphStore::from_graphs(vec![g(2), g(3)]);
        s.delete(0).unwrap();
        assert!(GraphSource::graph(&s, 0).is_none());
        assert_eq!(GraphSource::graph(&s, 1).unwrap().vertex_count(), 3);
        assert_eq!(GraphSource::id_span(&s), 2);
    }
}
