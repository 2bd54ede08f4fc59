//! The test reference builder: a graph grown edge by edge in per-row
//! `Vec`s (an amortized O(deg) sorted insert per edge), each edge checked
//! as it comes. `LabeledGraph::from_parts` lays a whole edge list out in
//! one pass instead; `prop_graph.rs` holds it to this builder's graph and
//! to the error `add_edge` gives for the first bad edge, and
//! `generate_oracle.rs` keeps each generator as it was when it grew its
//! graph here.

// each test crate that includes this module uses part of it
#![allow(dead_code)]

use gc_graph::{GraphError, Label, LabeledGraph, VertexId};

#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    adj: Vec<Vec<VertexId>>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        GraphBuilder {
            labels: Vec::with_capacity(n),
            adj: Vec::with_capacity(n),
        }
    }

    /// Sorted neighbor row of `v`. Panics if out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    /// Degree of `v`. Panics if out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// `true` iff the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj
            .get(u as usize)
            .is_some_and(|row| row.binary_search(&v).is_ok())
    }

    /// Adds a vertex with the given label, returning its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        self.labels.push(label);
        self.adj.push(Vec::new());
        (self.labels.len() - 1) as VertexId
    }

    /// Adds the undirected edge `(u, v)`: each end in range, then no self
    /// loop, then no edge `(u, v)` or `(v, u)` already there, the checks
    /// and errors of `LabeledGraph::add_edge`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        for w in [u, v] {
            if w as usize >= self.labels.len() {
                return Err(GraphError::VertexOutOfRange {
                    vertex: w,
                    count: self.labels.len(),
                });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let pos_u = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return Err(GraphError::EdgeExists(u, v)),
            Err(p) => p,
        };
        let pos_v = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency mirror invariant violated");
        self.adj[u as usize].insert(pos_u, v);
        self.adj[v as usize].insert(pos_v, u);
        Ok(())
    }

    /// The graph grown so far, through `from_parts` (past `MAX_VERTICES`
    /// vertices, its error), whose rows must be the builder's.
    pub fn build(self) -> Result<LabeledGraph, GraphError> {
        let edges: Vec<_> = (0..self.adj.len() as VertexId)
            .flat_map(|u| {
                let row = &self.adj[u as usize];
                row.iter().filter(move |&&v| u < v).map(move |&v| (u, v))
            })
            .collect();
        let g = LabeledGraph::from_parts(self.labels, &edges)?;
        for (u, row) in self.adj.iter().enumerate() {
            let csr: Vec<VertexId> = g
                .neighbors(u as VertexId)
                .iter()
                .map(|&v| v.into())
                .collect();
            assert_eq!(&csr, row, "row {u}");
        }
        Ok(g)
    }
}
