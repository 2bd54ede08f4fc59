//! Labeled undirected graph primitives for GraphCache+ (GC+).
//!
//! This crate is the lowest substrate of the GC+ reproduction. It provides:
//!
//! * [`LabeledGraph`] — an undirected graph with vertex labels and mutable
//!   edge set (the paper's UA/UR dataset updates mutate edges in place),
//!   stored in a flat **CSR** layout (`u32` offsets + concatenated sorted
//!   neighbor rows of `u16` ids, at most [`MAX_VERTICES`] vertices) so the
//!   sub-iso hot reads — `neighbors`, `degree`, `has_edge` — are
//!   contiguous, allocation-free and O(1)/O(log deg).
//!   Each graph carries a cached [`GraphSignature`] (edge count, label
//!   histogram, one-hop [`EdgePairBits`] fingerprint) kept current
//!   across mutations — the substrate of Method M's
//!   candidate pre-filter — and a lazily built per-vertex
//!   [`VertexProfiles`] table (one `u64` per vertex: its neighbours
//!   counted by label, and by label among those with at least 2 and at
//!   least 3 neighbours, rare labels folded together; and whether the
//!   vertex lies on a ring), the substrate of its local pruning, and
//!   lazily built [`PathWords`] (the label sequences of its simple paths
//!   of 3 edges, hashed into 512 bits), its third tier;
//! * [`LabeledGraph::from_parts`] — the one constructor every producer of
//!   graphs uses (the wire decoder, the generators): it lays out CSR from
//!   a label list and an edge list in one pass. [`GraphBuilder`] (per-row
//!   vectors, frozen into CSR by [`GraphBuilder::build`]) is kept as the
//!   replay that names `from_parts`' first bad edge and as the tests'
//!   reference. Single-edge UA/UR updates splice the CSR arrays directly
//!   (a short `memmove` at this workload's graph sizes);
//! * [`BitSet`] — a growable bitset used for the per-cached-query answer
//!   sets (`Answer`) and validity indicators (`CGvalid`) of the paper's
//!   Algorithm 2, and for the candidate-set algebra of formulas (1)–(5);
//! * [`generate`] — random graph construction and the two query-extraction
//!   primitives behind the paper's Type A (BFS) and Type B (random walk)
//!   workloads, each writing its graph straight into CSR;
//! * [`stats`] — dataset summary statistics (used to certify that the
//!   synthetic AIDS substitute matches the published moments).
//!
//! GC+ follows the paper's model: undirected graphs, labels on vertices
//! only, non-induced subgraph isomorphism. Everything generalizes to edge
//! labels but the reproduction sticks to the published setting.

pub mod bitset;
pub mod canon;
pub mod generate;
pub mod graph;
pub mod source;
pub mod stats;
pub mod zipf;

pub use bitset::BitSet;
pub use canon::{canonical_form, isomorphic, CanonicalForm};
pub use graph::{
    histogram_dominates, EdgePairBits, GraphBuilder, GraphBytes, GraphError, GraphSignature, Label,
    LabelCount, LabeledGraph, PathWords, QueryKind, VertexId, VertexProfiles, MAX_VERTICES,
    PATH_STEP_CAP,
};
pub use source::GraphSource;
pub use zipf::Zipf;
