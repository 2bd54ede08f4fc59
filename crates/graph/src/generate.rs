//! Random graph construction and query extraction.
//!
//! Two families of primitives live here:
//!
//! * **dataset-side generators** — [`random_connected_graph`] and
//!   [`molecule_like`] build the synthetic graphs that substitute for the
//!   AIDS antiviral screen dataset (see DESIGN.md §3 for the substitution
//!   rationale);
//! * **query-side extractors** — [`bfs_extract`] implements the paper's
//!   Type A extraction ("a BFS is performed starting from the selected
//!   node; for each new node, all its edges connecting it to already
//!   visited nodes are added to the generated query, until the desired
//!   query size is reached") and [`random_walk_extract`] implements the
//!   Type B extraction ("performing a random walk till the required query
//!   graph size is reached"). Both return connected subgraphs of the source
//!   graph with vertex labels preserved, so every extracted query has at
//!   least one embedding in its source graph.
//!
//! [`permute`] renumbers a graph's vertices at random: an isomorphic copy
//! for tests that must tell "the same graph" from "an isomorphic one".
//!
//! Every generator builds through [`GraphBuilder`] (amortized per-row
//! inserts), because it asks `has_edge` and `degree` while it grows the
//! graph, and freezes into the CSR [`LabeledGraph`] exactly once per
//! generated graph.

use rand::seq::{IndexedRandom, SliceRandom};
use rand::Rng;

use crate::graph::{GraphBuilder, Label, LabeledGraph, VertexId, MAX_VERTICES};

/// Freezes a generated graph. An extraction has no more vertices than its
/// source, so only a dataset generator asked for more than
/// [`MAX_VERTICES`] panics here.
fn freeze(g: GraphBuilder) -> LabeledGraph {
    g.build()
        .unwrap_or_else(|e| panic!("a generated graph holds at most {MAX_VERTICES} vertices: {e}"))
}

/// Builds a connected random graph: a random spanning tree over `n`
/// vertices plus `extra_edges` additional distinct random edges. Labels are
/// drawn by `label_of` (vertex index ↦ label), letting callers plug any
/// label distribution.
///
/// `extra_edges` is clamped to the number of free (non-tree) edge slots, so
/// requesting a dense graph on few vertices silently yields the complete
/// graph. Panics if `n` exceeds [`MAX_VERTICES`].
pub fn random_connected_graph<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    extra_edges: usize,
    mut label_of: impl FnMut(&mut R) -> Label,
) -> LabeledGraph {
    let mut g = GraphBuilder::with_capacity(n);
    for _ in 0..n {
        let l = label_of(rng);
        g.add_vertex(l);
    }
    if n <= 1 {
        return freeze(g);
    }
    // Random spanning tree: attach vertex i to a uniformly random earlier one.
    for i in 1..n {
        let j = rng.random_range(0..i);
        g.add_edge(i as VertexId, j as VertexId)
            .expect("tree edge cannot duplicate");
    }
    let max_extra = n * (n - 1) / 2 - (n - 1);
    let extra_edges = extra_edges.min(max_extra);
    let mut added = 0;
    while added < extra_edges {
        let u = rng.random_range(0..n) as VertexId;
        let v = rng.random_range(0..n) as VertexId;
        if u != v && g.add_edge(u, v).is_ok() {
            added += 1;
        }
    }
    freeze(g)
}

/// Builds a molecule-like sparse graph: a spanning tree grown with a
/// degree cap (atoms have bounded valence) plus `rings` ring-closing edges
/// between near-by tree vertices. This is the per-graph builder used by the
/// synthetic AIDS substitute; the resulting graphs are connected, sparse
/// (`|E| = n - 1 + rings`) and have small max degree, like the NCI
/// molecules. Panics if `n` exceeds [`MAX_VERTICES`].
pub fn molecule_like<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    rings: usize,
    max_degree: usize,
    mut label_of: impl FnMut(&mut R) -> Label,
) -> LabeledGraph {
    assert!(max_degree >= 2, "molecules need max_degree >= 2");
    let mut g = GraphBuilder::with_capacity(n);
    for _ in 0..n {
        let l = label_of(rng);
        g.add_vertex(l);
    }
    if n <= 1 {
        return freeze(g);
    }
    // Grow a tree attaching each new vertex to a random earlier vertex with
    // spare valence; fall back to a uniformly random earlier vertex if the
    // sampled one is saturated (keeps generation O(n) in expectation).
    for i in 1..n {
        let mut j = rng.random_range(0..i);
        let mut tries = 0;
        while g.degree(j as VertexId) >= max_degree && tries < 16 {
            j = rng.random_range(0..i);
            tries += 1;
        }
        g.add_edge(i as VertexId, j as VertexId)
            .expect("tree edge cannot duplicate");
    }
    // Ring closures: connect vertices at short tree distance (prefer
    // 5/6-cycles like organic rings). Best effort — give up after a bounded
    // number of attempts so pathological degree caps cannot loop forever.
    let mut added = 0;
    let mut attempts = 0;
    while added < rings && attempts < rings * 64 + 64 {
        attempts += 1;
        let u = rng.random_range(0..n) as VertexId;
        if g.degree(u) >= max_degree {
            continue;
        }
        // walk 4-5 hops away from u
        let hops = rng.random_range(4..=5);
        let mut cur = u;
        let mut prev = u;
        for _ in 0..hops {
            let ns = g.neighbors(cur);
            if ns.is_empty() {
                break;
            }
            let cand: Vec<VertexId> = ns.iter().copied().filter(|&x| x != prev).collect();
            let next = if cand.is_empty() {
                ns[0]
            } else {
                *cand.choose(rng).expect("nonempty")
            };
            prev = cur;
            cur = next;
        }
        if cur != u && !g.has_edge(u, cur) && g.degree(cur) < max_degree {
            g.add_edge(u, cur).expect("checked for duplicates");
            added += 1;
        }
    }
    freeze(g)
}

/// Type A query extraction (paper §7.1): BFS from `start`, adding — for
/// each newly visited vertex — its edges towards already-visited vertices
/// one at a time, stopping exactly at `target_edges` edges.
///
/// Returns `None` if `start`'s connected component cannot supply
/// `target_edges` edges. The returned graph has fresh dense vertex ids and
/// preserves labels, so it is subgraph-isomorphic to `source` by
/// construction.
pub fn bfs_extract<R: Rng + ?Sized>(
    rng: &mut R,
    source: &LabeledGraph,
    start: VertexId,
    target_edges: usize,
) -> Option<LabeledGraph> {
    if target_edges == 0 || (start as usize) >= source.vertex_count() {
        return None;
    }
    let n = source.vertex_count();
    let mut visited = vec![false; n];
    let mut map = vec![u32::MAX; n]; // source id -> query id
    let mut query = GraphBuilder::new();
    let mut frontier = std::collections::VecDeque::new();

    visited[start as usize] = true;
    map[start as usize] = query.add_vertex(source.label(start));
    frontier.push_back(start);
    let mut edges = 0usize;

    while let Some(u) = frontier.pop_front() {
        // Randomize neighbor visiting order so repeated extraction from the
        // same start yields diverse queries.
        let mut ns = source.neighbors(u).to_vec();
        ns.shuffle(rng);
        for v in ns.into_iter().map(VertexId::from) {
            if edges >= target_edges {
                return Some(freeze(query));
            }
            if !visited[v as usize] {
                visited[v as usize] = true;
                map[v as usize] = query.add_vertex(source.label(v));
                frontier.push_back(v);
                // add edges from v to every already-visited neighbor, one at
                // a time, stopping exactly at the target size
                for &w in source.neighbors(v) {
                    if visited[w as usize] && map[w as usize] != u32::MAX {
                        let qv = map[v as usize];
                        let qw = map[w as usize];
                        if !query.has_edge(qv, qw) {
                            query.add_edge(qv, qw).expect("deduplicated");
                            edges += 1;
                            if edges >= target_edges {
                                return Some(freeze(query));
                            }
                        }
                    }
                }
            }
        }
    }
    None // component exhausted before reaching the target size
}

/// Type B query extraction (paper §7.1): random walk from `start`,
/// collecting each traversed edge (deduplicated) until `target_edges`
/// distinct edges are collected.
///
/// Returns `None` if the walk gets stuck (isolated vertex) or the component
/// is too small; the caller retries with a different start.
pub fn random_walk_extract<R: Rng + ?Sized>(
    rng: &mut R,
    source: &LabeledGraph,
    start: VertexId,
    target_edges: usize,
) -> Option<LabeledGraph> {
    if target_edges == 0 || (start as usize) >= source.vertex_count() {
        return None;
    }
    let n = source.vertex_count();
    let mut map = vec![u32::MAX; n];
    let mut query = GraphBuilder::new();
    map[start as usize] = query.add_vertex(source.label(start));

    let mut cur = start;
    let mut edges = 0usize;
    // Bound the walk: an unlucky walk on a component with fewer than
    // target_edges edges would never terminate otherwise.
    let max_steps = (target_edges + 1) * 50;
    for _ in 0..max_steps {
        if edges >= target_edges {
            return Some(freeze(query));
        }
        let ns = source.neighbors(cur);
        if ns.is_empty() {
            return None;
        }
        let next = VertexId::from(*ns.choose(rng).expect("nonempty"));
        if map[next as usize] == u32::MAX {
            map[next as usize] = query.add_vertex(source.label(next));
        }
        let qu = map[cur as usize];
        let qv = map[next as usize];
        if !query.has_edge(qu, qv) {
            query.add_edge(qu, qv).expect("deduplicated");
            edges += 1;
        }
        cur = next;
    }
    if edges >= target_edges {
        Some(freeze(query))
    } else {
        None
    }
}

/// A copy of `graph` with its vertex ids renumbered by a uniformly random
/// permutation (labels travel with their vertices), so the copy is
/// isomorphic to `graph`.
pub fn permute<R: Rng + ?Sized>(rng: &mut R, graph: &LabeledGraph) -> LabeledGraph {
    let n = graph.vertex_count();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    perm.shuffle(rng);
    let mut labels = vec![0; n];
    for (v, &to) in perm.iter().enumerate() {
        labels[to as usize] = graph.label(v as VertexId);
    }
    let edges: Vec<(VertexId, VertexId)> = graph
        .edges()
        .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        .collect();
    LabeledGraph::from_parts(labels, &edges).expect("a renumbered simple graph stays simple")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn random_connected_graph_is_connected_with_exact_edges() {
        let mut r = rng(1);
        for n in [1usize, 2, 5, 20, 60] {
            let extra = if n >= 4 { 3 } else { 0 };
            let g = random_connected_graph(&mut r, n, extra, |r| r.random_range(0..5) as Label);
            assert_eq!(g.vertex_count(), n);
            if n >= 1 {
                assert!(g.is_connected(), "n={n}");
            }
            if n >= 2 {
                assert_eq!(g.edge_count(), n - 1 + extra);
            }
        }
    }

    #[test]
    fn molecule_like_respects_degree_cap() {
        let mut r = rng(2);
        for _ in 0..20 {
            let g = molecule_like(&mut r, 45, 3, 4, |r| r.random_range(0..62) as Label);
            assert!(g.is_connected());
            assert!(g.max_degree() <= 4, "max degree {}", g.max_degree());
            assert!(g.edge_count() >= 44);
            assert!(g.edge_count() <= 47);
        }
    }

    #[test]
    fn molecule_like_tiny_graphs() {
        let mut r = rng(3);
        let g0 = molecule_like(&mut r, 0, 0, 4, |_| 0);
        assert_eq!(g0.vertex_count(), 0);
        let g1 = molecule_like(&mut r, 1, 0, 4, |_| 7);
        assert_eq!((g1.vertex_count(), g1.edge_count()), (1, 0));
        let g2 = molecule_like(&mut r, 2, 5, 4, |_| 1);
        assert_eq!(g2.edge_count(), 1); // rings impossible on 2 vertices
    }

    #[test]
    fn bfs_extract_has_exact_size_and_connectivity() {
        let mut r = rng(4);
        let source = random_connected_graph(&mut r, 40, 20, |r| r.random_range(0..4) as Label);
        for target in [4usize, 8, 12, 16, 20] {
            let q = bfs_extract(&mut r, &source, 0, target).expect("extractable");
            assert_eq!(q.edge_count(), target);
            assert!(q.is_connected());
            assert!(q.labels_dominated_by(&source));
        }
    }

    #[test]
    fn bfs_extract_fails_when_component_too_small() {
        let mut r = rng(5);
        let small = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        assert!(bfs_extract(&mut r, &small, 0, 10).is_none());
        assert!(bfs_extract(&mut r, &small, 99, 1).is_none());
        assert!(bfs_extract(&mut r, &small, 0, 0).is_none());
    }

    #[test]
    fn random_walk_extract_sizes() {
        let mut r = rng(6);
        let source = random_connected_graph(&mut r, 50, 30, |r| r.random_range(0..4) as Label);
        for target in [4usize, 8, 12, 16, 20] {
            let q = random_walk_extract(&mut r, &source, 3, target).expect("extractable");
            assert_eq!(q.edge_count(), target);
            assert!(q.is_connected());
        }
    }

    #[test]
    fn random_walk_extract_stuck_on_isolated_vertex() {
        let mut r = rng(7);
        let g = LabeledGraph::from_parts(vec![0, 0], &[]).unwrap();
        assert!(random_walk_extract(&mut r, &g, 0, 1).is_none());
    }

    #[test]
    fn extraction_labels_match_source() {
        let mut r = rng(8);
        let source = random_connected_graph(&mut r, 30, 10, |r| r.random_range(0..3) as Label);
        let q = bfs_extract(&mut r, &source, 5, 8).unwrap();
        // every extracted label must exist in the source
        assert!(q.labels_dominated_by(&source));
    }
}
