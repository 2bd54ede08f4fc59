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
//! Every generator writes its graph straight into CSR: it collects the
//! labels and an edge list in this thread's reused scratch (no allocation
//! once the scratch has grown to the largest graph drawn), answers its own
//! `has_edge` and `degree` questions there, and calls
//! [`LabeledGraph::from_parts`] once, with a label buffer already sized
//! for the neighbours too, so the buffers the graph keeps are the only
//! ones allocated. Every random draw is made in the same order as when the
//! generators grew their graphs through a per-row builder, which
//! `tests/generate_oracle.rs` keeps, over the test reference builder, as
//! the reference: the same seed gives the same graph.

use std::cell::Cell;

use rand::seq::{IndexedRandom, SliceRandom};
use rand::Rng;

use crate::graph::{Label, LabeledGraph, VertexId, MAX_VERTICES};

/// One generator call's working memory: words (labels, degrees, row
/// offsets, rows, id maps, a shuffle buffer; each generator lays out its
/// own) and the edge list it hands to [`LabeledGraph::from_parts`].
#[derive(Default)]
struct Scratch {
    words: Vec<u32>,
    edges: Vec<(VertexId, VertexId)>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch { words: Vec::new(), edges: Vec::new() })
    };
}

/// Runs `f` on this thread's scratch, both buffers empty. The scratch is
/// taken out of its slot for the call, so a generator that a label
/// closure calls finds the slot empty and works in a fresh one; it is put
/// back, capacity kept, when `f` returns.
fn with_scratch<T>(f: impl FnOnce(&mut Vec<u32>, &mut Vec<(VertexId, VertexId)>) -> T) -> T {
    SCRATCH.with(|slot| {
        let mut s = slot.take();
        s.words.clear();
        s.edges.clear();
        let out = f(&mut s.words, &mut s.edges);
        slot.set(s);
        out
    })
}

/// Lays a generated graph out: the labels go into a buffer with room for
/// the `2m` neighbours behind them, which [`LabeledGraph::from_parts`]
/// fills without reallocating. Only a dataset generator asked for more
/// than [`MAX_VERTICES`] panics here; an extraction has no more vertices
/// than its source.
fn finish(
    labels: impl ExactSizeIterator<Item = Label>,
    edges: &[(VertexId, VertexId)],
) -> LabeledGraph {
    let mut data = Vec::with_capacity(labels.len() + 2 * edges.len());
    data.extend(labels);
    LabeledGraph::from_parts(data, edges).unwrap_or_else(|e| {
        panic!("a generated graph is simple and holds at most {MAX_VERTICES} vertices: {e}")
    })
}

/// The first `n` words as labels (a generator draws them into its
/// scratch before any edge).
fn labels_of(words: &[u32], n: usize) -> impl ExactSizeIterator<Item = Label> + '_ {
    words[..n].iter().map(|&l| l as Label)
}

/// Builds a connected random graph: a random spanning tree over `n`
/// vertices plus `extra_edges` additional distinct random edges. Labels are
/// drawn by `label_of` (vertex index ↦ label), letting callers plug any
/// label distribution.
///
/// `extra_edges` is clamped to the number of free (non-tree) edge slots, so
/// requesting a dense graph on few vertices silently yields the complete
/// graph. Each extra edge costs a binary search and an insert into the
/// sorted edge list, O(m), which suits the small graphs tests draw.
/// Panics if `n` exceeds [`MAX_VERTICES`].
pub fn random_connected_graph<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    extra_edges: usize,
    mut label_of: impl FnMut(&mut R) -> Label,
) -> LabeledGraph {
    with_scratch(|words, edges| {
        words.extend((0..n).map(|_| u32::from(label_of(rng))));
        if n <= 1 {
            return finish(labels_of(words, n), edges);
        }
        // Random spanning tree: attach vertex i to a uniformly random
        // earlier one. The edge list is kept sorted, each edge as (low,
        // high), so a drawn edge is a binary search away; the order of
        // the list does not reach the graph.
        for i in 1..n {
            let j = rng.random_range(0..i);
            edges.push((j as VertexId, i as VertexId));
        }
        edges.sort_unstable();
        let max_extra = n * (n - 1) / 2 - (n - 1);
        let extra_edges = extra_edges.min(max_extra);
        let mut added = 0;
        while added < extra_edges {
            let u = rng.random_range(0..n) as VertexId;
            let v = rng.random_range(0..n) as VertexId;
            if u != v {
                if let Err(at) = edges.binary_search(&(u.min(v), u.max(v))) {
                    edges.insert(at, (u.min(v), u.max(v)));
                    added += 1;
                }
            }
        }
        finish(labels_of(words, n), edges)
    })
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
    with_scratch(|words, edges| {
        words.extend((0..n).map(|_| u32::from(label_of(rng))));
        if n <= 1 {
            return finish(labels_of(words, n), edges);
        }
        // the words: n labels, n tree degrees (then row lengths), n + 1
        // row starts, the rows, and room for one row's walk candidates
        words.resize(3 * n + 1, 0);
        let degree = &mut words[n..2 * n];
        // Grow a tree attaching each new vertex to a random earlier vertex
        // with spare valence; fall back to a uniformly random earlier
        // vertex if the sampled one is saturated (keeps generation O(n) in
        // expectation). After 16 saturated draws the tree edge goes to a
        // saturated vertex anyway, which so ends above the cap.
        for i in 1..n {
            let mut j = rng.random_range(0..i);
            let mut tries = 0;
            while degree[j] as usize >= max_degree && tries < 16 {
                j = rng.random_range(0..i);
                tries += 1;
            }
            edges.push((i as VertexId, j as VertexId));
            degree[i] += 1;
            degree[j] += 1;
        }
        // A ring closure joins two vertices below the cap, so a row ends
        // at most max(tree degree, cap) long: each row gets that much room
        let room = |tree: u32| tree.max(max_degree as u32);
        let (degree, start) = words[n..].split_at_mut(n);
        for v in 0..n {
            start[v + 1] = start[v] + room(degree[v]);
        }
        let slots = start[n] as usize;
        let widest = degree.iter().map(|&d| room(d)).max().unwrap_or(0) as usize;
        degree.fill(0);
        words.resize(3 * n + 1 + slots + widest, 0);
        let (len, rest) = words[n..].split_at_mut(n);
        let (start, rest) = rest.split_at_mut(n + 1);
        let (rows, cand) = rest.split_at_mut(slots);
        // Replaying the tree edges in order appends every row in sorted
        // order (a vertex meets its parent first, then its children by
        // increasing id), the order the ring walk reads them in
        for &(i, j) in edges.iter() {
            for (a, b) in [(i, j), (j, i)] {
                rows[(start[a as usize] + len[a as usize]) as usize] = b;
                len[a as usize] += 1;
            }
        }
        // Ring closures: connect vertices at short tree distance (prefer
        // 5/6-cycles like organic rings). Best effort — give up after a
        // bounded number of attempts so pathological degree caps cannot
        // loop forever.
        let mut added = 0;
        let mut attempts = 0;
        while added < rings && attempts < rings * 64 + 64 {
            attempts += 1;
            let u = rng.random_range(0..n) as VertexId;
            if len[u as usize] as usize >= max_degree {
                continue;
            }
            // walk 4-5 hops away from u
            let hops = rng.random_range(4..=5);
            let mut cur = u;
            let mut prev = u;
            for _ in 0..hops {
                let ns = row(rows, start, len, cur);
                if ns.is_empty() {
                    break;
                }
                let mut k = 0;
                for &x in ns.iter().filter(|&&x| x != prev) {
                    cand[k] = x;
                    k += 1;
                }
                let next = if k == 0 {
                    ns[0]
                } else {
                    *cand[..k].choose(rng).expect("nonempty")
                };
                prev = cur;
                cur = next;
            }
            let linked = row(rows, start, len, u).contains(&cur);
            if cur != u && !linked && (len[cur as usize] as usize) < max_degree {
                link(rows, start, len, u, cur);
                link(rows, start, len, cur, u);
                edges.push((u, cur));
                added += 1;
            }
        }
        finish(labels_of(words, n), edges)
    })
}

/// `v`'s row of `rows` (row starts `start`, row lengths `len`).
fn row<'a>(rows: &'a [u32], start: &[u32], len: &[u32], v: VertexId) -> &'a [u32] {
    let at = start[v as usize] as usize;
    &rows[at..at + len[v as usize] as usize]
}

/// Inserts `b` into `a`'s sorted row of `rows` (row starts `start`, row
/// lengths `len`), which has room for it.
fn link(rows: &mut [u32], start: &[u32], len: &mut [u32], a: VertexId, b: VertexId) {
    let (at, l) = (start[a as usize] as usize, len[a as usize] as usize);
    let row = &mut rows[at..=at + l];
    let pos = row[..l].partition_point(|&x| x < b);
    row.copy_within(pos..l, pos + 1);
    row[pos] = b;
    len[a as usize] += 1;
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
    with_scratch(|words, edges| {
        // map[v] is 1 + v's query id, 0 while v is unvisited; order lists
        // the visited source vertices by query id, which is also the BFS
        // queue; shuffled holds one row in its visiting order
        words.resize(3 * n, 0);
        let (map, rest) = words.split_at_mut(n);
        let (order, shuffled) = rest.split_at_mut(n);
        map[start as usize] = 1;
        order[0] = start;
        let mut visited = 1;
        let mut head = 0;
        while head < visited {
            let u = order[head];
            head += 1;
            // Randomize neighbor visiting order so repeated extraction
            // from the same start yields diverse queries.
            let ns = source.neighbors(u);
            let row = &mut shuffled[..ns.len()];
            for (to, &v) in row.iter_mut().zip(ns) {
                *to = VertexId::from(v);
            }
            row.shuffle(rng);
            for &v in row.iter() {
                if map[v as usize] != 0 {
                    continue;
                }
                order[visited] = v;
                visited += 1;
                map[v as usize] = visited as u32;
                // add edges from v to every already-visited neighbor, one
                // at a time, stopping exactly at the target size. v is
                // new, so none of these edges is in the query yet
                let qv = visited as VertexId - 1;
                for &w in source.neighbors(v) {
                    let qw = map[usize::from(w)];
                    if qw != 0 {
                        edges.push((qv, qw - 1));
                        if edges.len() >= target_edges {
                            let labels = order[..visited].iter().map(|&s| source.label(s));
                            return Some(finish(labels, edges));
                        }
                    }
                }
            }
        }
        None // component exhausted before reaching the target size
    })
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
    with_scratch(|words, edges| {
        // map[v] is 1 + v's query id, 0 while unwalked; order lists the
        // walked source vertices by query id
        words.resize(2 * n, 0);
        let (map, order) = words.split_at_mut(n);
        map[start as usize] = 1;
        order[0] = start;
        let mut walked = 1;
        let mut cur = start;
        // Bound the walk: an unlucky walk on a component with fewer than
        // target_edges edges would never terminate otherwise.
        let max_steps = (target_edges + 1) * 50;
        for _ in 0..max_steps {
            if edges.len() >= target_edges {
                break;
            }
            let ns = source.neighbors(cur);
            if ns.is_empty() {
                return None;
            }
            let next = VertexId::from(*ns.choose(rng).expect("nonempty"));
            if map[next as usize] == 0 {
                order[walked] = next;
                walked += 1;
                map[next as usize] = walked as u32;
            }
            // each edge once, as (low, high) query ids: a query holds at
            // most target_edges of them
            let (qu, qv) = (map[cur as usize] - 1, map[next as usize] - 1);
            let edge = (qu.min(qv), qu.max(qv));
            if !edges.contains(&edge) {
                edges.push(edge);
            }
            cur = next;
        }
        (edges.len() >= target_edges).then(|| {
            let labels = order[..walked].iter().map(|&s| source.label(s));
            finish(labels, edges)
        })
    })
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
            assert!(source.signature().labels_dominate(q.signature()));
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
        assert!(source.signature().labels_dominate(q.signature()));
    }
}
