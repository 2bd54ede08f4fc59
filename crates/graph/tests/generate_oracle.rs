//! The generators against their reference: each one as it was when it grew
//! its graph through the test reference builder (`builder/mod.rs`: per-row
//! `Vec`s, `has_edge` and `degree` asked of the builder, one freeze into
//! CSR), kept here as the oracle. For random seeds and shapes, the
//! generator under test must return an equal graph (labels, CSR and
//! signature) and leave its random source where the reference leaves it, so
//! every later draw of a caller is the same too. Degree caps of 2 and 3
//! push `molecule_like` past its 16 tries onto saturated vertices;
//! extraction targets run past what small sources can supply, so the `None`
//! paths are compared as well.

use gc_graph::generate::{bfs_extract, molecule_like, random_connected_graph, random_walk_extract};
use gc_graph::{Label, LabeledGraph, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{Rng, RngCore, SeedableRng};

mod builder;
use builder::GraphBuilder;

mod reference {
    use super::*;

    fn freeze(g: GraphBuilder) -> LabeledGraph {
        g.build().expect("small graphs")
    }

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
        for i in 1..n {
            let j = rng.random_range(0..i);
            g.add_edge(i as VertexId, j as VertexId).unwrap();
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

    pub fn molecule_like<R: Rng + ?Sized>(
        rng: &mut R,
        n: usize,
        rings: usize,
        max_degree: usize,
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
        for i in 1..n {
            let mut j = rng.random_range(0..i);
            let mut tries = 0;
            while g.degree(j as VertexId) >= max_degree && tries < 16 {
                j = rng.random_range(0..i);
                tries += 1;
            }
            g.add_edge(i as VertexId, j as VertexId).unwrap();
        }
        let mut added = 0;
        let mut attempts = 0;
        while added < rings && attempts < rings * 64 + 64 {
            attempts += 1;
            let u = rng.random_range(0..n) as VertexId;
            if g.degree(u) >= max_degree {
                continue;
            }
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
                    *cand.choose(rng).unwrap()
                };
                prev = cur;
                cur = next;
            }
            if cur != u && !g.has_edge(u, cur) && g.degree(cur) < max_degree {
                g.add_edge(u, cur).unwrap();
                added += 1;
            }
        }
        freeze(g)
    }

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
        let mut map = vec![u32::MAX; n];
        let mut query = GraphBuilder::new();
        let mut frontier = std::collections::VecDeque::new();
        visited[start as usize] = true;
        map[start as usize] = query.add_vertex(source.label(start));
        frontier.push_back(start);
        let mut edges = 0usize;
        while let Some(u) = frontier.pop_front() {
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
                    for &w in source.neighbors(v) {
                        if visited[w as usize] && map[w as usize] != u32::MAX {
                            let qv = map[v as usize];
                            let qw = map[w as usize];
                            if !query.has_edge(qv, qw) {
                                query.add_edge(qv, qw).unwrap();
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
        None
    }

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
        let max_steps = (target_edges + 1) * 50;
        for _ in 0..max_steps {
            if edges >= target_edges {
                return Some(freeze(query));
            }
            let ns = source.neighbors(cur);
            if ns.is_empty() {
                return None;
            }
            let next = VertexId::from(*ns.choose(rng).unwrap());
            if map[next as usize] == u32::MAX {
                map[next as usize] = query.add_vertex(source.label(next));
            }
            let qu = map[cur as usize];
            let qv = map[next as usize];
            if !query.has_edge(qu, qv) {
                query.add_edge(qu, qv).unwrap();
                edges += 1;
            }
            cur = next;
        }
        (edges >= target_edges).then(|| freeze(query))
    }
}

/// Runs `generate` and `reference` on two copies of one seeded source
/// and requires the same result and the same next draw after it.
fn same_draws<T: PartialEq + std::fmt::Debug>(
    seed: u64,
    generate: impl FnOnce(&mut StdRng) -> T,
    reference: impl FnOnce(&mut StdRng) -> T,
) {
    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    prop_assert_eq!(generate(&mut a), reference(&mut b));
    prop_assert_eq!(
        a.next_u64(),
        b.next_u64(),
        "the generators drew differently"
    );
}

fn label(r: &mut StdRng) -> Label {
    r.random_range(0..5u16)
}

/// A source graph to extract from: a sparse or dense random graph, or a
/// molecule (several components can come out of neither, so the `None`
/// paths come from small sources and large targets).
fn source(seed: u64, n: usize, molecule: bool) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    if molecule {
        reference::molecule_like(&mut rng, n, n / 6, 3, label)
    } else {
        let extra = rng.random_range(0..=n);
        reference::random_connected_graph(&mut rng, n, extra, label)
    }
}

proptest! {
    #[test]
    fn random_connected_graph_matches_the_builder(
        seed in 0..u64::MAX,
        n in 0usize..40,
        extra in 0usize..900,
    ) {
        same_draws(
            seed,
            |r| random_connected_graph(r, n, extra, label),
            |r| reference::random_connected_graph(r, n, extra, label),
        );
    }

    #[test]
    fn molecule_like_matches_the_builder(
        seed in 0..u64::MAX,
        n in 0usize..120,
        rings in 0usize..12,
        max_degree in 2usize..6,
    ) {
        same_draws(
            seed,
            |r| molecule_like(r, n, rings, max_degree, label),
            |r| reference::molecule_like(r, n, rings, max_degree, label),
        );
    }

    #[test]
    fn extractions_match_the_builder(
        seed in 0..u64::MAX,
        n in 1usize..60,
        molecule in 0u8..2,
        start in 0u32..64,
        target in 0usize..40,
    ) {
        let g = source(seed, n, molecule == 1);
        same_draws(
            seed ^ 1,
            |r| bfs_extract(r, &g, start, target),
            |r| reference::bfs_extract(r, &g, start, target),
        );
        same_draws(
            seed ^ 2,
            |r| random_walk_extract(r, &g, start, target),
            |r| reference::random_walk_extract(r, &g, start, target),
        );
    }
}
