//! Cross-validation of two independent isomorphism deciders:
//!
//! * `gc_graph::canon` — refinement + branching canonical forms;
//! * mutual non-induced containment with equal sizes (the §6.3 criterion
//!   GC+ itself uses for exact-match detection), decided by VF2.
//!
//! For any two graphs of equal size signature these must agree — a strong
//! consistency check tying the cache's exact-match logic to an
//! independently implemented certificate.

use gc_graph::canon::isomorphic;
use gc_graph::generate::{permute, random_connected_graph};
use gc_graph::LabeledGraph;
use gc_subiso::vf2::Vf2;
use gc_subiso::SubgraphMatcher;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The §6.3 exact-match criterion: same vertex/edge counts + one-way
/// containment (which forces the injection to be an isomorphism).
fn iso_by_subiso(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    a.vertex_count() == b.vertex_count() && a.edge_count() == b.edge_count() && Vf2.contains(a, b)
}

proptest! {
    /// Positive direction: permuted copies are isomorphic under both
    /// deciders.
    #[test]
    fn permuted_copies_agree(seed in 0u64..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..10usize);
        let extra = rng.random_range(0..4usize);
        let a = random_connected_graph(&mut rng, n, extra, |r| r.random_range(0..3u16));
        let b = permute(&mut rng, &a);
        prop_assert!(isomorphic(&a, &b), "canon missed an isomorphism (seed {})", seed);
        prop_assert!(iso_by_subiso(&a, &b), "sub-iso missed an isomorphism (seed {})", seed);
    }

    /// Both deciders give the same verdict on arbitrary same-size pairs.
    #[test]
    fn deciders_agree_on_random_pairs(seed in 0u64..800) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919));
        let n = rng.random_range(2..8usize);
        let extra_a = rng.random_range(0..3usize);
        let extra_b = rng.random_range(0..3usize);
        let a = random_connected_graph(&mut rng, n, extra_a, |r| r.random_range(0..2u16));
        let b = random_connected_graph(&mut rng, n, extra_b, |r| r.random_range(0..2u16));
        // only meaningful when the cheap preconditions match
        if a.edge_count() == b.edge_count() {
            prop_assert_eq!(
                isomorphic(&a, &b),
                iso_by_subiso(&a, &b),
                "deciders disagree (seed {}):\nA={:?}\nB={:?}", seed, &a, &b
            );
        }
    }
}

/// The labels Method M's pruning tests use, which collide in its lanes.
const LABELS: [u16; 4] = [0, 2, 11, 14];

fn graph(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
    LabeledGraph::from_parts(labels, edges).expect("a simple graph")
}

/// `a` and `b` side by side, `b`'s vertices numbered after `a`'s.
fn disjoint_union(a: &LabeledGraph, b: &LabeledGraph) -> LabeledGraph {
    let shift = a.vertex_count() as u32;
    let labels = a.labels().iter().chain(b.labels()).copied().collect();
    let edges: Vec<_> = a
        .edges()
        .chain(b.edges().map(|(u, v)| (u + shift, v + shift)))
        .collect();
    graph(labels, &edges)
}

fn cycle(n: u32) -> LabeledGraph {
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    graph(vec![0; n as usize], &edges)
}

/// `n` vertices on a ring, each also joined to the vertices `skip` away.
fn circulant(n: u32, skip: u32) -> LabeledGraph {
    let edges: Vec<_> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + skip) % n)])
        .collect();
    let mut edges: Vec<_> = edges
        .into_iter()
        .map(|(u, v)| (u.min(v), u.max(v)))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    graph(vec![0; n as usize], &edges)
}

fn star(leaves: u32) -> LabeledGraph {
    let mut labels = vec![2; leaves as usize + 1];
    labels[0] = 11;
    let edges: Vec<_> = (1..=leaves).map(|i| (0, i)).collect();
    graph(labels, &edges)
}

fn complete(n: u32) -> LabeledGraph {
    let edges: Vec<_> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    graph(vec![0; n as usize], &edges)
}

fn complete_bipartite(a: u32, b: u32) -> LabeledGraph {
    let edges: Vec<_> = (0..a)
        .flat_map(|u| (a..a + b).map(move |v| (u, v)))
        .collect();
    graph(vec![0; (a + b) as usize], &edges)
}

/// The outer 5-cycle, the inner pentagram and the spokes.
fn petersen() -> LabeledGraph {
    let edges: Vec<_> = (0..5)
        .flat_map(|i| [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)])
        .collect();
    graph(vec![0; 10], &edges)
}

/// A connected molecule of `n` vertices over the colliding labels.
fn molecule(rng: &mut StdRng, n: usize) -> LabeledGraph {
    let extra = rng.random_range(0..4usize);
    random_connected_graph(rng, n, extra, |r| LABELS[r.random_range(0..LABELS.len())])
}

/// The symmetric families, each beside a graph of the same vertex and
/// edge counts and labels that 1-WL refinement alone cannot tell from it
/// (or, for the star, one with the same degree multiset), so branching
/// decides.
fn symmetric_pairs() -> Vec<(&'static str, LabeledGraph, LabeledGraph)> {
    vec![
        ("C6 / 2 C3", cycle(6), disjoint_union(&cycle(3), &cycle(3))),
        ("C8 / 2 C4", cycle(8), disjoint_union(&cycle(4), &cycle(4))),
        ("C9 / 3 C3", cycle(9), {
            let c3 = cycle(3);
            disjoint_union(&disjoint_union(&c3, &c3), &c3)
        }),
        ("K(3,3) / prism", complete_bipartite(3, 3), {
            let prism = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)];
            let spokes = [(0, 3), (1, 4), (2, 5)];
            graph(vec![0; 6], &[&prism[..], &spokes[..]].concat())
        }),
        ("K6 / K6", complete(6), complete(6)),
        ("Petersen / pentagonal prism", petersen(), circulant(10, 5)),
        ("star 5 / its centre's label on a leaf", star(5), {
            let labels = star(5).labels().to_vec();
            graph(labels, &[(0, 1), (1, 2), (1, 3), (1, 4), (1, 5)])
        }),
    ]
}

#[test]
fn symmetric_families_agree() {
    let mut rng = StdRng::seed_from_u64(23);
    for (name, a, b) in symmetric_pairs() {
        let shuffled = permute(&mut rng, &a);
        assert!(
            isomorphic(&a, &shuffled),
            "{name}: canon missed a permuted copy"
        );
        assert!(
            iso_by_subiso(&a, &shuffled),
            "{name}: VF2 missed a permuted copy"
        );
        assert_eq!(
            isomorphic(&a, &b),
            iso_by_subiso(&a, &b),
            "{name}: deciders disagree"
        );
        let shuffled = permute(&mut rng, &b);
        assert_eq!(
            isomorphic(&a, &shuffled),
            iso_by_subiso(&a, &shuffled),
            "{name}: deciders disagree permuted"
        );
    }
}

proptest! {
    /// Molecule-like graphs over labels that collide in the profile lanes:
    /// a permuted copy is isomorphic to both deciders, and a second
    /// molecule of the same size gets the same verdict from both.
    #[test]
    fn molecules_over_colliding_labels_agree(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..12usize);
        let (a, b) = (molecule(&mut rng, n), molecule(&mut rng, n));
        let shuffled = permute(&mut rng, &a);
        prop_assert!(isomorphic(&a, &shuffled), "canon missed an isomorphism (seed {})", seed);
        prop_assert!(iso_by_subiso(&a, &shuffled), "sub-iso missed an isomorphism (seed {})", seed);
        prop_assert_eq!(isomorphic(&a, &b), iso_by_subiso(&a, &b), "deciders disagree (seed {})", seed);
    }

    /// Disjoint unions, half of them of two copies of one molecule: a
    /// permuted union is isomorphic to both deciders, and a union with
    /// one part swapped for another molecule gets the same verdict.
    #[test]
    fn disjoint_unions_agree(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1..7usize);
        let a = molecule(&mut rng, n);
        let b = if rng.random_bool(0.5) { permute(&mut rng, &a) } else { molecule(&mut rng, n) };
        let c = molecule(&mut rng, n);
        let union = disjoint_union(&a, &b);
        let shuffled = permute(&mut rng, &union);
        prop_assert!(isomorphic(&union, &shuffled), "canon missed an isomorphism (seed {})", seed);
        prop_assert!(iso_by_subiso(&union, &shuffled), "sub-iso missed an isomorphism (seed {})", seed);
        let other = disjoint_union(&a, &c);
        prop_assert_eq!(isomorphic(&union, &other), iso_by_subiso(&union, &other), "deciders disagree (seed {})", seed);
    }
}
