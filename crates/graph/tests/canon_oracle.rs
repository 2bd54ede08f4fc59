//! `canonical_form` against a reference: the refine-then-branch search as
//! it stood before the search gained automorphism pruning and its
//! allocation-free refinement and encoding, kept verbatim in [`reference`]
//! (per-vertex `Vec`s in every refinement round, an `O(n²)` `has_edge`
//! encoding, every leaf of the search tree visited). Both must return the
//! same words for every graph, so that a pool deduplicated by either, and
//! every count taken over it, is the same.
//!
//! The reference visits every leaf, so the symmetric families it checks
//! stay small enough for it (`K₆` is 720 leaves); larger ones (`K₁₂` is
//! 12! leaves to it) are checked for time and invariance alone.

use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_graph::generate::{permute, random_connected_graph};
use gc_graph::{canonical_form, LabeledGraph};
use gc_workload::{generate_type_a, TypeAConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The search before automorphism pruning, verbatim but for its imports.
mod reference {
    use gc_graph::{LabeledGraph, VertexId};

    pub fn canonical_words(g: &LabeledGraph) -> Vec<u64> {
        let n = g.vertex_count();
        if n == 0 {
            return Vec::new();
        }
        let initial = refine(g, &initial_colors(g));
        let mut best: Option<Vec<u64>> = None;
        branch(g, &initial, &mut best);
        best.expect("n > 0 yields an encoding")
    }

    /// Initial coloring: by vertex label (dense color ids).
    fn initial_colors(g: &LabeledGraph) -> Vec<u32> {
        let mut labels: Vec<u16> = g.labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        g.labels()
            .iter()
            .map(|l| labels.binary_search(l).expect("label present") as u32)
            .collect()
    }

    /// 1-WL color refinement until fixpoint. Colors are renumbered densely by
    /// (old color, neighbor-color multiset) rank, which keeps them
    /// isomorphism-invariant.
    fn refine(g: &LabeledGraph, colors: &[u32]) -> Vec<u32> {
        let n = g.vertex_count();
        let mut colors = colors.to_vec();
        loop {
            // signature: (own color, sorted neighbor colors)
            let mut sigs: Vec<(u32, Vec<u32>)> = (0..n)
                .map(|v| {
                    let mut ns: Vec<u32> = g
                        .neighbors(v as VertexId)
                        .iter()
                        .map(|&w| colors[w as usize])
                        .collect();
                    ns.sort_unstable();
                    (colors[v], ns)
                })
                .collect();
            let mut sorted: Vec<&(u32, Vec<u32>)> = sigs.iter().collect();
            sorted.sort();
            sorted.dedup();
            let new_colors: Vec<u32> = sigs
                .iter()
                .map(|s| sorted.binary_search(&s).expect("own signature") as u32)
                .collect();
            let class_count_old = {
                let mut c = colors.clone();
                c.sort_unstable();
                c.dedup();
                c.len()
            };
            let class_count_new = sorted.len();
            sigs.clear();
            if class_count_new == class_count_old {
                return new_colors;
            }
            colors = new_colors;
        }
    }

    /// Encodes the graph under the vertex order induced by discrete colors.
    /// The encoding lists `n`, per-vertex labels, then the upper-triangular
    /// adjacency bits packed into u64 words — totally ordered, so the minimum
    /// over branchings is canonical.
    fn encode(g: &LabeledGraph, colors: &[u32]) -> Vec<u64> {
        let n = g.vertex_count();
        // order[i] = vertex with color i (colors are a permutation 0..n here)
        let mut order = vec![0 as VertexId; n];
        for (v, &c) in colors.iter().enumerate() {
            order[c as usize] = v as VertexId;
        }
        let mut out = Vec::with_capacity(1 + n + n * n / 128 + 1);
        out.push(n as u64);
        for &v in &order {
            out.push(g.label(v) as u64);
        }
        let mut word = 0u64;
        let mut bits = 0u32;
        for i in 0..n {
            for j in (i + 1)..n {
                let bit = g.has_edge(order[i], order[j]) as u64;
                word = (word << 1) | bit;
                bits += 1;
                if bits == 64 {
                    out.push(word);
                    word = 0;
                    bits = 0;
                }
            }
        }
        if bits > 0 {
            out.push(word << (64 - bits));
        }
        out
    }

    /// `true` iff every vertex has a unique color.
    fn discrete(colors: &[u32]) -> bool {
        let mut seen = vec![false; colors.len()];
        for &c in colors {
            if seen[c as usize] {
                return false;
            }
            seen[c as usize] = true;
        }
        true
    }

    fn branch(g: &LabeledGraph, colors: &[u32], best: &mut Option<Vec<u64>>) {
        if discrete(colors) {
            let enc = encode(g, colors);
            match best {
                Some(b) if *b <= enc => {}
                _ => *best = Some(enc),
            }
            return;
        }
        // smallest non-singleton color class, individualize each member
        let n = colors.len();
        let mut class_size = vec![0u32; n];
        for &c in colors {
            class_size[c as usize] += 1;
        }
        let target_color = (0..n as u32)
            .filter(|&c| class_size[c as usize] > 1)
            .min_by_key(|&c| class_size[c as usize])
            .expect("non-discrete coloring has a splittable class");

        for v in 0..n {
            if colors[v] == target_color {
                // individualize v: give it a fresh color below its class, then
                // re-refine. Shift is isomorphism-invariant because it depends
                // only on (color, chosen-class) structure.
                let mut next = colors.to_vec();
                for (u, c) in next.iter_mut().enumerate() {
                    if *c > target_color || (u != v && *c == target_color) {
                        *c += 1;
                    }
                }
                let refined = refine(g, &next);
                branch(g, &refined, best);
            }
        }
    }
}

/// The labels Method M's pruning tests use: they collide in its lanes, and
/// here they make several label classes of unequal sizes.
const LABELS: [u16; 4] = [0, 2, 11, 14];

fn graph(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
    LabeledGraph::from_parts(labels, edges).expect("a simple graph")
}

fn assert_matches_reference(g: &LabeledGraph, what: &str) {
    assert_eq!(
        canonical_form(g).words(),
        &reference::canonical_words(g)[..],
        "{what}: {g:?}"
    );
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
    graph(
        vec![0; n as usize],
        &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>(),
    )
}

fn star(leaves: u32) -> LabeledGraph {
    let mut labels = vec![2; leaves as usize + 1];
    labels[0] = 11;
    graph(labels, &(1..=leaves).map(|i| (0, i)).collect::<Vec<_>>())
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

/// The `k × k` rook's graph: cells sharing a row or a column are adjacent.
fn rook(k: u32) -> LabeledGraph {
    let edges: Vec<_> = (0..k * k)
        .flat_map(|u| (u + 1..k * k).map(move |v| (u, v)))
        .filter(|&(u, v)| u / k == v / k || u % k == v % k)
        .collect();
    graph(vec![0; (k * k) as usize], &edges)
}

/// The symmetric families every canonical-form change is checked on, at
/// sizes the reference can search exhaustively.
fn families() -> Vec<(String, LabeledGraph)> {
    let mut out = Vec::new();
    for n in 3..=9 {
        out.push((format!("C{n}"), cycle(n)));
    }
    for k in 1..=7 {
        out.push((format!("star {k}"), star(k)));
    }
    out.push(("K(3,3)".into(), complete_bipartite(3, 3)));
    out.push(("K(2,4)".into(), complete_bipartite(2, 4)));
    out.push(("K6".into(), complete(6)));
    out.push(("Petersen".into(), petersen()));
    out.push(("2 C4".into(), disjoint_union(&cycle(4), &cycle(4))));
    out.push(("C3 + C5".into(), disjoint_union(&cycle(3), &cycle(5))));
    out.push(("2 K(3,3)".into(), {
        disjoint_union(&complete_bipartite(3, 3), &complete_bipartite(3, 3))
    }));
    out.push(("K4 + C4".into(), disjoint_union(&complete(4), &cycle(4))));
    out.push(("3 K2".into(), {
        let k2 = complete(2);
        disjoint_union(&disjoint_union(&k2, &k2), &k2)
    }));
    out
}

fn molecule(rng: &mut StdRng, max_n: usize) -> LabeledGraph {
    let n = rng.random_range(1..max_n);
    let extra = rng.random_range(0..n.min(6));
    random_connected_graph(rng, n, extra, |r| LABELS[r.random_range(0..LABELS.len())])
}

#[test]
fn symmetric_families_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(42);
    for (name, g) in families() {
        assert_matches_reference(&g, &name);
        let shuffled = permute(&mut rng, &g);
        assert_matches_reference(&shuffled, &format!("{name} permuted"));
        assert_eq!(canonical_form(&g), canonical_form(&shuffled), "{name}");
    }
}

#[test]
fn empty_and_single_vertex_graphs_match_the_reference() {
    assert_matches_reference(&LabeledGraph::new(), "empty");
    for label in LABELS {
        assert_matches_reference(&graph(vec![label], &[]), "one vertex");
    }
    assert_matches_reference(&graph(vec![2, 2, 2], &[]), "three isolated vertices");
}

proptest! {
    #[test]
    fn random_molecules_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = molecule(&mut rng, 16);
        assert_matches_reference(&g, &format!("seed {seed}"));
        assert_matches_reference(&permute(&mut rng, &g), &format!("seed {seed} permuted"));
    }

    #[test]
    fn disjoint_unions_match_the_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = molecule(&mut rng, 7);
        // a second copy of `a` half the time: unions of equal parts have
        // the automorphisms that swap them
        let b = if rng.random_bool(0.5) { permute(&mut rng, &a) } else { molecule(&mut rng, 7) };
        let union = disjoint_union(&a, &b);
        assert_matches_reference(&union, &format!("seed {seed}"));
        assert_matches_reference(&permute(&mut rng, &union), &format!("seed {seed} permuted"));
    }
}

/// The serving benchmark's `cold_uniform` pool is deduplicated by
/// canonical form: its first 3,000 Type A extractions (UU over 4,000
/// synthetic AIDS graphs, seed 2017) must get the reference's words.
#[test]
fn cold_uniform_pool_extractions_match_the_reference() {
    let dataset = synthetic_aids(&AidsConfig::scaled(4000, 2017));
    let extractions = generate_type_a(&dataset, &TypeAConfig::uu(3000, 2018)).queries;
    assert_eq!(extractions.len(), 3000);
    for (i, q) in extractions.iter().enumerate() {
        assert_matches_reference(q, &format!("extraction {i}"));
    }
}

/// Refinement cannot split a vertex-transitive graph, so these are all
/// search: without automorphism pruning `K₁₂` alone is 12! leaves. Each
/// must canonicalize within 10 ms in a release build (the bound is not
/// checked in debug builds) and equal a permuted copy.
#[test]
fn large_symmetric_graphs_canonicalize_in_milliseconds() {
    let mut rng = StdRng::seed_from_u64(12);
    for (name, g) in [
        ("K12", complete(12)),
        ("K(6,6)", complete_bipartite(6, 6)),
        ("C32", cycle(32)),
        ("Petersen", petersen()),
        ("4x4 rook", rook(4)),
    ] {
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let start = Instant::now();
            let form = canonical_form(&g);
            fastest = fastest.min(start.elapsed());
            assert_eq!(form, canonical_form(&permute(&mut rng, &g)), "{name}");
        }
        assert!(
            cfg!(debug_assertions) || fastest <= Duration::from_millis(10),
            "{name} took {fastest:?}"
        );
    }
}
