//! Canonical forms for small labeled graphs.
//!
//! A *canonical form* is an isomorphism-invariant certificate: two graphs
//! have equal canonical forms iff they are isomorphic. The SPARQL cache of
//! the paper's ref \[22\] identifies exact cache hits by canonical labeling;
//! GC+ instead finds exact matches during the (signature-filtered)
//! containment probes it must run anyway. A query that arrives verbatim
//! as a cached graph is confirmed by comparing the two graphs; an
//! isomorphic query with another vertex numbering takes a sub-iso probe.
//! This module provides the canonical-form alternative for the places
//! where only exact isomorphism matters: counting distinct queries in
//! workload analysis, deduplicating query pools, and testing.
//!
//! The algorithm is the classic refine-then-branch scheme:
//!
//! 1. **Iterative color refinement** (1-WL): vertices start colored by
//!    label and are repeatedly split by the multiset of neighbor colors
//!    until stable;
//! 2. **Branching**: if a color class has several vertices, individualize
//!    each in turn and recurse, keeping the lexicographically smallest
//!    resulting adjacency encoding.
//!
//! Worst-case exponential (graph isomorphism!), but query graphs are ≤ ~21
//! edges and molecule-like, where refinement almost always discretizes.

use crate::graph::{LabeledGraph, VertexId};

/// An isomorphism-invariant certificate. Equal ⟺ isomorphic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalForm(Vec<u64>);

/// Computes the canonical form of a graph.
pub fn canonical_form(g: &LabeledGraph) -> CanonicalForm {
    let n = g.vertex_count();
    if n == 0 {
        return CanonicalForm(Vec::new());
    }
    let initial = refine(g, &initial_colors(g));
    let mut best: Option<Vec<u64>> = None;
    branch(g, &initial, &mut best);
    CanonicalForm(best.expect("n > 0 yields an encoding"))
}

/// `true` iff the two graphs are isomorphic (label-preserving).
pub fn isomorphic(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    if a.vertex_count() != b.vertex_count()
        || a.edge_count() != b.edge_count()
        || a.label_histogram() != b.label_histogram()
    {
        return false;
    }
    canonical_form(a) == canonical_form(b)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{permute, random_connected_graph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(canonical_form(&LabeledGraph::new()), CanonicalForm(vec![]));
        let a = g(vec![3], &[]);
        let b = g(vec![3], &[]);
        let c = g(vec![4], &[]);
        assert_eq!(canonical_form(&a), canonical_form(&b));
        assert_ne!(canonical_form(&a), canonical_form(&c));
    }

    #[test]
    fn permutation_invariance() {
        let mut rng = StdRng::seed_from_u64(5);
        for seed in 0..60 {
            let n = rng.random_range(2..10usize);
            let extra = rng.random_range(0..4usize);
            let graph = random_connected_graph(&mut rng, n, extra, |r| r.random_range(0..3u16));
            let shuffled = permute(&mut rng, &graph);
            assert!(
                isomorphic(&graph, &shuffled),
                "seed {seed}: permutation must stay isomorphic"
            );
            assert_eq!(
                canonical_form(&graph),
                canonical_form(&shuffled),
                "seed {seed}: canonical forms must agree"
            );
        }
    }

    #[test]
    fn distinguishes_non_isomorphic_same_signature() {
        // same signature (both 2-regular on one label, so the degree
        // sequences agree too) — different structure: C6 vs two triangles
        let c6 = g(
            vec![0; 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        );
        let two_triangles = g(
            vec![0; 6],
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        );
        assert_eq!(c6.size_signature(), two_triangles.size_signature());
        assert_eq!(c6.signature(), two_triangles.signature());
        assert!(!isomorphic(&c6, &two_triangles));
    }

    #[test]
    fn regular_graphs_need_branching() {
        // 3-regular pair: K4 minus perfect matching (C4) vs ... use the
        // classic C6 vs K3,3-minus-matching style case: C8 vs two C4s
        let c8 = g(
            vec![0; 8],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        let two_c4 = g(
            vec![0; 8],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        );
        // both 2-regular: 1-WL alone cannot split them; branching must
        assert!(!isomorphic(&c8, &two_c4));
        // and each is isomorphic to a shuffled copy of itself
        let mut rng = StdRng::seed_from_u64(9);
        assert!(isomorphic(&c8, &permute(&mut rng, &c8)));
        assert!(isomorphic(&two_c4, &permute(&mut rng, &two_c4)));
    }

    #[test]
    fn labels_break_automorphism() {
        let p1 = g(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        let p2 = g(vec![1, 0, 0], &[(0, 1), (1, 2)]);
        // different label positions on a path: 0-1-0 vs 1-0-0
        assert!(!isomorphic(&p1, &p2));
        let p1_flipped = g(vec![0, 1, 0], &[(2, 1), (1, 0)]);
        assert!(isomorphic(&p1, &p1_flipped));
    }

    #[test]
    fn agrees_with_subiso_based_check() {
        // cross-validate against the two-way containment definition using
        // the brute-force idea: for small graphs, isomorphic ⟺ mutual
        // containment with equal sizes (checked structurally here via
        // permutation tests above; this test pins a few concrete pairs)
        let tri = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let path = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(!isomorphic(&tri, &path));
        assert!(isomorphic(&tri, &tri.clone()));
    }
}
