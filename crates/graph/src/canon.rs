//! Canonical forms for small labeled graphs: isomorphism-invariant
//! certificates, equal iff the graphs are isomorphic. The SPARQL cache of
//! the paper's ref \[22\] keys exact hits by canonical labeling; GC+ finds
//! them during the containment probes it runs anyway, so this serves
//! counting distinct queries, deduplicating query pools and testing.
//!
//! Color refinement (1-WL) starts each vertex at its label's rank and
//! renumbers the vertices densely by the rank of (color, sorted neighbor
//! colors) until a round leaves the class count unchanged. Then each member
//! of the smallest class (the lowest color among equals) is individualized
//! in turn, and the search recurses. A discrete coloring (a *leaf*) orders
//! the vertices; the form is the smallest leaf's `n`, labels in that order
//! and upper-triangular adjacency bits, packed MSB-first into `u64` words.
//! Two leaves with equal words give an automorphism γ; if γ fixes a node's
//! individualized prefix, it maps the subtree of its child `v` onto that of
//! `γ(v)`. A child in the orbit of an explored sibling under such
//! automorphisms only repeats its leaves, so it is skipped, or abandoned
//! once found to be there; the form is exactly the unpruned search's.
//!
//! Cost: one fixed scratch per call (`O(n + m)`, `O(n)` per search level,
//! at most 64 automorphisms); a refinement round is `O(n + m)` plus sorting
//! the rows of classes that split, a leaf `O(n + m + n²/64)`, and a
//! `cold_uniform` pool query (~12 vertices) ~2 µs. Pruning keeps symmetric
//! graphs polynomial (`K₁₂`: 12 leaves, not 12!), but CFI-type graphs stay
//! exponential: cap the work before wire queries reach this.

use std::cmp::Ordering;

use crate::graph::LabeledGraph;

/// An isomorphism-invariant certificate. Equal ⟺ isomorphic.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalForm(Vec<u64>);

impl CanonicalForm {
    /// The words: `n`, the labels in canonical order, the adjacency bits.
    pub fn words(&self) -> &[u64] {
        &self.0
    }
}

/// Computes the canonical form of a graph.
pub fn canonical_form(g: &LabeledGraph) -> CanonicalForm {
    let n = g.vertex_count();
    if n == 0 {
        return CanonicalForm(Vec::new());
    }
    // the root's level and one below it
    let mut levels = vec![0; 8 * n];
    // every leaf lists the labels in the same order, since refinement and
    // individualization only ever split a class in place: by label rank
    let mut form = vec![0; 1 + n + (n * (n - 1) / 2).div_ceil(64)];
    form[0] = n as u64;
    let labels = &mut form[1..=n];
    for (v, (slot, &label)) in labels.iter_mut().zip(g.labels()).enumerate() {
        *slot = u64::from(label) << 32 | v as u64;
    }
    labels.sort_unstable();
    let ((colors, order), mut rank) = (levels.split_at_mut(n), 0);
    for i in 0..n {
        let (label, v) = (labels[i] >> 32, labels[i] as u32);
        rank += u32::from(i > 0 && labels[i - 1] != label);
        (colors[v as usize], order[i], labels[i]) = (rank, v, label);
    }
    let mut buf = vec![0; g.csr().1.len() + n];
    let classes = refine(g, &mut buf, &mut levels[..2 * n], rank as usize + 1);
    if classes == n {
        encode(g, &levels[..n], &mut form[1 + n..]);
    } else {
        let mut search = Search {
            g,
            n,
            buf,
            levels,
            perm: vec![0; 3 * n],
            autos: Vec::new(),
            best: &mut form[1 + n..],
            leaf: Vec::new(),
        };
        search.branch(0, classes);
    }
    CanonicalForm(form)
}

/// `true` iff the two graphs are isomorphic (label-preserving).
pub fn isomorphic(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    a.vertex_count() == b.vertex_count()
        && a.edge_count() == b.edge_count()
        && a.signature().labels == b.signature().labels
        && canonical_form(a) == canonical_form(b)
}

/// Refines a dense coloring of `classes` classes in place until a round
/// leaves the class count unchanged; returns the count. `level` holds the
/// colors, then the vertices by color. A round ranks each vertex by (color,
/// sorted neighbor colors) class by class, a class's subclasses in the
/// order of their rows; a class splits in place, and one whose rows are all
/// equal is not sorted. `buf` holds the rows, aligned with the CSR rows
/// ([`LabeledGraph::csr`]: `u32` offsets, one `u16` id per neighbour) but
/// one `u32` color per slot, then the next round's colors.
fn refine(g: &LabeledGraph, buf: &mut [u32], level: &mut [u32], mut classes: usize) -> usize {
    let (offsets, neighbors) = g.csr();
    let span = |v: u32| offsets[v as usize] as usize..offsets[v as usize + 1] as usize;
    let (colors, order) = level.split_at_mut(level.len() / 2);
    let (rows, fresh) = buf.split_at_mut(neighbors.len());
    let n = colors.len();
    loop {
        let (mut next, mut a) = (0, 0);
        while a < n {
            let color = colors[order[a] as usize];
            let b = (a + 1..n)
                .find(|&b| colors[order[b] as usize] != color)
                .unwrap_or(n);
            let (cell, mut splits) = (&mut order[a..b], false);
            if cell.len() > 1 {
                for &v in cell.iter() {
                    let row = &mut rows[span(v)];
                    for (slot, &w) in row.iter_mut().zip(&neighbors[span(v)]) {
                        *slot = colors[w as usize];
                    }
                    row.sort_unstable();
                }
                splits = cell.iter().any(|&v| rows[span(v)] != rows[span(cell[0])]);
                if splits {
                    cell.sort_unstable_by(|&a, &b| rows[span(a)].cmp(&rows[span(b)]));
                }
            }
            for (i, &v) in cell.iter().enumerate() {
                next += usize::from(splits && i > 0 && rows[span(cell[i - 1])] != rows[span(v)]);
                fresh[v as usize] = next as u32;
            }
            (next, a) = (next + 1, b);
        }
        colors.copy_from_slice(fresh);
        // a discrete coloring has nothing left to split
        if next == classes || next == n {
            return next;
        }
        classes = next;
    }
}

/// The search below a root coloring that refinement left unfinished.
struct Search<'a> {
    g: &'a LabeledGraph,
    n: usize,
    /// [`refine`]'s scratch.
    buf: Vec<u32>,
    /// Level `d`'s `4n` words from `4nd`: [`refine`]'s `level`, an orbit
    /// forest, and per orbit root whether it holds an explored child.
    levels: Vec<u32>,
    /// The smallest leaf's order, an equal leaf's automorphism, and the
    /// vertex individualized at each level.
    perm: Vec<u32>,
    /// The kept automorphisms, `n` images each.
    autos: Vec<u32>,
    /// The smallest leaf's adjacency words (the form's tail); the current
    /// leaf's, empty until the first leaf.
    best: &'a mut [u64],
    leaf: Vec<u64>,
}

impl Search<'_> {
    /// Searches level `d`'s subtree, whose coloring has `classes` classes.
    /// `Some(l)`: the subtree of level `l`'s current child only repeats an
    /// explored sibling's, so the levels below `l` stop and `l` moves on.
    fn branch(&mut self, d: usize, classes: usize) -> Option<usize> {
        let n = self.n;
        if classes == n {
            return self.leaf(d);
        }
        let len = self.levels.len().max(4 * n * (d + 2));
        self.levels.resize(len, 0);
        let [colors, order, parents, explored] = cut(&mut self.levels[4 * n * d..], [n; 4]);
        // the smallest class (the first among equals), by its span in order
        let (mut cell, mut a) = (0..n, 0);
        for b in 1..=n {
            if b == n || colors[order[b] as usize] != colors[order[a] as usize] {
                if b - a > 1 && (cell.len() == n || b - a < cell.len()) {
                    cell = a..b;
                }
                a = b;
            }
        }
        for (v, parent) in parents.iter_mut().enumerate() {
            *parent = v as u32;
        }
        explored.fill(0);
        for gamma in self.autos.chunks_exact(n) {
            if fixes(gamma, &self.perm[2 * n..2 * n + d]) {
                join(parents, explored, gamma);
            }
        }
        for i in cell.clone() {
            let [this, next] = cut(&mut self.levels[4 * n * d..], [4 * n, 2 * n]);
            let [colors, order, parents, explored] = cut(this, [n; 4]);
            let v = order[i];
            if explored[find(parents, v) as usize] != 0 {
                continue;
            }
            // individualize `v`: it keeps its class's color, the rest of
            // the class and every higher class move up one
            let (target, (next_colors, next_order)) = (colors[v as usize], next.split_at_mut(n));
            for (u, (&c, out)) in colors.iter().zip(next_colors).enumerate() {
                *out = c + u32::from(c > target || (c == target && u as u32 != v));
            }
            next_order.copy_from_slice(order);
            next_order.swap(cell.start, i);
            let classes = refine(self.g, &mut self.buf, next, classes + 1);
            self.perm[2 * n + d] = v;
            let abandon = self.branch(d + 1, classes);
            let [_, _, parents, explored] = cut(&mut self.levels[4 * n * d..], [n; 4]);
            explored[find(parents, v) as usize] = 1;
            if abandon.is_some_and(|l| l < d) {
                return abandon;
            }
        }
        None
    }

    /// Scores level `d`'s discrete coloring against the smallest leaf. An
    /// equal leaf's automorphism joins the orbits of every level whose
    /// prefix it fixes, and abandons the highest whose current child it
    /// maps into the orbit of an explored one.
    fn leaf(&mut self, d: usize) -> Option<usize> {
        let n = self.n;
        let [colors, order] = cut(&mut self.levels[4 * n * d..], [n; 2]);
        if self.leaf.is_empty() {
            encode(self.g, colors, self.best);
            self.leaf.resize(self.best.len(), 0);
        } else {
            encode(self.g, colors, &mut self.leaf);
            match self.leaf[..].cmp(self.best) {
                Ordering::Less => self.best.copy_from_slice(&self.leaf),
                Ordering::Greater => return None,
                Ordering::Equal => {
                    let [best_order, gamma, path] = cut(&mut self.perm, [n; 3]);
                    for (&x, &y) in best_order.iter().zip(order.iter()) {
                        gamma[x as usize] = y;
                    }
                    // kept for nodes not reached yet; dropping one only weakens pruning
                    if self.autos.len() < 64 * n {
                        self.autos.extend_from_slice(gamma);
                    }
                    for l in (0..d).take_while(|&l| fixes(gamma, &path[..l])) {
                        let [_, _, parents, explored] = cut(&mut self.levels[4 * n * l..], [n; 4]);
                        join(parents, explored, gamma);
                        if explored[find(parents, path[l]) as usize] != 0 {
                            return Some(l);
                        }
                    }
                    return None;
                }
            }
        }
        self.perm[..n].copy_from_slice(order);
        None
    }
}

/// Cuts `buf` into consecutive parts of the given lengths.
fn cut<const K: usize>(mut buf: &mut [u32], lens: [usize; K]) -> [&mut [u32]; K] {
    lens.map(|len| {
        let (part, rest) = std::mem::take(&mut buf).split_at_mut(len);
        buf = rest;
        part
    })
}

/// Packs the upper-triangular adjacency bits of the vertex order a
/// discrete coloring gives (`colors[v]` is `v`'s position) into `words`,
/// MSB-first: positions `p < q` are bit `p(2n − p − 1)/2 + q − p − 1`.
fn encode(g: &LabeledGraph, colors: &[u32], words: &mut [u64]) {
    let n = colors.len();
    let (offsets, neighbors) = g.csr();
    words.fill(0);
    for (u, &p) in colors.iter().enumerate() {
        for &w in &neighbors[offsets[u] as usize..offsets[u + 1] as usize] {
            // each edge from both ends: the same bit, set twice
            let q = colors[w as usize];
            let (p, q) = (p.min(q) as usize, p.max(q) as usize);
            let bit = p * (2 * n - p - 1) / 2 + q - p - 1;
            words[bit / 64] |= 1 << (63 - bit % 64);
        }
    }
}

/// `true` iff `gamma` fixes every vertex of `prefix`.
fn fixes(gamma: &[u32], prefix: &[u32]) -> bool {
    prefix.iter().all(|&v| gamma[v as usize] == v)
}

/// The root of `v` in a union-find forest, halving the path on the way.
fn find(parents: &mut [u32], mut v: u32) -> u32 {
    while parents[v as usize] != v {
        parents[v as usize] = parents[parents[v as usize] as usize];
        v = parents[v as usize];
    }
    v
}

/// Joins every vertex's orbit with its image's under `gamma`; a joined
/// orbit holds an explored child if either did.
fn join(parents: &mut [u32], explored: &mut [u32], gamma: &[u32]) {
    for (v, &w) in gamma.iter().enumerate() {
        let (a, b) = (find(parents, v as u32), find(parents, w));
        let (root, child) = (a.min(b) as usize, a.max(b) as usize);
        parents[child] = root as u32;
        explored[root] |= explored[child];
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
    fn orbits_join_only_automorphisms_fixing_the_prefix() {
        // (0 1) moves the prefix [0]; (1 2) fixes it; the root's prefix is empty
        assert!(!fixes(&[1, 0, 2], &[0]));
        assert!(fixes(&[0, 2, 1], &[0]));
        assert!(fixes(&[1, 0, 2], &[]));
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
