//! The local-pruning features of a graph: what Method M's verify step and
//! GC+'s hit probe compare right before a matcher runs.
//!
//! Two families, each built lazily on a [`LabeledGraph`] (on the first
//! [`profiles`](LabeledGraph::profiles) or
//! [`path_words`](LabeledGraph::path_words) read after construction or the
//! last mutation), cached there and dropped by every UA/UR:
//!
//! * [`VertexProfiles`] — one packed `u64` per vertex with 2 or more
//!   neighbours: its label, its neighbours counted by label and by label
//!   among those with at least 2 and at least 3 neighbours of their own,
//!   and whether it lies on a ring. A pattern whose entry no target entry
//!   covers cannot embed;
//! * [`PathWords`] — the label sequences of the graph's simple paths of 3
//!   edges, hashed into 512 bits, the third tier, which a scan reads only
//!   once it has had to search a negative.
//!
//! Both are necessary conditions only, and opaque on purpose: the one test
//! of each is [`VertexProfiles::dominates`] and [`PathWords::covers`].
//! The graph-wide screen, the [`GraphSignature`](crate::GraphSignature),
//! lives with the graph in [`graph`](crate::graph).

use crate::graph::{with_scratch, Label, LabeledGraph, VertexId, STACK_SCRATCH};

/// Label lanes of a profile entry: lane `min(l, 11)` counts the
/// neighbours labelled `l`, so labels 0–10 have a lane each and the rarer
/// ones share the last (see [`VertexProfiles`] on label ranks).
const LABEL_LANES: u32 = 12;

/// Degree lanes per threshold: lane `min(l, 2)` of a group counts the
/// neighbours labelled `l` that have at least the group's threshold of
/// neighbours of their own.
const DEGREE_LANES: u32 = 3;

/// The neighbour-degree thresholds of the degree-lane groups, in lane
/// order above the label lanes.
const DEGREE_THRESHOLDS: [usize; 2] = [2, 3];

/// Counting lanes per entry: 12 label lanes, then 3 degree lanes per
/// threshold.
const LANES: u32 = LABEL_LANES + DEGREE_LANES * DEGREE_THRESHOLDS.len() as u32;

/// Bits per counting lane: a count saturating at 3 below one guard bit,
/// so the 4th and later neighbours of one lane add nothing.
const LANE_BITS: u32 = 3;

/// The guard bit of every counting lane (octal `4` per lane, 18 lanes).
const COUNT_GUARDS: u64 = 0o444_444_444_444_444_444;

/// The ring lane sits above the counting lanes: one value bit, set iff the
/// vertex lies on a cycle, under its own guard bit.
const RING_SHIFT: u32 = LANES * LANE_BITS;

/// The top bit of every lane: the counting lanes' guards and the ring
/// lane's bit above its value bit. Always clear in a stored entry, so a
/// lane-wise subtraction borrows into it and never into the next lane.
const LANE_GUARDS: u64 = COUNT_GUARDS | 1 << (RING_SHIFT + 1);

/// The vertex's own label (mod 256) is the entry's top byte, right above
/// the ring lane.
const LABEL_SHIFT: u32 = 56;

const _: () = assert!(RING_SHIFT + 2 == LABEL_SHIFT);
const _: () = assert!(COUNT_GUARDS.count_ones() == LANES);
const _: () = assert!(COUNT_GUARDS < 1 << RING_SHIFT);

/// Vertices of lower degree get no entry (see [`VertexProfiles`]).
const MIN_PROFILE_DEGREE: usize = 2;

/// The lane of `label` in a group of `lanes` lanes.
#[inline]
fn lane_of(label: Label, lanes: u32) -> u32 {
    u32::from(label).min(lanes - 1)
}

/// The label byte of a profile entry.
#[inline]
fn label_of(entry: u64) -> u64 {
    entry >> LABEL_SHIFT
}

/// The counting lanes `w` adds one to in each neighbour's entry.
#[inline]
fn lanes_counting(g: &LabeledGraph, w: VertexId) -> u64 {
    let label = g.label(w);
    let degree = g.degree(w);
    let mut lanes = 1 << (lane_of(label, LABEL_LANES) * LANE_BITS);
    let mut lane = LABEL_LANES + lane_of(label, DEGREE_LANES);
    for threshold in DEGREE_THRESHOLDS {
        lanes |= u64::from(degree >= threshold) << (lane * LANE_BITS);
        lane += DEGREE_LANES;
    }
    lanes
}

/// The low half of a link word: `disc << 32 | low`.
const LOW: u64 = u32::MAX as u64;

/// The profile entry (see [`VertexProfiles`]) of every vertex with 2 or
/// more neighbours, into `entries`, by one iterative depth-first search
/// that counts each row's lanes as it scans the row and finds the ring
/// vertices by Tarjan's low links. The search never enters a vertex with
/// fewer than 2 neighbours: it has no entry, and its one edge is a bridge.
/// `links` and `entries` must start zeroed, and such vertices keep 0.
/// `stack` (one word per vertex, any contents) holds the search path, a
/// frame being `vertex << 32 | next`, the next position of its row to
/// scan.
///
/// `links[v]` is `disc << 32 | low`: `v`'s 1-based discovery time, and
/// the least discovery time that `v`'s subtree reaches over one edge other
/// than `v`'s own tree edge. When `v` finishes, its tree edge is a bridge
/// iff `low` is later than its parent's discovery; if not, both ends lie
/// on a ring. A vertex on a ring always has such a tree edge: a ring
/// through it closed by a back edge runs along tree edges through it.
fn profile_entries(g: &LabeledGraph, entries: &mut [u64], links: &mut [u64], stack: &mut [u64]) {
    let mut time = 0;
    for root in g.vertices() {
        if links[root as usize] != 0 || g.degree(root) < MIN_PROFILE_DEGREE {
            continue;
        }
        time += 1;
        links[root as usize] = time << 32 | time;
        entries[root as usize] = u64::from(g.label(root) as u8) << LABEL_SHIFT;
        stack[0] = u64::from(root) << 32;
        let mut depth = 1;
        'frames: while depth > 0 {
            let frame = stack[depth - 1];
            let v = (frame >> 32) as usize;
            // the simple graph has one edge to the parent, which is no
            // back edge
            let parent = if depth > 1 {
                stack[depth - 2] >> 32
            } else {
                u64::MAX
            };
            let row = g.neighbors_unchecked(v as VertexId);
            let next = (frame & LOW) as usize;
            let mut entry = entries[v];
            for (i, &w) in row[next..].iter().enumerate() {
                let w = VertexId::from(w);
                // a lane that reaches 4 sets its guard bit and drops back
                // to 3
                entry += lanes_counting(g, w);
                entry -= (entry & COUNT_GUARDS) >> 2;
                let seen = links[w as usize];
                if seen == 0 && g.degree(w) >= MIN_PROFILE_DEGREE {
                    entries[v] = entry;
                    stack[depth - 1] = frame + i as u64 + 1;
                    time += 1;
                    links[w as usize] = time << 32 | time;
                    entries[w as usize] = u64::from(g.label(w) as u8) << LABEL_SHIFT;
                    stack[depth] = u64::from(w) << 32;
                    depth += 1;
                    continue 'frames;
                }
                if seen != 0 && u64::from(w) != parent {
                    links[v] = links[v].min(links[v] & !LOW | seen >> 32);
                }
            }
            entries[v] = entry;
            depth -= 1;
            if depth > 0 {
                let p = (stack[depth - 1] >> 32) as usize;
                let low = links[v] & LOW;
                links[p] = links[p].min(links[p] & !LOW | low);
                if low <= links[p] >> 32 {
                    entries[p] |= 1 << RING_SHIFT;
                    entries[v] |= 1 << RING_SHIFT;
                }
            }
        }
    }
}

/// For two entries of one label: `true` iff `big` has at least `small`'s
/// count in every lane. One SWAR subtraction: lane `i` of the difference
/// holds `guard + big_i - small_i ≥ 1` (no borrow crosses a lane, and the
/// equal label bytes cancel) and keeps its guard bit iff `big_i >= small_i`.
#[inline]
fn lanes_cover(big: u64, small: u64) -> bool {
    ((big | LANE_GUARDS) - small) & LANE_GUARDS == LANE_GUARDS
}

/// Per-vertex neighbourhood profiles, the table behind Method M's local
/// pruning.
///
/// A vertex's entry is one `u64`: its own label (mod 256) in the top byte
/// and, below it, a 1-bit ring lane and 18 lanes of saturating counts
/// (capped at 3) over its neighbours, in three groups:
///
/// * 12 label lanes: lane `min(l, 11)` counts the neighbours labelled `l`;
/// * 3 lanes counting, by `min(l, 2)`, the neighbours that have at least 2
///   neighbours of their own;
/// * 3 lanes counting, by `min(l, 2)`, the neighbours that have at least 3;
/// * the ring lane (bit 54, guard bit 55): set iff the vertex has an
///   incident edge that is not a bridge, i.e. lies on a cycle.
///
/// A label-preserving embedding `φ` maps a pattern vertex `u` to a target
/// vertex `φ(u)` with the same label and maps each neighbour `w` of `u`
/// to a distinct neighbour `φ(w)` of `φ(u)`, label for label. `φ` also
/// maps `w`'s neighbours injectively onto `φ(w)`'s, so
/// `deg(φ(w)) ≥ deg(w)`: a neighbour past a degree threshold in the
/// pattern is one in the target. Every (label class, threshold) count of
/// `φ(u)` is therefore at least `u`'s, whatever map sends labels to lanes:
/// folding and capping are both monotone. And `φ` maps a cycle through `u`
/// onto a cycle through `φ(u)` (injective on vertices, edges to edges), so
/// `u`'s ring bit implies `φ(u)`'s. `φ(u)`'s entry thus *covers* `u`'s:
/// same top byte, every lane at least as large. If some pattern entry is
/// covered by no target entry, the pattern cannot embed.
///
/// The fold assumes label ids are ranked by frequency, most frequent
/// first, as `synthetic_aids` draws them: the common labels then get a lane
/// each and a rare label shares one only with other rare labels. On any
/// other id order the test stays sound, only weaker.
///
/// The table keeps only what that test can use. It is sorted, so one
/// label's entries are adjacent; among them only the Pareto-maximal ones
/// stay (an entry covered by another adds nothing on either side: the
/// target keeps a cover for it, the pattern keeps a harder entry to
/// cover). Vertices with fewer than 2 neighbours get no entry. In a target
/// their label lanes sum to at most 1 while every kept pattern entry's sum
/// to at least 2, so they cover nothing. In a pattern, leaving them out
/// only drops necessary conditions; their degree lanes could reject a few
/// more pairs, but not enough to pay for the extra entries.
///
/// The entries are opaque on purpose: the only test is
/// [`dominates`](Self::dominates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexProfiles(Box<[u64]>);

impl VertexProfiles {
    /// The table of `g`, as [`LabeledGraph::profiles`] builds and caches it.
    pub(crate) fn of(g: &LabeledGraph) -> Self {
        let n = g.vertex_count();
        // one scratch buffer, on the stack up to 64 vertices, a third each
        // for the search path, the link words and every vertex's entry; the
        // entries kept are then written over the search path. The table is
        // the build's one heap allocation, so the tables of a dataset built
        // one after another lie end to end
        with_scratch::<{ 3 * STACK_SCRATCH }, _, _>(3 * n, |scratch: &mut [u64]| {
            let (out, rest) = scratch.split_at_mut(n);
            let (links, all) = rest.split_at_mut(n);
            profile_entries(g, all, links, out);
            let mut len = 0;
            for v in g.vertices().filter(|&v| g.degree(v) >= MIN_PROFILE_DEGREE) {
                out[len] = all[v as usize];
                len += 1;
            }
            let entries = &mut out[..len];
            entries.sort_unstable();
            // an entry covered by another of its label is numerically no
            // larger, so only the entries after it can cover it (an equal
            // one too: copies collapse to the last); the kept ones are
            // compacted to the front
            let mut kept = 0;
            for i in 0..len {
                let e = entries[i];
                let covered = entries[i + 1..]
                    .iter()
                    .take_while(|&&f| label_of(f) == label_of(e))
                    .any(|&f| lanes_cover(f, e));
                if !covered {
                    entries[kept] = e;
                    kept += 1;
                }
            }
            // one exact-size allocation per table: the tables of a whole
            // dataset stay resident, so they leave no growth slack behind
            VertexProfiles(entries[..kept].into())
        })
    }

    /// The kept entries, sorted: what [`LabeledGraph::memory_bytes`]
    /// counts.
    pub(crate) fn entries(&self) -> &[u64] {
        &self.0
    }

    /// Necessary condition for `pattern ⊆ self`'s graph: every pattern
    /// entry is covered by an entry of `self`. Both tables are sorted and a
    /// cover is never smaller than what it covers, so one merge walk
    /// suffices: O(|pattern| × entries per label + |self|).
    pub fn dominates(&self, pattern: &VertexProfiles) -> bool {
        let mut lo = 0;
        pattern.0.iter().all(|&p| {
            while lo < self.0.len() && self.0[lo] < p {
                lo += 1;
            }
            self.0[lo..]
                .iter()
                .take_while(|&&t| label_of(t) == label_of(p))
                .any(|&t| lanes_cover(t, p))
        })
    }
}

/// Bits in a [`PathWords`] set, as a power of two.
const PATH_BITS_LOG2: u32 = 9;

/// Words in a [`PathWords`] set (8 × 64 = 512 bits, 64 B).
const PATH_WORDS: usize = 1 << (PATH_BITS_LOG2 - 6);

/// The bit of the path word `c - m - b - a` given `x`, the key of `m`'s
/// and `c`'s labels, and `y`, the key of `b`'s and `a`'s: the labels of
/// the two arms that leave the middle edge `m - b`, each read outward.
/// Reversing the path swaps the arms, so sorting them makes the word the
/// same from either end.
#[inline]
fn path_bit(x: u64, y: u64) -> usize {
    let (x, y) = (x.min(y), x.max(y));
    ((x << 32 | y).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - PATH_BITS_LOG2)) as usize
}

/// The bit a second path hashed to `bit` sets.
#[inline]
fn twin_bit(bit: usize) -> usize {
    ((bit as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93) >> (64 - PATH_BITS_LOG2)) as usize
}

/// Label-path words: which label sequences the graph's simple paths of 3
/// edges spell, read the same from either end, each hashed to one of 512
/// bits (GraphGrep's path features); a bit that two or more paths hash to
/// also sets a second bit, its twin.
///
/// A label-preserving embedding `P ⊆ T` is injective on vertices and maps
/// edges to edges, so it maps the simple paths of P one-to-one onto simple
/// paths of T with the same labels. Each bit then has at least as many of
/// T's paths as of P's, and P's bits, twins included, are a subset of
/// T's. A missing bit disproves containment; a present one proves nothing.
/// (The twin counts a bit's paths, whichever sequences they spell, so the
/// build keeps no map from sequence to count.) The words see what the
/// signature and the per-vertex [`VertexProfiles`] cannot: the labels
/// three hops apart, in order. Which path a bit stands for is opaque on
/// purpose; the only test is [`covers`](Self::covers).
///
/// The build visits each path once, from its middle edge `m - b` with
/// `m < b`: every neighbour `c ≠ b` of `m` against every neighbour
/// `a ∉ {m, c}` of `b`. That is `(deg m − 1)(deg b − 1)` steps per edge,
/// and a graph whose steps would pass [`PATH_STEP_CAP`] has no words
/// ([`LabeledGraph::path_words`] is `None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathWords(pub(crate) [u64; PATH_WORDS]);

/// The most steps a [`PathWords`] build takes: `(deg m − 1)(deg b − 1)`
/// summed over the edges `m - b`, counted before each edge's paths are
/// visited, so a build does at most this many plus one visit per edge. A
/// molecule of valence at most 4 takes at most 9 per edge, so one of the
/// AIDS dataset's largest size (250 edges) takes at most 2,250; the largest
/// of `synthetic_aids(4000, 2017)` takes 627. The cap leaves room for
/// atoms of higher valence. A dense graph from the wire passes it at once:
/// one edge of a 200-vertex clique takes 39,204.
pub const PATH_STEP_CAP: u64 = 1 << 14;

impl PathWords {
    /// The words of `g`, or `None` if the build would pass
    /// [`PATH_STEP_CAP`].
    pub(crate) fn of(g: &LabeledGraph) -> Option<Self> {
        let (offsets, neighbors) = g.csr();
        let row = |v: u16| {
            let v = usize::from(v);
            &neighbors[offsets[v] as usize..offsets[v + 1] as usize]
        };
        let labels = g.labels();
        let label = |v: u16| u64::from(labels[usize::from(v)]);
        // the bits one path has hashed to; the words are these and the
        // twin of each bit a second path hashes to
        let mut once = [0u64; PATH_WORDS];
        let mut words = PathWords([0; PATH_WORDS]);
        let mut steps = 0u64;
        // every vertex id fits in a row's u16
        for m in (0..g.vertex_count()).map(|m| m as u16) {
            let row_m = row(m);
            for &b in row_m.iter().filter(|&&b| m < b) {
                let row_b = row(b);
                steps += ((row_m.len() - 1) * (row_b.len() - 1)) as u64;
                if steps > PATH_STEP_CAP {
                    return None;
                }
                let (lm, lb) = (label(m) << 16, label(b) << 16);
                for &c in row_m {
                    if c == b {
                        continue;
                    }
                    let x = lm | label(c);
                    for &a in row_b {
                        if a != m && a != c {
                            let bit = path_bit(x, lb | label(a));
                            let again = once[bit >> 6] >> (bit & 63) & 1;
                            once[bit >> 6] |= 1 << (bit & 63);
                            let twin = twin_bit(bit);
                            words.0[twin >> 6] |= again << (twin & 63);
                        }
                    }
                }
            }
        }
        for (w, o) in words.0.iter_mut().zip(once) {
            *w |= o;
        }
        Some(words)
    }

    /// `true` iff the graph has no simple path of 3 edges: then every
    /// graph covers it.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; PATH_WORDS]
    }

    /// Necessary condition for `pattern ⊆ self`'s graph: every word of
    /// `pattern` is one of `self`'s.
    #[inline]
    pub fn covers(&self, pattern: &PathWords) -> bool {
        self.0.iter().zip(&pattern.0).all(|(t, p)| p & !t == 0)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// `v`'s profile entry, 0 if it has fewer than the 2 neighbours a
    /// table entry needs.
    fn entry(g: &LabeledGraph, v: VertexId) -> u64 {
        let n = g.vertex_count();
        let (mut entries, mut links) = (vec![0; n], vec![0; n]);
        profile_entries(g, &mut entries, &mut links, &mut vec![0; n]);
        entries[v as usize]
    }

    /// `true` iff `v` lies on a simple cycle: for some edge `(v, w)`, `v`
    /// is still reachable from `w` without it.
    fn on_a_cycle(g: &LabeledGraph, v: VertexId) -> bool {
        g.neighbors(v).iter().map(|&w| VertexId::from(w)).any(|w| {
            let mut seen = vec![false; g.vertex_count()];
            let mut stack = vec![w];
            seen[w as usize] = true;
            while let Some(x) = stack.pop() {
                for y in g.neighbors(x).iter().map(|&y| VertexId::from(y)) {
                    if (x, y) != (w, v) && !seen[y as usize] {
                        seen[y as usize] = true;
                        stack.push(y);
                    }
                }
            }
            seen[v as usize]
        })
    }

    proptest::proptest! {
        /// The ring lane against a brute-force cycle search. Each vertex
        /// hangs under a random earlier one or, about half the time, roots
        /// a tree of its own, so the graphs are forests with several
        /// components and isolated vertices; up to 5 random edges then
        /// close rings, join trees or (loops, duplicates) do nothing.
        #[test]
        fn ring_bit_marks_exactly_the_vertices_on_a_cycle(
            parents in proptest::collection::vec(0u32..64, 0..14),
            extra in proptest::collection::vec((0u32..64, 0u32..64), 0..6),
        ) {
            let n = parents.len() as u32;
            let tree = (0..n).filter_map(|v| {
                let p = parents[v as usize] % (2 * v + 1);
                (p < v).then_some((p, v))
            });
            let more = extra.iter().filter(|_| n > 0).map(|&(x, y)| (x % n, y % n));
            let edges: BTreeSet<_> = tree
                .chain(more)
                .filter(|&(x, y)| x != y)
                .map(|(x, y)| (x.min(y), x.max(y)))
                .collect();
            let edges: Vec<_> = edges.into_iter().collect();
            let g = LabeledGraph::from_parts(vec![0; n as usize], &edges).unwrap();
            for v in g.vertices() {
                proptest::prop_assert_eq!(
                    entry(&g, v) >> RING_SHIFT & 1 == 1,
                    on_a_cycle(&g, v),
                    "vertex {} of {:?}", v, g
                );
            }
        }
    }

    #[test]
    fn profiles_need_each_neighbours_degree() {
        // pattern: hub 0 with label-1 neighbours a and b, where a has two
        // label-2 leaves, so the hub needs a label-1 neighbour with 3
        // neighbours
        let p = LabeledGraph::from_parts(vec![0, 1, 1, 2, 2], &[(0, 1), (0, 2), (1, 3), (1, 4)])
            .unwrap();
        // target: the same hub, but a' has one label-2 leaf and the label-2
        // vertex 4 sits apart; vertices 5-9 cover a's entry (label 1;
        // neighbours labelled 0, 2, 2; the label-0 one has 2 neighbours),
        // so only the hub's entry lacks a cover
        let mut t = LabeledGraph::from_parts(
            vec![0, 1, 1, 2, 2, 1, 0, 5, 2, 2],
            &[(0, 1), (0, 2), (1, 3), (5, 6), (6, 7), (5, 8), (5, 9)],
        )
        .unwrap();
        let label_lanes =
            |e: u64| e & (u64::MAX << LABEL_SHIFT | ((1 << (LABEL_LANES * LANE_BITS)) - 1));
        assert!(lanes_cover(
            label_lanes(entry(&t, 0)),
            label_lanes(entry(&p, 0))
        ));
        assert!(
            !lanes_cover(entry(&t, 0), entry(&p, 0)),
            "a' has 2 neighbours"
        );
        assert!(!t.profiles().dominates(p.profiles()));
        // UA two hops from the hub: a' gets its third neighbour and p
        // embeds; UR takes it back
        t.add_edge(1, 4).unwrap();
        assert!(t.profiles().dominates(p.profiles()));
        t.remove_edge(1, 4).unwrap();
        assert!(!t.profiles().dominates(p.profiles()));
    }
}
