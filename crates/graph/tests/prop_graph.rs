//! Property tests for the graph substrate: the bitset is checked against a
//! `HashSet<usize>` reference model, graph mutation against a naive
//! edge-set model and against a rebuild of what it leaves, and the
//! one-pass `from_parts` against the test reference builder
//! (`builder/mod.rs`). These
//! are the foundations every higher layer (Algorithm 2 validity bits,
//! formulas (1)–(5) candidate algebra) builds on.

use std::collections::HashSet;

use gc_graph::{BitSet, LabeledGraph};
use proptest::prelude::*;

mod builder;
use builder::GraphBuilder;

/// Ops applied to both the BitSet under test and a HashSet model.
#[derive(Debug, Clone)]
enum BitOp {
    Set(usize),
    Clear(usize),
}

fn bitop() -> impl Strategy<Value = BitOp> {
    prop_oneof![
        (0usize..512).prop_map(BitOp::Set),
        (0usize..512).prop_map(BitOp::Clear),
    ]
}

proptest! {
    #[test]
    fn bitset_matches_hashset_model(ops in prop::collection::vec(bitop(), 0..200)) {
        let mut bs = BitSet::new();
        let mut model: HashSet<usize> = HashSet::new();
        for op in ops {
            match op {
                BitOp::Set(i) => {
                    bs.set(i, true);
                    model.insert(i);
                }
                BitOp::Clear(i) => {
                    bs.set(i, false);
                    model.remove(&i);
                }
            }
        }
        prop_assert_eq!(bs.count_ones(), model.len());
        let mut expected: Vec<usize> = model.iter().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(bs.iter_ones().collect::<Vec<_>>(), expected);
        for i in 0..512 {
            prop_assert_eq!(bs.get(i), model.contains(&i));
        }
    }

    #[test]
    fn bitset_algebra_matches_sets(
        a in prop::collection::hash_set(0usize..256, 0..64),
        b in prop::collection::hash_set(0usize..256, 0..64),
    ) {
        let ba = BitSet::from_indices(a.iter().copied());
        let bb = BitSet::from_indices(b.iter().copied());

        let union: HashSet<usize> = a.union(&b).copied().collect();
        let inter: HashSet<usize> = a.intersection(&b).copied().collect();
        let diff: HashSet<usize> = a.difference(&b).copied().collect();

        prop_assert_eq!(
            ba.union(&bb).iter_ones().collect::<HashSet<_>>(), union);
        prop_assert_eq!(
            ba.intersection(&bb).iter_ones().collect::<HashSet<_>>(), inter);
        prop_assert_eq!(
            ba.difference(&bb).iter_ones().collect::<HashSet<_>>(), diff);
        prop_assert_eq!(ba.is_subset_of(&bb), a.is_subset(&b));
        prop_assert_eq!(ba.is_disjoint(&bb), a.is_disjoint(&b));
    }

    /// The fused supergraph-hit filter equals its definitional expansion:
    /// cs ∩ (¬valid ∪ answer).
    #[test]
    fn retain_super_hit_matches_definition(
        cs in prop::collection::hash_set(0usize..128, 0..64),
        valid in prop::collection::hash_set(0usize..128, 0..64),
        answer in prop::collection::hash_set(0usize..128, 0..64),
    ) {
        let mut got = BitSet::from_indices(cs.iter().copied());
        got.retain_super_hit(
            &BitSet::from_indices(valid.iter().copied()),
            &BitSet::from_indices(answer.iter().copied()),
        );
        let expected: HashSet<usize> = cs
            .iter()
            .copied()
            .filter(|g| !valid.contains(g) || answer.contains(g))
            .collect();
        prop_assert_eq!(got.iter_ones().collect::<HashSet<_>>(), expected);
    }
}

/// A simple reference model of an undirected simple graph.
#[derive(Debug, Default)]
struct EdgeModel {
    edges: HashSet<(u32, u32)>,
}

impl EdgeModel {
    fn key(u: u32, v: u32) -> (u32, u32) {
        (u.min(v), u.max(v))
    }
    fn insert(&mut self, u: u32, v: u32) -> bool {
        self.edges.insert(Self::key(u, v))
    }
    fn remove(&mut self, u: u32, v: u32) -> bool {
        self.edges.remove(&Self::key(u, v))
    }
    fn contains(&self, u: u32, v: u32) -> bool {
        self.edges.contains(&Self::key(u, v))
    }
}

#[derive(Debug, Clone)]
enum EdgeOp {
    Add(u32, u32),
    Remove(u32, u32),
}

fn edgeop(n: u32) -> impl Strategy<Value = EdgeOp> {
    prop_oneof![
        (0..n, 0..n).prop_map(|(u, v)| EdgeOp::Add(u, v)),
        (0..n, 0..n).prop_map(|(u, v)| EdgeOp::Remove(u, v)),
    ]
}

/// An edge list over `nv` vertices from `(kind, a, b)` draws: kinds 0–12
/// draw an in-range pair (a self loop one time in `nv`), 13 and 14 repeat
/// an earlier edge as drawn or flipped, 15 puts an id at or just past `nv`
/// on either end.
fn edge_list(nv: u32, draws: &[(u8, u32, u32)]) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for &(kind, a, b) in draws {
        let edge = match kind {
            13 | 14 if !edges.is_empty() => {
                let (u, v) = edges[a as usize % edges.len()];
                if kind == 13 {
                    (u, v)
                } else {
                    (v, u)
                }
            }
            15 => {
                let (x, y) = (a % (nv + 2), nv + b % 2);
                if a % 2 == 0 {
                    (x, y)
                } else {
                    (y, x)
                }
            }
            _ => (a % nv.max(1), b % nv.max(1)),
        };
        edges.push(edge);
    }
    edges
}

proptest! {
    /// Edge mutation (the UA/UR dataset updates) agrees with a HashSet edge
    /// model: success/failure of each op and the final edge set both match.
    #[test]
    fn graph_mutation_matches_model(ops in prop::collection::vec(edgeop(12), 0..100)) {
        let n = 12u32;
        let mut g = LabeledGraph::from_parts((0..n).map(|i| (i % 3) as u16).collect(), &[]).unwrap();
        let mut model = EdgeModel::default();
        for op in ops {
            match op {
                EdgeOp::Add(u, v) => {
                    let ok = g.add_edge(u, v).is_ok();
                    let expected = u != v && !model.contains(u, v);
                    prop_assert_eq!(ok, expected);
                    if expected {
                        model.insert(u, v);
                    }
                }
                EdgeOp::Remove(u, v) => {
                    let ok = g.remove_edge(u, v).is_ok();
                    let expected = u != v && model.contains(u, v);
                    prop_assert_eq!(ok, expected);
                    if expected {
                        model.remove(u, v);
                    }
                }
            }
        }
        prop_assert_eq!(g.edge_count(), model.edges.len());
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    prop_assert_eq!(g.has_edge(u, v), model.contains(u, v));
                }
            }
        }
        // adjacency stays sorted & mirrored
        for u in 0..n {
            let ns = g.neighbors(u);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            for &v in ns {
                prop_assert!(g.neighbors(v.into()).contains(&(u as u16)));
            }
        }
    }

    /// CSR view ⟷ builder equivalence under random UA/UR sequences: the
    /// in-place CSR splicing path and the reference builder's path reach
    /// identical graphs, rows stay sorted and mirrored, `has_edge` is
    /// symmetric, and the degree, max-degree and cached signature values match
    /// a naive from-scratch recomputation (the edge-pair fingerprint: a
    /// rebuild from parts, after every single UA/UR).
    #[test]
    fn csr_matches_builder_and_caches_stay_consistent(
        ops in prop::collection::vec(edgeop(10), 0..120),
    ) {
        let n = 10u32;
        // CSR path: apply UA/UR directly to the frozen representation
        let mut csr =
            LabeledGraph::from_parts((0..n).map(|i| (i % 4) as u16).collect(), &[]).unwrap();
        // record the ops that succeeded to replay through the builder
        let mut applied: Vec<(bool, u32, u32)> = Vec::new();
        for op in ops {
            match op {
                EdgeOp::Add(u, v) => {
                    if csr.add_edge(u, v).is_ok() {
                        applied.push((true, u, v));
                    }
                }
                EdgeOp::Remove(u, v) => {
                    if csr.remove_edge(u, v).is_ok() {
                        applied.push((false, u, v));
                    }
                }
            }

            // invariants hold after EVERY mutation, not just at the end
            for u in 0..n {
                let row = csr.neighbors(u);
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row sorted");
                prop_assert_eq!(row.len(), csr.degree(u), "degree = row length");
                for v in row.iter().map(|&v| u32::from(v)) {
                    prop_assert!(csr.has_edge(u, v) && csr.has_edge(v, u), "symmetry");
                    prop_assert!(csr.neighbors(v).contains(&(u as u16)), "mirror");
                }
            }
            // cached signature vs naive recomputation
            let sig = csr.signature();
            prop_assert_eq!(csr.edge_count(), csr.edges().count(), "edge count");
            let naive_max = (0..n).map(|v| csr.neighbors(v).len()).max().unwrap_or(0);
            prop_assert_eq!(csr.max_degree(), naive_max, "max degree");
            let mut naive_hist: Vec<(u16, u32)> = Vec::new();
            for &l in csr.labels() {
                match naive_hist.iter_mut().find(|(hl, _)| *hl == l) {
                    Some((_, c)) => *c += 1,
                    None => naive_hist.push((l, 1)),
                }
            }
            naive_hist.sort_unstable();
            prop_assert_eq!(&*sig.labels, &naive_hist[..], "label-histogram cache");
            // 10 vertices on 4 labels: pair counts cross every fingerprint
            // threshold in both directions and drop to 0 along the way
            let rebuilt = LabeledGraph::from_parts(
                csr.labels().to_vec(),
                &csr.edges().collect::<Vec<_>>(),
            )
            .unwrap();
            prop_assert_eq!(sig, rebuilt.signature(), "edge-pair fingerprint cache");
        }

        // builder path: replay the surviving edge set in one batch
        let mut b = GraphBuilder::with_capacity(n as usize);
        for i in 0..n {
            b.add_vertex((i % 4) as u16);
        }
        let mut survivors: HashSet<(u32, u32)> = HashSet::new();
        for (add, u, v) in applied {
            let key = (u.min(v), u.max(v));
            if add {
                survivors.insert(key);
            } else {
                survivors.remove(&key);
            }
        }
        for &(u, v) in &survivors {
            b.add_edge(u, v).expect("survivor edges are distinct");
        }
        let built = b.build().unwrap();
        prop_assert_eq!(&built, &csr, "builder and CSR-splice paths agree");
        prop_assert_eq!(built.signature(), csr.signature());
    }

    /// The lazily built profile table under random UA/UR: it is built
    /// before every op, so an op that failed to drop it would leave it
    /// stale; after every op it equals the table of a from-parts rebuild,
    /// and a graph with a built table equals a fresh graph without one.
    /// Labels 11, 12 and 256 share the last label lane, 0 and 256 the label
    /// byte, and 3, 11, 12 and 256 the last lane of each degree group. The
    /// graph starts as a path, whose degrees sit at the lanes' thresholds,
    /// and the first op closes it into a ring: that sets the ring lane of
    /// every vertex, up to five hops from the new edge, and moves both ends
    /// across 2 neighbours, which changes the entry of a vertex two hops
    /// away; later ops change two-hop entries often.
    #[test]
    fn profile_table_follows_every_ua_and_ur(
        ops in prop::collection::vec(edgeop(10), 0..120),
    ) {
        const LABELS: [u16; 5] = [0, 3, 11, 12, 256];
        let labels: Vec<u16> = (0..10).map(|i| LABELS[i % LABELS.len()]).collect();
        let path: Vec<(u32, u32)> = (1..10).map(|v| (v - 1, v)).collect();
        let mut g = LabeledGraph::from_parts(labels, &path).unwrap();
        let fresh = |g: &LabeledGraph| {
            LabeledGraph::from_parts(g.labels().to_vec(), &g.edges().collect::<Vec<_>>()).unwrap()
        };
        // an endpoint `x` crossing a threshold changes the entry of each
        // other neighbour of `x` that has an entry (≥ 2 neighbours)
        let two_hop = |g: &LabeledGraph, x: u32, y: u32, before: usize| {
            let after = g.degree(x);
            let crossed = [2, 3].iter().any(|&t| (before >= t) != (after >= t));
            crossed && g.neighbors(x).iter().map(|&w| u32::from(w)).any(|w| w != y && g.degree(w) >= 2)
        };
        // the ring itself embeds once the path is closed, and only then:
        // every one of its entries needs the ring lane
        let ring = {
            let mut r = g.clone();
            r.add_edge(0, 9).unwrap();
            r
        };
        prop_assert!(!g.profiles().dominates(ring.profiles()));
        let (mut applied, mut two_hops) = (0u32, 0u32);
        for (i, op) in std::iter::once(EdgeOp::Add(0, 9)).chain(ops).enumerate() {
            g.profiles();
            let (EdgeOp::Add(u, v) | EdgeOp::Remove(u, v)) = op;
            let (du, dv) = (g.degree(u), g.degree(v));
            let result = match op {
                EdgeOp::Add(..) => g.add_edge(u, v),
                EdgeOp::Remove(..) => g.remove_edge(u, v),
            };
            if result.is_ok() {
                applied += 1;
                two_hops += u32::from(two_hop(&g, u, v, du) || two_hop(&g, v, u, dv));
            }
            prop_assert_eq!(g.profiles(), fresh(&g).profiles(), "table after the op");
            if i == 0 {
                prop_assert!(g.profiles().dominates(ring.profiles()), "the ring closed");
            }
            prop_assert_eq!(&g, &fresh(&g), "a built table does not change equality");
            prop_assert_eq!(&g.clone(), &fresh(&g));
        }
        prop_assert!(applied == 0 || two_hops > 0, "{} ops applied", applied);
    }

    /// The lazily built path words under random UA and UR: they are
    /// built before every op, so an op that failed to drop them would
    /// leave them stale; after every op they equal the words of a
    /// from-parts rebuild, and a graph with built words equals a fresh
    /// graph without them. Labels 0, 2, 11 and 14 (11 and 14 share a
    /// profile lane, not a word). The graph starts as a path over its
    /// first 8 vertices and 4 isolated ones that a later UA may join in.
    /// At least a quarter of the UA and UR change the words.
    #[test]
    fn path_words_follow_every_ua_and_ur(
        ops in prop::collection::vec((0u8..6, 0u32..16, 0u32..16), 0..120),
    ) {
        const LABELS: [u16; 4] = [0, 2, 11, 14];
        let labels: Vec<u16> = (0..12).map(|i| LABELS[i % LABELS.len()]).collect();
        let path: Vec<(u32, u32)> = (1..8).map(|v| (v - 1, v)).collect();
        let mut g = LabeledGraph::from_parts(labels, &path).unwrap();
        let fresh = |g: &LabeledGraph| {
            LabeledGraph::from_parts(g.labels().to_vec(), &g.edges().collect::<Vec<_>>()).unwrap()
        };
        let (mut applied, mut changed) = (0u32, 0u32);
        for (kind, a, b) in ops {
            let before = g.path_words().cloned();
            let n = g.vertex_count() as u32;
            let (u, v) = (a % n, b % n);
            let result = if kind < 3 { g.add_edge(u, v) } else { g.remove_edge(u, v) };
            if result.is_ok() {
                applied += 1;
                changed += u32::from(g.path_words() != before.as_ref());
            }
            prop_assert_eq!(g.path_words(), fresh(&g).path_words(), "words after the op");
            prop_assert_eq!(&g, &fresh(&g), "built words do not change equality");
        }
        prop_assert!(applied < 4 || changed * 4 >= applied, "{} of {} ops", changed, applied);
    }

    /// UA and UR rebuild the label-and-neighbour buffer into an
    /// exact-size buffer and shift the offsets in place.
    /// After every op of a random history the graph equals a from-parts
    /// rebuild of its own labels and edge list in labels, CSR arrays,
    /// signature and bytes: no op leaves an offset, a row, a histogram
    /// entry or a spare byte behind. The graph starts edgeless on `n`
    /// vertices (none at all when `n` is 0), and a UR removes an existing
    /// edge, given in either orientation.
    ///
    /// The signature is built on its first read, so this reads it after
    /// every op; `signatures_read_before_after_and_afresh_agree` checks one
    /// read only at the end.
    #[test]
    fn histories_leave_what_a_rebuild_holds(
        n in 0u32..24,
        ops in prop::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..120),
    ) {
        let labels = (0..n).map(|i| (i % 5 * 3) as u16).collect();
        let mut g = LabeledGraph::from_parts(labels, &[]).unwrap();
        for (kind, a, b) in ops {
            let edges: Vec<(u32, u32)> = g.edges().collect();
            match kind {
                0..=2 if n > 0 => {
                    let _ = g.add_edge(a % n, b % n);
                }
                3 | 4 if !edges.is_empty() => {
                    let (u, v) = edges[a as usize % edges.len()];
                    let (u, v) = if b % 2 == 0 { (u, v) } else { (v, u) };
                    g.remove_edge(u, v).unwrap();
                }
                _ => {}
            }
            let fresh = LabeledGraph::from_parts(
                g.labels().to_vec(),
                &g.edges().collect::<Vec<_>>(),
            )
            .unwrap();
            prop_assert_eq!(g.labels(), fresh.labels());
            prop_assert_eq!(g.csr(), fresh.csr());
            prop_assert_eq!(g.signature(), fresh.signature());
            prop_assert_eq!(g.memory_bytes(), fresh.memory_bytes());
        }
    }

    /// Three ways to a signature after a UA/UR history: one read before
    /// the history, which every op keeps current; one read only after it,
    /// built from what the ops left; and a fresh `from_parts` graph's. All
    /// three are equal, and so are the graphs and their bytes. Up to 10
    /// vertices over labels {0, 2, 11, 14}: pair counts cross every
    /// fingerprint threshold in both directions.
    #[test]
    fn signatures_read_before_after_and_afresh_agree(
        labels in prop::collection::vec(0usize..4, 1..10),
        ops in prop::collection::vec((0u8..5, 0u32..64, 0u32..64), 0..80),
    ) {
        const LABELS: [u16; 4] = [0, 2, 11, 14];
        let labels: Vec<u16> = labels.iter().map(|&l| LABELS[l]).collect();
        let n = labels.len() as u32;
        let mut read = LabeledGraph::from_parts(labels.clone(), &[]).unwrap();
        let mut unread = read.clone();
        read.signature();
        for (kind, a, b) in ops {
            let edges: Vec<(u32, u32)> = read.edges().collect();
            match kind {
                0..=2 => {
                    let (u, v) = (a % n, b % n);
                    prop_assert_eq!(read.add_edge(u, v), unread.add_edge(u, v));
                }
                _ if !edges.is_empty() => {
                    let (u, v) = edges[a as usize % edges.len()];
                    read.remove_edge(u, v).unwrap();
                    unread.remove_edge(v, u).unwrap();
                }
                _ => {}
            }
        }
        let fresh = LabeledGraph::from_parts(labels, &read.edges().collect::<Vec<_>>()).unwrap();
        prop_assert_eq!(&read, &unread);
        prop_assert_eq!(read.signature(), unread.signature(), "kept current, built after");
        prop_assert_eq!(read.signature(), fresh.signature(), "kept current, built afresh");
        prop_assert_eq!(read.memory_bytes(), fresh.memory_bytes());
    }

    /// `from_parts` lays out CSR in one pass where the test reference
    /// builder inserts edge by edge. On every edge list — valid, or with
    /// self loops, ids at and past the vertex count, and duplicates in both
    /// orientations — both give an equal graph or the identical error:
    /// `from_parts` names the first bad edge by its own direct check, the
    /// builder by failing on it.
    #[test]
    fn from_parts_matches_the_builder(
        labels in prop::collection::vec(0u16..4, 0..12),
        draws in prop::collection::vec((0u8..16, 0u32..64, 0u32..64), 0..14),
    ) {
        let edges = edge_list(labels.len() as u32, &draws);
        let mut b = GraphBuilder::with_capacity(labels.len());
        for &l in &labels {
            b.add_vertex(l);
        }
        let built = edges
            .iter()
            .try_for_each(|&(u, v)| b.add_edge(u, v))
            .and_then(|()| b.build());
        prop_assert_eq!(LabeledGraph::from_parts(labels, &edges), built);
    }
}
