//! The labeled undirected graph type used throughout GC+ — CSR edition.
//!
//! Per §3 of the paper: a labeled graph `G = (V, E, l)` has vertices `V`,
//! undirected edges `E ⊆ V × V`, and a labeling `l : V → U` over a label
//! alphabet `U`. Only vertices carry labels. The dataset update operations
//! UA (edge addition) and UR (edge removal) mutate a graph's edge set in
//! place.
//!
//! ### Storage layout
//!
//! The hot read path of every subgraph-isomorphism consumer (VF2/VF2+/GQL
//! feasibility checks, GQL profile construction, the §6 pruner's quick
//! filters) is `neighbors(v)` / `has_edge(u, v)` / `degree(v)`. Those reads
//! used to walk a `Vec<Vec<VertexId>>` — one heap allocation per vertex,
//! pointer-chasing on every neighbor expansion. [`LabeledGraph`] now keeps
//! a **compressed sparse row** (CSR) layout instead, in two exact-size
//! buffers per graph:
//!
//! * a `Box<[u32]>` of the `n + 1` offsets — `offsets[v]..offsets[v+1]`
//!   delimits `v`'s row, so `degree(v)` is one subtraction and
//!   `neighbors(v)` one contiguous slice;
//! * a `Box<[u16]>` of the `n` labels, then the `2m` neighbours — all
//!   adjacency rows concatenated, each row sorted ascending, each
//!   neighbour a `u16`. A graph holds at most [`MAX_VERTICES`] = 65,536
//!   vertices, so every vertex id fits in two bytes; every constructor
//!   refuses a graph past it with [`GraphError::TooManyVertices`]. Only the rows are two-byte: every
//!   API that names one vertex takes and returns a [`VertexId`];
//! * a cached [`GraphSignature`] — the edge count, the label-frequency
//!   histogram and the one-hop [`EdgePairBits`] fingerprint — kept
//!   current by every mutation so the signature
//!   pre-filters in `gc-subiso` never recompute it. The edge count lives
//!   only there. The histogram is a third exact-size buffer, four bytes
//!   per distinct label ([`LabelCount`]: a `u16` label and its count
//!   less one in a `u16`, exact up to the [`MAX_VERTICES`] a label can
//!   reach);
//! * next to it, a lazily built [`VertexProfiles`] table — one packed
//!   word per vertex for its label, its neighbours' labels, how many of
//!   its neighbours have 2 and 3 neighbours of their own, and whether it
//!   lies on a ring — that
//!   Method M's local pruning compares before any matcher runs. It is
//!   built on the first [`profiles`](LabeledGraph::profiles) call, never
//!   at construction (the wire decoder builds every request's graph, and
//!   most requests never reach Method M), and every mutation
//!   drops it. Equality ignores it: a graph whose table was built equals
//!   its fresh clone;
//! * likewise lazy, cached and dropped, its [`PathWords`]: which label
//!   sequences its simple paths of 3 edges spell, hashed into 512 bits,
//!   the third tier of local pruning, which a scan reads only once it has
//!   had to search a negative.
//!
//! Mutation strategy: a whole edge list ([`LabeledGraph::from_parts`], the
//! wire decoder's and every generator's path) is laid out as CSR in one
//! pass — degrees counted, prefix-summed, edges scattered, rows sorted;
//! the generators answer their own `has_edge` and `degree` questions in
//! reused scratch (`generate`'s module docs) and hand it a finished list.
//! [`GraphBuilder`] (per-row `Vec`s with amortized O(deg) sorted inserts,
//! frozen into CSR by [`GraphBuilder::build`]) remains as the replay that
//! names `from_parts`' first offending edge and as the reference the
//! generators and `from_parts` are tested against; both finish in one
//! shared step that computes the signature. The UA/UR single-edge updates shift
//! the offsets in place and rebuild the label-and-neighbour buffer in one
//! pass, the edge spliced in or out on the way. No update adds a vertex:
//! the paper's ADD inserts whole graphs. For the paper's graph sizes (AIDS
//! molecules: ≤ 245 vertices, ≤ 250 edges) a UA/UR is one small
//! allocation and a sub-microsecond copy —
//! cheaper than keeping a second mutable adjacency form in sync — while
//! every read between updates stays flat and cache-friendly, and a
//! resident dataset carries no growth slack.

use std::sync::OnceLock;

/// Vertex identifier inside a single graph (dense, `0..vertex_count`).
pub type VertexId = u32;

/// Vertex label. The AIDS alphabet has 62 symbols; `u16` is plenty.
pub type Label = u16;

/// The most vertices a [`LabeledGraph`] holds: its rows store every vertex
/// id in a `u16`. The AIDS molecules have at most 245.
pub const MAX_VERTICES: usize = 1 << 16;

/// Errors raised by graph construction and mutation.
///
/// The paper's change-plan generator guarantees UA adds a non-existent edge
/// and UR removes an existing one; these errors surface any violation of
/// that contract instead of silently corrupting the dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph would have this many vertices, more than
    /// [`MAX_VERTICES`].
    TooManyVertices(usize),
    /// A vertex id was `>= vertex_count`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The graph's vertex count at the time of the call.
        count: usize,
    },
    /// Self loops are not representable in the paper's simple-graph model.
    SelfLoop(VertexId),
    /// UA attempted on an edge that already exists.
    EdgeExists(VertexId, VertexId),
    /// UR attempted on an edge that does not exist.
    EdgeMissing(VertexId, VertexId),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::TooManyVertices(n) => {
                write!(
                    f,
                    "{n} vertices, more than the {MAX_VERTICES} a graph holds"
                )
            }
            GraphError::VertexOutOfRange { vertex, count } => {
                write!(
                    f,
                    "vertex {vertex} out of range (graph has {count} vertices)"
                )
            }
            GraphError::SelfLoop(v) => write!(f, "self loop on vertex {v} not allowed"),
            GraphError::EdgeExists(u, v) => write!(f, "edge ({u},{v}) already exists"),
            GraphError::EdgeMissing(u, v) => write!(f, "edge ({u},{v}) does not exist"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Words in an [`EdgePairBits`] fingerprint (4 × 64 = 256 bits, 32 B).
const PAIR_WORDS: usize = 4;

/// Occurrence thresholds hashed per label pair: a pair's 1st…4th edge each
/// set a bit, further edges of the same pair add nothing.
const PAIR_THRESHOLDS: u32 = 4;

/// Items per vertex or per edge a [`with_scratch`] buffer holds on the
/// stack.
const STACK_SCRATCH: usize = 64;

/// Runs `f` on a scratch slice of `len` default items: on the stack up to
/// `N` of them, on the heap past that. Every graph construction sorts its
/// labels and its edge keys in one, every UA/UR its edge keys, and every
/// profile table is built in one, so the common small graph allocates
/// nothing for them.
fn with_scratch<const N: usize, T: Copy + Default, R>(
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    if len <= N {
        f(&mut [T::default(); N][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

/// One entry of a label histogram: a label and how many vertices carry
/// it, in four bytes. A graph holds at most [`MAX_VERTICES`] = 65,536
/// vertices, so a count is one of `1..=65_536` and is stored less one in
/// a `u16`; [`count`](Self::count) adds the one back.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelCount {
    label: Label,
    less_one: u16,
}

impl LabelCount {
    /// `count` vertices labelled `label`.
    ///
    /// # Panics
    ///
    /// If `count` is 0 or above [`MAX_VERTICES`].
    fn new(label: Label, count: u32) -> Self {
        assert!(
            (1..=MAX_VERTICES as u32).contains(&count),
            "a label count is 1..={MAX_VERTICES}, not {count}"
        );
        LabelCount {
            label,
            less_one: (count - 1) as u16,
        }
    }

    /// The label.
    #[inline]
    pub fn label(self) -> Label {
        self.label
    }

    /// How many vertices carry it, at least 1.
    #[inline]
    pub fn count(self) -> u32 {
        u32::from(self.less_one) + 1
    }
}

/// Prints as the `(label, count)` pair it stands for.
impl std::fmt::Debug for LabelCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.label, self.count())
    }
}

/// Equal to the `(label, count)` pair it stands for.
impl PartialEq<(Label, u32)> for LabelCount {
    fn eq(&self, &(label, count): &(Label, u32)) -> bool {
        self.label == label && self.count() == count
    }
}

/// The label histogram of `labels`, sorted by label, in one exact-size
/// allocation: the labels are sorted in a scratch buffer, their runs
/// counted, and each run written out once.
fn histogram(labels: &[Label]) -> Box<[LabelCount]> {
    with_scratch::<STACK_SCRATCH, _, _>(labels.len(), |sorted: &mut [Label]| {
        sorted.copy_from_slice(labels);
        sorted.sort_unstable();
        let distinct =
            sorted.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!sorted.is_empty());
        let mut hist = Vec::with_capacity(distinct);
        let mut run = 0;
        for i in 1..=sorted.len() {
            if i == sorted.len() || sorted[i] != sorted[run] {
                hist.push(LabelCount::new(sorted[run], (i - run) as u32));
                run = i;
            }
        }
        hist.into_boxed_slice()
    })
}

/// The unordered label pair of an edge as one sortable key.
#[inline]
fn pair_key(a: Label, b: Label) -> u32 {
    (u32::from(a.min(b)) << 16) | u32::from(a.max(b))
}

/// One-hop edge fingerprint: which unordered label pairs occur on the
/// graph's edges, and how often (up to a small threshold).
///
/// The *feature* `(pair, t)` holds for a graph iff at least `t` of its
/// edges join that label pair, `t = 1..=4`; every feature that holds is
/// hashed to one of 256 bits. A non-induced, label-preserving embedding
/// `P ⊆ T` maps P's edges **injectively** onto T's edges with the same
/// label pair, so T has at least as many edges of every pair as P: every
/// feature of P is a feature of T, and P's bits are a subset of T's.
/// A missing bit therefore disproves containment; a present one proves
/// nothing (distinct features may share a bit, and counts beyond the
/// threshold are not recorded).
///
/// Which feature a bit stands for is opaque on purpose: a bit is only ever
/// compared with the same bit of another fingerprint — by the subset test
/// ([`is_subset_of`](Self::is_subset_of), inside
/// [`GraphSignature::dominates`]), by listing the set bits
/// ([`ones`](Self::ones)), or by the bits one fingerprint has that another
/// lacks ([`difference`](Self::difference)). The label index keeps one
/// posting per bit and moves a graph between them on UA/UR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EdgePairBits([u64; PAIR_WORDS]);

impl EdgePairBits {
    /// Marks the feature "`key` occurs at least `t` times".
    #[inline]
    fn set(&mut self, key: u32, t: u32) {
        // Fibonacci hashing: the top bits of the product mix every input bit
        let feature = u64::from(key) * u64::from(PAIR_THRESHOLDS) + u64::from(t - 1);
        let bit = (feature.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize;
        self.0[bit / 64] |= 1 << (bit % 64);
    }

    /// Fingerprint of the graph with `labels` and CSR arrays `offsets` and
    /// `neighbors`. Each edge's pair key is read off the row of its lower
    /// end into a scratch buffer ([`with_scratch`]: on the stack up to 64
    /// edges); sorting the keys puts the edges of one pair side by side,
    /// where a run's length is the pair's count: O(|E| log |E|).
    fn of_csr(labels: &[Label], offsets: &[u32], neighbors: &[u16]) -> Self {
        with_scratch::<STACK_SCRATCH, _, _>(neighbors.len() / 2, |keys: &mut [u32]| {
            let mut k = 0;
            for (u, w) in offsets.windows(2).enumerate() {
                for &v in &neighbors[w[0] as usize..w[1] as usize] {
                    if u < v as usize {
                        keys[k] = pair_key(labels[u], labels[v as usize]);
                        k += 1;
                    }
                }
            }
            keys.sort_unstable();
            let mut bits = EdgePairBits::default();
            for run in keys.chunk_by(|a, b| a == b) {
                for t in 1..=PAIR_THRESHOLDS.min(run.len() as u32) {
                    bits.set(run[0], t);
                }
            }
            bits
        })
    }

    /// `true` iff every bit of `self` is set in `other`.
    #[inline]
    pub fn is_subset_of(&self, other: &EdgePairBits) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a & !b == 0)
    }

    /// The bits set in `self` and clear in `other`.
    #[inline]
    pub fn difference(&self, other: &EdgePairBits) -> EdgePairBits {
        EdgePairBits(std::array::from_fn(|w| self.0[w] & !other.0[w]))
    }

    /// Positions of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

/// An order-invariant structural summary of a graph, cached on every
/// [`LabeledGraph`] and kept in sync across mutations.
///
/// Isomorphic graphs always share a signature, and `pattern ⊆ target`
/// (non-induced, label-preserving) requires
/// [`target.signature().dominates(pattern.signature())`](GraphSignature::dominates)
/// — the necessary condition Method M's pre-filter stage, the label
/// index (as threshold postings) and the cache's hit-probe quick filters
/// all check before running any matcher. Two fields screen: the label
/// multiset and [`EdgePairBits`], which label pairs the edges join. The
/// edge count screens nothing; it is kept because equal signatures, the
/// exact-match precondition, need equal edge counts (the histogram
/// already sums to the vertex count).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GraphSignature {
    /// `|E|`.
    pub edges: u32,
    /// Label histogram, sorted by label, one four-byte [`LabelCount`] per
    /// distinct label and no spare capacity.
    pub labels: Box<[LabelCount]>,
    /// One-hop edge fingerprint, inline and fixed-width.
    pub edge_pairs: EdgePairBits,
}

impl GraphSignature {
    fn empty() -> Self {
        GraphSignature {
            edges: 0,
            labels: Box::new([]),
            edge_pairs: EdgePairBits::default(),
        }
    }

    /// `true` iff every `(label, count)` of `other` is covered by `self`
    /// (multiset domination).
    pub fn labels_dominate(&self, other: &GraphSignature) -> bool {
        histogram_dominates(&self.labels, &other.labels)
    }

    /// Necessary condition for `other ⊆ self` (non-induced containment):
    /// every edge-pair feature of `other` is one of `self`'s, and `self`
    /// has at least as many vertices of each label. The fingerprint goes
    /// first — four and-nots reject most hopeless pairs before the label
    /// sweep (O(distinct labels of `other`)) runs. Vertex, edge and degree
    /// counts are left to local pruning, whose profile entries count every
    /// neighbour.
    pub fn dominates(&self, other: &GraphSignature) -> bool {
        other.edge_pairs.is_subset_of(&self.edge_pairs) && self.labels_dominate(other)
    }
}

/// Whether a query asks for dataset graphs *containing* it (subgraph
/// query) or *contained in* it (supergraph query) — paper §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Find all `G` with `g ⊆ G`.
    Subgraph,
    /// Find all `G` with `G ⊆ g`.
    Supergraph,
}

impl QueryKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Subgraph => "subgraph",
            QueryKind::Supergraph => "supergraph",
        }
    }
}

/// `true` iff label histogram `big` dominates `small` (both sorted by
/// label, as in [`GraphSignature::labels`]): every label of `small`
/// occurs in `big` at least as often.
#[inline]
pub fn histogram_dominates(big: &[LabelCount], small: &[LabelCount]) -> bool {
    let mut bi = 0;
    for s in small {
        while bi < big.len() && big[bi].label < s.label {
            bi += 1;
        }
        if bi >= big.len() || big[bi].label != s.label || big[bi].count() < s.count() {
            return false;
        }
    }
    true
}

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
    fn of(g: &LabeledGraph) -> Self {
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
pub struct PathWords([u64; PATH_WORDS]);

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
    fn of(g: &LabeledGraph) -> Option<Self> {
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

/// Amortized construction form of [`LabeledGraph`].
///
/// Rows are per-vertex `Vec`s (amortized O(deg) sorted insert per edge);
/// [`build`](GraphBuilder::build) freezes them into the flat CSR layout in
/// one pass. Nothing on a hot path builds through it: a finished edge
/// list, which is what the wire decoder and the generators hold, goes to
/// [`LabeledGraph::from_parts`]. It is what `from_parts` replays to name
/// the first edge it rejects, and the reference the property tests hold
/// `from_parts` and the generators to.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    adj: Vec<Vec<VertexId>>,
    edge_count: usize,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        GraphBuilder {
            labels: Vec::with_capacity(n),
            adj: Vec::with_capacity(n),
            edge_count: 0,
        }
    }

    /// Number of vertices so far.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges so far.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The label of vertex `v`. Panics if out of range.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// Sorted neighbor row of `v`. Panics if out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    /// Degree of `v`. Panics if out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// `true` iff the undirected edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self.adj.get(u as usize) {
            Some(row) => row.binary_search(&v).is_ok(),
            None => false,
        }
    }

    /// Adds a vertex with the given label, returning its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        self.labels.push(label);
        self.adj.push(Vec::new());
        (self.labels.len() - 1) as VertexId
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.labels.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                count: self.labels.len(),
            })
        }
    }

    /// Adds the undirected edge `(u, v)`; rejects duplicates and self loops
    /// with the same contract as [`LabeledGraph::add_edge`].
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let pos_u = match self.adj[u as usize].binary_search(&v) {
            Ok(_) => return Err(GraphError::EdgeExists(u, v)),
            Err(p) => p,
        };
        let pos_v = self.adj[v as usize]
            .binary_search(&u)
            .expect_err("adjacency mirror invariant violated");
        self.adj[u as usize].insert(pos_u, v);
        self.adj[v as usize].insert(pos_v, u);
        self.edge_count += 1;
        Ok(())
    }

    /// Freezes the builder into the CSR representation and computes the
    /// cached signature; fails past [`MAX_VERTICES`] vertices.
    pub fn build(self) -> Result<LabeledGraph, GraphError> {
        let n = check_cap(self.labels.len())?;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut end = 0;
        for row in &self.adj {
            end += row.len() as u32;
            offsets.push(end);
        }
        let mut data = Vec::with_capacity(n + 2 * self.edge_count);
        data.extend_from_slice(&self.labels);
        for row in &self.adj {
            data.extend(row.iter().map(|&v| v as u16));
        }
        Ok(LabeledGraph::from_csr(
            data.into_boxed_slice(),
            offsets.into_boxed_slice(),
        ))
    }
}

/// `n` if a graph may have `n` vertices, else the error that says it may
/// not.
fn check_cap(n: usize) -> Result<usize, GraphError> {
    if n <= MAX_VERTICES {
        Ok(n)
    } else {
        Err(GraphError::TooManyVertices(n))
    }
}

/// The error of an edge list [`LabeledGraph::from_parts`] rejected: the
/// list is replayed through the builder, whose checks name the first
/// offending edge in input order.
fn first_error(labels: &[Label], edges: &[(VertexId, VertexId)]) -> GraphError {
    let mut b = GraphBuilder::with_capacity(labels.len());
    for &l in labels {
        b.add_vertex(l);
    }
    edges
        .iter()
        .find_map(|&(u, v)| b.add_edge(u, v).err())
        .expect("from_parts rejects only what the builder rejects")
}

/// The bytes one graph holds, by feature: each buffer's length, which is
/// its capacity (every buffer a graph keeps is exact-size), plus the
/// graph's own inline bytes (the signature's under `signature`, the rest
/// under `csr`). Allocator headers are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphBytes {
    /// The inline rest of the graph, its labels and its CSR buffers:
    /// `size_of::<LabeledGraph>() − size_of::<GraphSignature>() + 2n +
    /// 4(n + 1) + 4m` (two bytes per label and per neighbour, four per
    /// offset).
    pub csr: u64,
    /// The signature, its label histogram included:
    /// `size_of::<GraphSignature>() + 4` per distinct label.
    pub signature: u64,
    /// The profile table, once built.
    pub profiles: u64,
    /// The path words, once built (none past [`PATH_STEP_CAP`]).
    pub paths: u64,
}

impl GraphBytes {
    /// All four features.
    pub fn total(&self) -> u64 {
        self.csr + self.signature + self.profiles + self.paths
    }
}

impl std::ops::AddAssign for GraphBytes {
    fn add_assign(&mut self, other: GraphBytes) {
        self.csr += other.csr;
        self.signature += other.signature;
        self.profiles += other.profiles;
        self.paths += other.paths;
    }
}

/// An undirected graph with vertex labels, stored in CSR form.
///
/// Layout: two exact-size boxed slices, `data` (`n` labels, then `2m`
/// neighbours as `u16`, end to end) and `offsets` (`n + 1` row offsets);
/// the signature's histogram is one too, so a graph holds exactly its
/// data. The vertex count is `offsets.len() − 1` and the edge count
/// `sig.edges`. [`memory_bytes`](Self::memory_bytes) counts it.
///
/// Invariants:
/// * `n ≤ MAX_VERTICES`, so every vertex id fits in a `u16`;
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, non-decreasing,
///   `offsets[n] == 2m`, and `data.len() == n + 2m`;
/// * each row `neighbors[offsets[v]..offsets[v+1]]` of `data[n..]` is
///   sorted ascending and mirrors its counterpart
///   (`v ∈ row(u) ⟺ u ∈ row(v)`);
/// * no self loops, no parallel edges;
/// * `sig` equals the signature recomputed from scratch;
/// * `profiles` is empty or equals the table recomputed from scratch, and
///   `paths` is empty or equals the words recomputed from scratch: each is
///   filled on its first read and emptied by every mutation.
///
/// Equality is structural: it compares labels, the CSR buffers and the
/// signature, not the two caches, `profiles` and `paths`, which are
/// functions of the rest. Two equal graphs therefore also have equal
/// [`memory_bytes`](Self::memory_bytes) up to their caches.
#[derive(Clone)]
pub struct LabeledGraph {
    data: Box<[u16]>,
    offsets: Box<[u32]>,
    sig: GraphSignature,
    profiles: OnceLock<VertexProfiles>,
    paths: OnceLock<Option<Box<PathWords>>>,
}

impl PartialEq for LabeledGraph {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.offsets == other.offsets && self.sig == other.sig
    }
}

impl Eq for LabeledGraph {}

impl LabeledGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        LabeledGraph {
            data: Box::new([]),
            offsets: Box::new([0]),
            sig: GraphSignature::empty(),
            profiles: OnceLock::new(),
            paths: OnceLock::new(),
        }
    }

    /// Builds a graph from a label list and an edge list — the wire
    /// decoder's constructor.
    ///
    /// The CSR arrays are laid out in one pass: degrees counted, prefix
    /// sums taken, edges scattered into their rows, each row sorted. More
    /// than [`MAX_VERTICES`] labels are rejected before anything is
    /// allocated. An out-of-range id, a self loop or a duplicate edge (in
    /// either orientation) is rejected with the error
    /// [`GraphBuilder::add_edge`] raises for the first offending edge in
    /// input order.
    pub fn from_parts(
        labels: Vec<Label>,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, GraphError> {
        let n = check_cap(labels.len())?;
        // offsets[v] counts v's degree, then, summed inclusively, the end
        // of v's row; the scatter walks each cursor back to its row start.
        // The neighbours go after the labels, in the labels' own buffer
        let mut offsets = vec![0u32; n + 1].into_boxed_slice();
        for &(u, v) in edges {
            if u == v || u as usize >= n || v as usize >= n {
                return Err(first_error(&labels, edges));
            }
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
        }
        for v in 1..=n {
            offsets[v] += offsets[v - 1];
        }
        let mut data = labels;
        data.reserve_exact(2 * edges.len());
        data.resize(n + 2 * edges.len(), 0);
        let neighbors = &mut data[n..];
        for &(u, v) in edges {
            offsets[u as usize] -= 1;
            neighbors[offsets[u as usize] as usize] = v as u16;
            offsets[v as usize] -= 1;
            neighbors[offsets[v as usize] as usize] = u as u16;
        }
        for v in 0..n {
            let row = &mut neighbors[offsets[v] as usize..offsets[v + 1] as usize];
            row.sort_unstable();
            if row.windows(2).any(|w| w[0] == w[1]) {
                return Err(first_error(&data[..n], edges));
            }
        }
        Ok(Self::from_csr(data.into_boxed_slice(), offsets))
    }

    /// Wraps CSR buffers that already hold the type's invariants (at most
    /// [`MAX_VERTICES`] vertices, rows sorted and mirrored, no loop, no
    /// parallel edge) and computes the cached signature: the one finish of
    /// both constructors.
    fn from_csr(data: Box<[u16]>, offsets: Box<[u32]>) -> Self {
        let (labels, neighbors) = data.split_at(offsets.len() - 1);
        let sig = GraphSignature {
            edges: (neighbors.len() / 2) as u32,
            labels: histogram(labels),
            edge_pairs: EdgePairBits::of_csr(labels, &offsets, neighbors),
        };
        LabeledGraph {
            data,
            offsets,
            sig,
            profiles: OnceLock::new(),
            paths: OnceLock::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges. O(1) — served from the cached
    /// signature.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.sig.edges as usize
    }

    /// `true` iff the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_count() == 0
    }

    /// The cached structural signature (edge count, label histogram,
    /// edge-pair fingerprint). O(1); refreshed incrementally by every
    /// mutation.
    #[inline]
    pub fn signature(&self) -> &GraphSignature {
        &self.sig
    }

    /// The bytes this graph holds, by feature ([`GraphBytes`]).
    pub fn memory_bytes(&self) -> GraphBytes {
        use std::mem::{size_of, size_of_val};
        let bytes = |n: usize| n as u64;
        GraphBytes {
            csr: bytes(
                size_of::<Self>() - size_of::<GraphSignature>()
                    + size_of_val(&*self.data)
                    + size_of_val(&*self.offsets),
            ),
            signature: bytes(size_of::<GraphSignature>() + size_of_val(&*self.sig.labels)),
            profiles: bytes(
                self.profiles
                    .get()
                    .map_or(0, |p| p.0.len() * size_of::<u64>()),
            ),
            paths: bytes(match self.paths.get() {
                Some(Some(_)) => size_of::<PathWords>(),
                _ => 0,
            }),
        }
    }

    /// The per-vertex neighbourhood profiles, built on the first call after
    /// construction or the last mutation (O(|V| + |E|) plus a sort of at
    /// most |V| words) and cached until the next mutation.
    pub fn profiles(&self) -> &VertexProfiles {
        self.profiles.get_or_init(|| VertexProfiles::of(self))
    }

    /// The label-path words, built on the first call after construction or
    /// the last mutation (O(Σ over edges of the two ends' degrees' product))
    /// and cached until the next mutation; `None` for a graph whose build
    /// would pass [`PATH_STEP_CAP`]. They are boxed, so a graph that never
    /// builds them, as most never do, pays one pointer for them.
    pub fn path_words(&self) -> Option<&PathWords> {
        self.paths
            .get_or_init(|| PathWords::of(self).map(Box::new))
            .as_deref()
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.vertex_count() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                count: self.vertex_count(),
            })
        }
    }

    /// Where `value` (in range) sits in `row`'s sorted slot, as a position
    /// among all neighbours: `Ok` if it is there, `Err` where it would go.
    fn find_in_row(&self, row: VertexId, value: VertexId) -> Result<usize, usize> {
        let start = self.offsets[row as usize] as usize;
        self.neighbors_unchecked(row)
            .binary_search(&(value as u16))
            .map(|p| start + p)
            .map_err(|p| start + p)
    }

    /// UA (`add`) or UR of the edge `(u, v)`: every offset past `u` and
    /// past `v` moves by one in place, and the label-and-neighbour buffer
    /// is rebuilt in one pass into an exact-size buffer, `v` going in at
    /// (or coming out of) neighbour position `at_u`, in `u`'s row, and `u`
    /// at `at_v`, in `v`'s. On a tie of insert positions (one row's end is
    /// the other's start) the lower row's value goes first.
    fn splice(&mut self, u: VertexId, v: VertexId, at_u: usize, at_v: usize, add: bool) {
        for (w, o) in self.offsets.iter_mut().enumerate() {
            let shift = u32::from(w > u as usize) + u32::from(w > v as usize);
            if add {
                *o += shift;
            } else {
                *o -= shift;
            }
        }
        let n = self.vertex_count();
        // positions among the neighbours, shifted past the labels
        let ((a, x), (b, y)) = if (at_u, u) < (at_v, v) {
            ((n + at_u, v), (n + at_v, u))
        } else {
            ((n + at_v, u), (n + at_u, v))
        };
        let old = &self.data;
        let mut data = Vec::with_capacity(if add { old.len() + 2 } else { old.len() - 2 });
        if add {
            data.extend_from_slice(&old[..a]);
            data.push(x as u16);
            data.extend_from_slice(&old[a..b]);
            data.push(y as u16);
            data.extend_from_slice(&old[b..]);
        } else {
            data.extend_from_slice(&old[..a]);
            data.extend_from_slice(&old[a + 1..b]);
            data.extend_from_slice(&old[b + 1..]);
        }
        self.data = data.into_boxed_slice();
    }

    /// Recomputes the signature's edge-pair fingerprint from the CSR rows.
    /// UR cannot simply clear the bit of the feature it ended — another
    /// feature that still holds may hash to the same bit — so UA and UR
    /// both recount; nothing but the fingerprint itself is kept between
    /// updates.
    fn recount_edge_pairs(&mut self) {
        let (offsets, neighbors) = self.csr();
        self.sig.edge_pairs = EdgePairBits::of_csr(self.labels(), offsets, neighbors);
    }

    /// Adds the undirected edge `(u, v)` — the paper's **UA** update.
    ///
    /// Rebuilds the CSR buffers with both rows spliced (O(|V| + |E|) — a
    /// short copy at this workload's graph sizes), refreshes the cached
    /// signature and drops the profile table and the path words.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let at_u = match self.find_in_row(u, v) {
            Ok(_) => return Err(GraphError::EdgeExists(u, v)),
            Err(at) => at,
        };
        let at_v = self
            .find_in_row(v, u)
            .expect_err("adjacency mirror invariant violated");
        self.splice(u, v, at_u, at_v, true);
        self.sig.edges += 1;
        self.recount_edge_pairs();
        self.profiles.take();
        self.paths.take();
        Ok(())
    }

    /// Removes the undirected edge `(u, v)` — the paper's **UR** update.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let Ok(at_u) = self.find_in_row(u, v) else {
            return Err(GraphError::EdgeMissing(u, v));
        };
        let at_v = self
            .find_in_row(v, u)
            .expect("adjacency mirror invariant violated");
        self.splice(u, v, at_u, at_v, false);
        self.sig.edges -= 1;
        self.recount_edge_pairs();
        self.profiles.take();
        self.paths.take();
        Ok(())
    }

    /// `true` iff the undirected edge `(u, v)` exists. Binary search over
    /// the smaller of the two CSR rows.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let n = self.vertex_count();
        if (u as usize) >= n || (v as usize) >= n {
            return false;
        }
        // searching the shorter row halves the expected probe count on
        // skewed degree distributions
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors_unchecked(a)
            .binary_search(&(b as u16))
            .is_ok()
    }

    /// The label of vertex `v`. Panics if out of range.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels()[v as usize]
    }

    /// All vertex labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.data[..self.vertex_count()]
    }

    #[inline]
    fn neighbors_unchecked(&self, v: VertexId) -> &[u16] {
        let (offsets, neighbors) = self.csr();
        &neighbors[offsets[v as usize] as usize..offsets[v as usize + 1] as usize]
    }

    /// Sorted neighbor list of `v` — one contiguous CSR slice, each
    /// neighbour's id as a `u16` (`VertexId::from` widens it). Panics if
    /// out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[u16] {
        assert!(
            (v as usize) < self.vertex_count(),
            "vertex {v} out of range (graph has {} vertices)",
            self.vertex_count()
        );
        self.neighbors_unchecked(v)
    }

    /// The CSR arrays `(offsets, neighbors)`: the `n + 1` offsets, and the
    /// label-and-neighbour buffer past its `n` labels, so `v`'s sorted row
    /// is `neighbors[offsets[v]..offsets[v + 1]]`, one `u16` per
    /// neighbour. Read-only, for a kernel that walks rows in its inner
    /// loop over vertices it already knows are in range; every other
    /// caller reads rows through [`neighbors`](Self::neighbors), which
    /// checks `v` on each call.
    #[inline]
    pub fn csr(&self) -> (&[u32], &[u16]) {
        (&self.offsets, &self.data[self.offsets.len() - 1..])
    }

    /// Degree of `v` — one offset subtraction. Panics if out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum degree over all vertices (0 for the empty graph). O(|V|)
    /// over the offsets.
    pub fn max_degree(&self) -> usize {
        let row = self.offsets.windows(2).map(|w| w[1] - w[0]);
        row.max().unwrap_or(0) as usize
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.vertex_count() as VertexId
    }

    /// Iterator over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors_unchecked(u)
                .iter()
                .map(|&v| VertexId::from(v))
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Histogram of label occurrences, as `(label, count)` sorted by label.
    /// Served from the cached signature.
    pub fn label_histogram(&self) -> Vec<(Label, u32)> {
        self.sig
            .labels
            .iter()
            .map(|e| (e.label, e.count()))
            .collect()
    }

    /// `true` iff `self`'s label multiset is dominated by `other`'s
    /// (necessary condition for `self ⊆ other`). O(distinct labels) over
    /// the cached histograms.
    pub fn labels_dominated_by(&self, other: &LabeledGraph) -> bool {
        other.sig.labels_dominate(&self.sig)
    }

    /// `true` iff the graph is connected (the empty graph counts as
    /// connected). Query graphs extracted by BFS/random walk are connected
    /// by construction; this is asserted in workload tests.
    pub fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as VertexId];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors_unchecked(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v.into());
                }
            }
        }
        count == n
    }
}

impl Default for LabeledGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LabeledGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LabeledGraph(|V|={}, |E|={}, labels={:?}, edges={:?})",
            self.vertex_count(),
            self.edge_count(),
            self.labels(),
            self.edges().collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> LabeledGraph {
        LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn build_and_query() {
        let g = path3();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.label(2), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn add_edge_rejects_duplicates_and_self_loops() {
        let mut g = path3();
        assert_eq!(g.add_edge(0, 1), Err(GraphError::EdgeExists(0, 1)));
        assert_eq!(g.add_edge(1, 0), Err(GraphError::EdgeExists(1, 0)));
        assert_eq!(g.add_edge(2, 2), Err(GraphError::SelfLoop(2)));
        assert_eq!(
            g.add_edge(0, 9),
            Err(GraphError::VertexOutOfRange {
                vertex: 9,
                count: 3
            })
        );
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn remove_edge_is_ur() {
        let mut g = path3();
        g.remove_edge(1, 2).unwrap();
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.remove_edge(1, 2), Err(GraphError::EdgeMissing(1, 2)));
        // symmetric removal works too
        g.add_edge(2, 1).unwrap();
        g.remove_edge(2, 1).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edges_iterator_unique_ordered() {
        let g = LabeledGraph::from_parts(vec![0, 0, 0, 0], &[(0, 1), (2, 1), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn label_histogram_and_domination() {
        let g = LabeledGraph::from_parts(vec![5, 3, 5, 5], &[]).unwrap();
        assert_eq!(g.label_histogram(), vec![(3, 1), (5, 3)]);

        let small = LabeledGraph::from_parts(vec![5, 5], &[]).unwrap();
        let other = LabeledGraph::from_parts(vec![5, 3], &[]).unwrap();
        assert!(small.labels_dominated_by(&g));
        assert!(!g.labels_dominated_by(&small));
        assert!(other.labels_dominated_by(&g));
        assert!(!small.labels_dominated_by(&other));
    }

    #[test]
    fn label_counts_round_trip_at_their_limits() {
        for count in [1, 65_535, 65_536] {
            let e = LabelCount::new(7, count);
            assert_eq!((e.label(), e.count()), (7, count));
            assert_eq!(e, (7, count));
            assert_eq!(format!("{e:?}"), format!("(7, {count})"));
        }
        assert_eq!(std::mem::size_of::<LabelCount>(), 4);
    }

    #[test]
    fn a_label_on_every_vertex_of_a_graph_at_the_cap_is_counted_exactly() {
        let n = MAX_VERTICES;
        let full = LabeledGraph::from_parts(vec![3; n], &[]).unwrap();
        assert_eq!(full.label_histogram(), [(3, 65_536)]);
        let short = LabeledGraph::from_parts(vec![3; n - 1], &[]).unwrap();
        assert_eq!(short.label_histogram(), [(3, 65_535)]);
        let mut built = GraphBuilder::with_capacity(n);
        for _ in 0..n {
            built.add_vertex(3);
        }
        assert_eq!(built.build().unwrap(), full);
    }

    #[test]
    fn histograms_at_the_cap_dominate_the_right_way() {
        let n = MAX_VERTICES;
        let full = LabeledGraph::from_parts(vec![3; n], &[]).unwrap();
        let short = LabeledGraph::from_parts(vec![3; n - 1], &[]).unwrap();
        let (big, small) = (&*full.signature().labels, &*short.signature().labels);
        assert!(histogram_dominates(big, small));
        assert!(!histogram_dominates(small, big));
        assert!(histogram_dominates(big, big) && histogram_dominates(small, small));
        assert!(short.labels_dominated_by(&full) && !full.labels_dominated_by(&short));
    }

    #[test]
    fn connectivity() {
        assert!(LabeledGraph::new().is_connected());
        assert!(path3().is_connected());
        let disconnected = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1)]).unwrap();
        assert!(!disconnected.is_connected());
        let single = LabeledGraph::from_parts(vec![0], &[]).unwrap();
        assert!(single.is_connected());
    }

    #[test]
    fn signature_is_order_invariant() {
        let g1 = LabeledGraph::from_parts(vec![1, 2, 3], &[(0, 1), (1, 2)]).unwrap();
        let g2 = LabeledGraph::from_parts(vec![3, 2, 1], &[(2, 1), (1, 0)]).unwrap();
        assert_eq!(g1.signature(), g2.signature());
    }

    #[test]
    fn ua_then_ur_roundtrips() {
        let mut g = path3();
        let before = g.clone();
        g.add_edge(0, 2).unwrap();
        assert_ne!(g, before);
        g.remove_edge(0, 2).unwrap();
        assert_eq!(g, before);
    }

    #[test]
    fn signature_tracks_mutations() {
        assert_eq!(LabeledGraph::new().signature(), &GraphSignature::empty());
        let mut g = LabeledGraph::from_parts(vec![4, 4, 1], &[]).unwrap();
        assert_eq!(*g.signature().labels, [(1, 1), (4, 2)]);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        assert_eq!(g.signature().edges, 2);
        assert_eq!(g.max_degree(), 2);
        g.remove_edge(1, 2).unwrap();
        assert_eq!(g.signature().edges, 1);
        assert_eq!(g.max_degree(), 1, "max degree read afresh after UR");
        // signature equals a from-scratch rebuild
        let rebuilt =
            LabeledGraph::from_parts(g.labels().to_vec(), &g.edges().collect::<Vec<_>>()).unwrap();
        assert_eq!(g.signature(), rebuilt.signature());
    }

    #[test]
    fn signature_domination_is_a_containment_necessary_condition() {
        let tri = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let p2 = LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap();
        let star = LabeledGraph::from_parts(vec![0; 4], &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let path4 = LabeledGraph::from_parts(vec![0; 4], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(tri.signature().dominates(p2.signature()));
        assert!(!p2.signature().dominates(tri.signature()));
        // necessary, not sufficient: on one label the fingerprint counts
        // edges up to four, so K1,3 and P4 dominate each other although
        // neither embeds in the other; degrees are local pruning's to see
        assert!(path4.signature().dominates(star.signature()));
        assert!(star.signature().dominates(path4.signature()));
        // reflexivity
        assert!(tri.signature().dominates(tri.signature()));
    }

    fn rebuilt(g: &LabeledGraph) -> LabeledGraph {
        LabeledGraph::from_parts(g.labels().to_vec(), &g.edges().collect::<Vec<_>>()).unwrap()
    }

    /// A hub labelled 0 with `leaves` neighbours labelled 1: the pair
    /// (0, 1) occurs exactly `leaves` times.
    fn star(leaves: u32) -> LabeledGraph {
        let mut labels = vec![0];
        labels.extend((0..leaves).map(|_| 1));
        let edges: Vec<_> = (1..=leaves).map(|v| (0, v)).collect();
        LabeledGraph::from_parts(labels, &edges).unwrap()
    }

    #[test]
    fn edge_pairs_reject_what_the_counts_cannot_see() {
        // same vertices, edges, max degree and labels; the path joins 0-1
        // and 1-2, the star joins 0-1 and 0-2
        let path = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (1, 2)]).unwrap();
        let star = LabeledGraph::from_parts(vec![0, 1, 2], &[(0, 1), (0, 2)]).unwrap();
        assert!(!path.signature().dominates(star.signature()));
        assert!(!star.signature().dominates(path.signature()));
        assert_ne!(path.signature(), star.signature());
        // an edge-free pattern has no feature to miss
        let dots = LabeledGraph::from_parts(vec![0, 1, 2], &[]).unwrap();
        assert!(path.signature().dominates(dots.signature()));
        assert!(!dots.signature().dominates(path.signature()));
    }

    #[test]
    fn edge_pair_thresholds_count_up_to_four() {
        // the pattern 1-0-1 needs two (0, 1) edges. Both targets dominate
        // it in every count (4 vertices, 3 edges, degree 2, labels
        // {0: 2, 1: 2}); only the first has the second (0, 1) edge
        let need_two = star(2);
        let target = |edges| LabeledGraph::from_parts(vec![0, 1, 1, 0], edges).unwrap();
        let has_two = target(&[(0, 1), (2, 3), (0, 3)]);
        let has_one = target(&[(0, 1), (1, 2), (0, 3)]);
        assert!(has_two.signature().dominates(need_two.signature()));
        assert!(!has_one.signature().dominates(need_two.signature()));
        assert!(has_one.signature().labels_dominate(need_two.signature()));
        assert!(has_one.max_degree() >= need_two.max_degree());
        // from the 4th edge on the bits are saturated: stars of 4 and 6
        // leaves share a fingerprint and only the counts order them
        assert_eq!(
            star(4).signature().edge_pairs,
            star(6).signature().edge_pairs
        );
        assert!(star(6).signature().dominates(star(4).signature()));
        assert!(!star(4).signature().dominates(star(6).signature()));
        for k in 1..4 {
            assert_ne!(
                star(k).signature().edge_pairs,
                star(k + 1).signature().edge_pairs,
                "threshold {k} → {}",
                k + 1
            );
        }
    }

    #[test]
    fn edge_pairs_follow_a_pair_count_up_and_down() {
        // grow the star leaf by leaf past the last threshold, then shrink
        // it to no edge at all: after every UA/UR the maintained signature
        // is the signature of a from-scratch rebuild
        let mut g = star(6);
        for v in (1..=6).rev() {
            g.remove_edge(0, v).unwrap();
            assert_eq!(g.signature(), rebuilt(&g).signature(), "UR leaf {v}");
        }
        assert_eq!(g.signature().edge_pairs, EdgePairBits::default());
        for v in 1..=6 {
            g.add_edge(v, 0).unwrap();
            assert_eq!(g.signature(), rebuilt(&g).signature(), "UA leaf {v}");
        }
        assert_eq!(g, star(6));
    }

    #[test]
    fn edge_pair_bits_list_their_ones_and_differences() {
        let a = EdgePairBits([0b1010, 0, 1 << 5, 1 << 63]);
        let b = EdgePairBits([0b0110, 0, 0, 1 << 63]);
        let ones = |bits: EdgePairBits| bits.ones().collect::<Vec<_>>();
        assert_eq!(ones(a), vec![1, 3, 133, 255]);
        assert_eq!(ones(a.difference(&b)), vec![3, 133]);
        assert_eq!(ones(b.difference(&a)), vec![2]);
        assert!(ones(EdgePairBits::default()).is_empty());
    }

    #[test]
    fn ur_keeps_a_bit_another_feature_still_needs() {
        // find two label pairs whose first-occurrence features share a bit
        let bit_of = |a: Label, b: Label| {
            let mut bits = EdgePairBits::default();
            bits.set(pair_key(a, b), 1);
            bits
        };
        let target = bit_of(0, 1);
        let (c, d) = (2..400u16)
            .flat_map(|c| (c..400).map(move |d| (c, d)))
            .find(|&(c, d)| bit_of(c, d) == target)
            .expect("256 bits, 79k pairs");
        let mut g = LabeledGraph::from_parts(vec![0, 1, c, d], &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(g.signature().edge_pairs, target, "one shared bit");
        g.remove_edge(0, 1).unwrap();
        assert_eq!(g.signature().edge_pairs, target, "(c, d) still holds it");
        assert_eq!(g.signature(), rebuilt(&g).signature());
        g.remove_edge(2, 3).unwrap();
        assert_eq!(g.signature().edge_pairs, EdgePairBits::default());
    }

    #[test]
    fn builder_matches_incremental_construction() {
        let mut b = GraphBuilder::with_capacity(4);
        for l in [7u16, 7, 2, 9] {
            b.add_vertex(l);
        }
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 1).unwrap();
        assert_eq!(b.vertex_count(), 4);
        assert_eq!(b.edge_count(), 2);
        assert_eq!(b.degree(1), 2);
        assert!(b.has_edge(1, 0) && !b.has_edge(0, 2));
        assert_eq!(b.neighbors(1), &[0, 2]);
        assert_eq!(b.label(3), 9);
        assert_eq!(b.add_edge(0, 1), Err(GraphError::EdgeExists(0, 1)));
        assert_eq!(b.add_edge(3, 3), Err(GraphError::SelfLoop(3)));
        let built = b.build().unwrap();

        let mut inc = LabeledGraph::from_parts(vec![7, 7, 2, 9], &[]).unwrap();
        inc.add_edge(0, 1).unwrap();
        inc.add_edge(2, 1).unwrap();
        assert_eq!(built, inc);
        assert_eq!(built.signature(), inc.signature());
    }

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
            let mut b = GraphBuilder::with_capacity(parents.len());
            for v in 0..n {
                b.add_vertex(0);
                let p = parents[v as usize] % (2 * v + 1);
                if p < v {
                    b.add_edge(p, v).unwrap();
                }
            }
            for &(x, y) in &extra {
                if n > 0 {
                    let _ = b.add_edge(x % n, y % n);
                }
            }
            let g = b.build().unwrap();
            for v in g.vertices() {
                proptest::prop_assert_eq!(
                    entry(&g, v) >> RING_SHIFT & 1 == 1,
                    on_a_cycle(&g, v),
                    "vertex {} of {:?}", v, g
                );
            }
        }
    }

    /// A hub labelled 0 whose leaves carry `leaves` labels.
    fn hub(leaves: &[Label]) -> LabeledGraph {
        let mut labels = vec![0];
        labels.extend_from_slice(leaves);
        let edges: Vec<_> = (1..=leaves.len() as u32).map(|v| (0, v)).collect();
        LabeledGraph::from_parts(labels, &edges).unwrap()
    }

    #[test]
    fn profiles_need_the_hub_label_and_each_lane_count() {
        // saturation and label folds are checked against the oracle in
        // gc_subiso's prop_subiso.rs
        let covered = |p: &[Label], t: &[Label]| hub(t).profiles().dominates(hub(p).profiles());
        assert!(covered(&[1, 1], &[1, 1, 2]));
        assert!(
            !covered(&[1, 1, 1], &[1, 1, 2]),
            "a third label-1 neighbour"
        );
        assert!(!covered(&[1, 2], &[1, 1]), "a label-2 neighbour");
        let other_hub = LabeledGraph::from_parts(vec![1, 1, 1], &[(0, 1), (0, 2)]).unwrap();
        assert!(!other_hub.profiles().dominates(hub(&[1, 1]).profiles()));
    }

    #[test]
    fn profiles_keep_one_maximal_entry_per_need() {
        // leaves and path ends have one neighbour: no entry
        assert!(hub(&[1]).profiles().0.is_empty());
        assert_eq!(hub(&[1, 2, 3]).profiles().0.len(), 1);
        assert_eq!(path3().profiles().0.len(), 1);
        // three equal entries collapse to one
        let tri = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(tri.profiles().0.len(), 1);
        // 0-0-0-0 with a label-1 leaf on the second vertex: the second
        // vertex's label lanes cover the third's, but only the third has a
        // neighbour with 3 neighbours (the second), so both stay
        let g = LabeledGraph::from_parts(vec![0, 0, 0, 0, 1], &[(0, 1), (1, 2), (2, 3), (1, 4)])
            .unwrap();
        assert_eq!(g.profiles().0.len(), 2);
        // give the third vertex a third neighbour: the two entries are now
        // equal and collapse to one
        let g = LabeledGraph::from_parts(
            vec![0, 0, 0, 0, 1, 1],
            &[(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)],
        )
        .unwrap();
        assert_eq!(g.profiles().0.len(), 1);
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

    fn words(labels: Vec<Label>, edges: &[(VertexId, VertexId)]) -> PathWords {
        LabeledGraph::from_parts(labels, edges)
            .unwrap()
            .path_words()
            .expect("far under the step cap")
            .clone()
    }

    #[test]
    fn path_words_read_a_path_the_same_from_either_end() {
        // 1-0-0-2 numbered from either end, and from the middle
        let fwd = words(vec![1, 0, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        let rev = words(vec![2, 0, 0, 1], &[(0, 1), (1, 2), (2, 3)]);
        let mid = words(vec![0, 2, 1, 0], &[(0, 1), (2, 3), (0, 3)]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, mid);
        assert!(!fwd.is_empty());
        // 1-0-0-1 and 2-0-0-2 spell other sequences
        let ones = words(vec![1, 0, 0, 1], &[(0, 1), (1, 2), (2, 3)]);
        let twos = words(vec![2, 0, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        assert_ne!(fwd, ones);
        assert!(!ones.covers(&fwd) && !twos.covers(&fwd));
    }

    #[test]
    fn memory_bytes_count_features_once_built_and_drop_them_on_mutation() {
        let mut g = LabeledGraph::from_parts(vec![0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let bare = g.memory_bytes();
        assert!(bare.csr >= (4 * 2 + 5 * 4 + 6 * 4) as u64, "{bare:?}");
        assert_eq!(bare.signature, 56 + 3 * 4, "{bare:?}");
        assert_eq!((bare.profiles, bare.paths), (0, 0), "nothing built yet");
        g.profiles();
        g.path_words();
        let built = g.memory_bytes();
        assert_eq!((built.csr, built.signature), (bare.csr, bare.signature));
        assert_eq!(built.profiles, g.profiles().0.len() as u64 * 8);
        assert_eq!(built.paths, std::mem::size_of::<PathWords>() as u64);
        assert_eq!(built.total(), bare.total() + built.profiles + built.paths);
        g.remove_edge(2, 3).unwrap();
        let after = g.memory_bytes();
        assert_eq!(
            (after.profiles, after.paths),
            (0, 0),
            "a mutation drops both"
        );
    }

    /// Asserts that `g` holds exactly its data: the offsets fill their
    /// buffer, labels and neighbours theirs, and the byte ledger is the
    /// inline bytes plus the buffers' lengths: two bytes per label and
    /// per neighbour, four per offset.
    fn assert_no_slack(g: &LabeledGraph, what: &str) {
        use std::mem::size_of;
        let (n, m) = (g.vertex_count(), g.edge_count());
        let (offsets, neighbors) = g.csr();
        assert_eq!(
            (g.labels().len(), offsets.len(), neighbors.len()),
            (n, n + 1, 2 * m),
            "{what}"
        );
        let bytes = g.memory_bytes();
        assert_eq!(
            bytes.csr as usize,
            128 - 56 + 2 * n + 4 * (n + 1) + 4 * m,
            "{what}"
        );
        let mut distinct = g.labels().to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            bytes.signature as usize,
            size_of::<GraphSignature>() + 4 * distinct.len(),
            "{what}"
        );
    }

    #[test]
    fn every_construction_and_mutation_leaves_no_slack() {
        use std::mem::size_of;
        assert_eq!(
            (size_of::<LabeledGraph>(), size_of::<GraphSignature>()),
            (128, 56)
        );
        let labels = [3u16, 1, 3, 7, 1, 3];
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)];
        assert_no_slack(&LabeledGraph::new(), "new");
        let parts = LabeledGraph::from_parts(labels.to_vec(), &edges).unwrap();
        assert_no_slack(&parts, "from_parts");
        let build = |mut b: GraphBuilder| {
            for l in labels {
                b.add_vertex(l);
            }
            for (u, v) in edges {
                b.add_edge(u, v).unwrap();
            }
            b.build().unwrap()
        };
        let built = build(GraphBuilder::with_capacity(labels.len()));
        assert_no_slack(&built, "GraphBuilder::build");
        assert_eq!(built, parts);
        // grown vertex by vertex from an empty builder
        let grown = build(GraphBuilder::new());
        assert_no_slack(&grown, "GraphBuilder::new, then build");
        assert_eq!(grown, parts);
        let mut g = parts.clone();
        assert_no_slack(&g, "clone");
        g.add_edge(0, 3).unwrap();
        assert_no_slack(&g, "add_edge");
        g.remove_edge(2, 1).unwrap();
        assert_no_slack(&g, "remove_edge");
        g.add_edge(5, 2).unwrap();
        assert_no_slack(&g, "add_edge after remove_edge");
        assert_no_slack(&g.clone(), "clone after mutations");
        assert_eq!(g, rebuilt(&g));
    }

    /// The fingerprint as it was computed before it read the CSR rows:
    /// from the edge iterator's keys, collected into a heap vector.
    fn of_edges(
        labels: &[Label],
        edges: impl Iterator<Item = (VertexId, VertexId)>,
    ) -> EdgePairBits {
        let mut keys: Vec<u32> = edges
            .map(|(u, v)| pair_key(labels[u as usize], labels[v as usize]))
            .collect();
        keys.sort_unstable();
        let mut bits = EdgePairBits::default();
        for run in keys.chunk_by(|a, b| a == b) {
            for t in 1..=PAIR_THRESHOLDS.min(run.len() as u32) {
                bits.set(run[0], t);
            }
        }
        bits
    }

    proptest::proptest! {
        /// The recounted fingerprint, whose keys sit on the stack up to 64
        /// edges and on the heap past that, against the edge list's, on
        /// random graphs of up to 40 vertices over labels {0, 2, 11, 14}
        /// with as many as 150 edges: built, then after every UR of a
        /// history that takes the edges away in a drawn order, crossing 64
        /// edges on the way down.
        #[test]
        fn recounted_edge_pairs_equal_the_edge_lists(
            labels in proptest::collection::vec(0usize..4, 2..40),
            pairs in proptest::collection::vec((0u32..40, 0u32..40), 0..240),
            order in 0usize..1000,
        ) {
            const LABELS: [Label; 4] = [0, 2, 11, 14];
            let n = labels.len() as u32;
            let mut b = GraphBuilder::new();
            for &l in &labels {
                b.add_vertex(LABELS[l]);
            }
            for &(u, v) in &pairs {
                let _ = b.add_edge(u % n, v % n);
            }
            let mut g = b.build().unwrap();
            proptest::prop_assert_eq!(g.signature().edge_pairs, of_edges(g.labels(), g.edges()));
            while g.edge_count() > 0 {
                let edges: Vec<_> = g.edges().collect();
                let (u, v) = edges[order % edges.len()];
                g.remove_edge(v, u).unwrap();
                proptest::prop_assert_eq!(
                    g.signature().edge_pairs,
                    of_edges(g.labels(), g.edges()),
                    "after UR at {} edges", edges.len()
                );
            }
        }
    }

    #[test]
    fn path_words_count_only_simple_paths_of_three_edges() {
        // a star and a triangle have no simple path of 3 edges: walking
        // round the triangle repeats a vertex
        assert!(hub(&[1, 2, 3, 4]).path_words().unwrap().is_empty());
        let tri = words(vec![0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        assert!(tri.is_empty());
        // a triangle with a tail has two, 0-1-2-3 and 1-0-2-3
        let tail = words(vec![0, 1, 2, 3], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert!(!tail.is_empty());
        assert!(PathWords([0; PATH_WORDS]).is_empty());
    }

    #[test]
    fn path_words_tell_one_path_from_two() {
        // a 4-cycle has four paths spelling 0-0-0-0, a 4-path one: only the
        // cycle's bit is hit again and sets its twin
        let square = words(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let path = words(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let ones = |w: &PathWords| w.0.iter().map(|x| x.count_ones()).sum::<u32>();
        assert_eq!((ones(&path), ones(&square)), (1, 2));
        assert!(square.covers(&path) && !path.covers(&square));
        // two disjoint 4-paths have two such paths too
        let two = words(
            vec![0; 8],
            &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)],
        );
        assert_eq!(two, square);
    }

    #[test]
    fn path_words_stop_at_the_step_cap() {
        // a 200-vertex clique passes the cap on its first edge, so the
        // build stops at once and the graph has no words
        let n = 200u32;
        let edges: Vec<_> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        let clique = LabeledGraph::from_parts(vec![0; n as usize], &edges).unwrap();
        let start = std::time::Instant::now();
        assert!(clique.path_words().is_none());
        assert!(start.elapsed() < std::time::Duration::from_millis(50));
        // a ring just under the cap has words: each of its edges takes one
        // step, and one isolated vertex takes none
        let ring = PATH_STEP_CAP as u32;
        let edges: Vec<_> = (0..ring).map(|v| (v, (v + 1) % ring)).collect();
        let mut g = LabeledGraph::from_parts(vec![0; ring as usize + 1], &edges).unwrap();
        assert!(g.path_words().is_some());
        g.add_edge(ring, 0).unwrap();
        assert!(g.path_words().is_none(), "one edge past the cap");
    }

    #[test]
    fn the_vertex_cap_admits_65536_vertices_and_refuses_one_more() {
        let n = MAX_VERTICES;
        let last = (n - 1) as VertexId;
        // a star at the cap whose last leaf is joined by UA: the hub's row
        // ends at the largest u16
        let edges: Vec<_> = (1..last).map(|v| (0, v)).collect();
        let mut labels = vec![0; n];
        labels[n - 1] = 1;
        let mut g = LabeledGraph::from_parts(labels, &edges).unwrap();
        g.add_edge(last, 0).unwrap();
        assert_eq!(g.neighbors(0).last(), Some(&u16::MAX));
        assert!(g.has_edge(last, 0) && g.has_edge(0, last));
        assert_eq!(g.edges().last(), Some((0, last)));
        assert_no_slack(&g, "at the cap");
        // every constructor takes the cap and refuses one vertex more
        let star = LabeledGraph::from_parts(g.labels().to_vec(), &g.edges().collect::<Vec<_>>());
        assert_eq!(star.as_ref(), Ok(&g));
        assert_eq!(
            LabeledGraph::from_parts(vec![0; n + 1], &[]),
            Err(GraphError::TooManyVertices(n + 1))
        );
        let mut b = GraphBuilder::with_capacity(n + 1);
        for _ in 0..n {
            b.add_vertex(0);
        }
        assert_eq!(b.clone().build().map(|g| g.vertex_count()), Ok(n));
        b.add_vertex(0);
        assert_eq!(b.build(), Err(GraphError::TooManyVertices(n + 1)));
    }
}
