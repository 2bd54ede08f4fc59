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
//!   vertices, so every vertex id fits in two bytes; the constructor
//!   refuses a graph past it with [`GraphError::TooManyVertices`]. Only the rows are two-byte: every
//!   API that names one vertex takes and returns a [`VertexId`];
//! * a lazily built [`GraphSignature`] — the label-frequency histogram and
//!   the one-hop [`EdgePairBits`] fingerprint, the filter features only
//!   the cache side reads (the label index, the hit probe, Method M's
//!   pre-filter). It is built on the first
//!   [`signature`](LabeledGraph::signature) call, by counting rather than
//!   sorting, never at construction: a graph that is only generated,
//!   deduplicated or sent never builds it. Once built, every mutation
//!   keeps it current; an unbuilt one stays unbuilt. The histogram is a
//!   third exact-size buffer, four bytes per distinct label
//!   ([`LabelCount`]: a `u16` label and its count less one in a `u16`,
//!   exact up to the [`MAX_VERTICES`] a label can reach). The edge count
//!   is read off the CSR buffer's length;
//! * next to it, two lazily built local-pruning features, each in its own
//!   slot ([`features`](crate::features) holds both): the
//!   [`VertexProfiles`] table, built on the first
//!   [`profiles`](LabeledGraph::profiles) call, and the [`PathWords`],
//!   built on the first [`path_words`](LabeledGraph::path_words) call,
//!   which a scan makes only once it has had to search a negative. Neither
//!   is built at construction (the wire decoder builds every request's
//!   graph, and most requests never reach Method M), and every mutation
//!   drops both. Equality ignores them: a graph whose features were built
//!   equals its fresh clone.
//!
//! Mutation strategy: [`LabeledGraph::from_parts`] is the one constructor.
//! It lays a whole edge list (the wire decoder's, or a generator's) out as
//! CSR in one pass — degrees counted, prefix-summed, edges scattered, rows
//! sorted; the generators answer their own `has_edge` and `degree`
//! questions in reused scratch (`generate`'s module docs) and hand it a
//! finished list. A rejected list is walked once more to name its first
//! offending edge. The UA/UR single-edge updates shift the offsets in
//! place and rebuild the label-and-neighbour buffer in one pass, the edge
//! spliced in or out on the way. No update adds a vertex: the paper's ADD
//! inserts whole graphs. For the paper's graph sizes (AIDS molecules:
//! ≤ 245 vertices, ≤ 250 edges) a UA/UR is one small allocation and a
//! sub-microsecond copy — cheaper than keeping a second mutable adjacency
//! form in sync — while every read between updates stays flat and
//! cache-friendly, and a resident dataset carries no growth slack.

use std::collections::HashSet;
use std::sync::OnceLock;

use crate::features::{PathWords, VertexProfiles};

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
pub(crate) const STACK_SCRATCH: usize = 64;

/// Labels below this have a slot in the counting table [`histogram`] keeps
/// on the stack; a graph with a larger label is counted by sorting.
const LABEL_SLOTS: usize = 256;

/// Slots of the open-addressed pair-key table [`EdgePairBits::of_csr`]
/// keeps on the stack, a power of two.
const PAIR_SLOTS: usize = 128;

/// Distinct pair keys that table takes before the build falls back to
/// sorting: half its slots, so a probe stays short.
const PAIR_KEYS: usize = PAIR_SLOTS / 2;

/// Runs `f` on a scratch slice of `len` default items: on the stack up to
/// `N` of them, on the heap past that. Every profile table is built in
/// one, and the signature's sort fallbacks sort in one, so the common
/// small graph allocates nothing for them.
pub(crate) fn with_scratch<const N: usize, T: Copy + Default, R>(
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
/// allocation. Each label below [`LABEL_SLOTS`] is counted in its slot of
/// a table on the stack and marked in a mask of the labels seen; walking
/// the mask then emits the entries in label order. Counts are `u32`: one
/// label on all [`MAX_VERTICES`] vertices is one past a `u16`. A graph
/// with a larger label is counted by [`histogram_by_sort`] instead.
fn histogram(labels: &[Label]) -> Box<[LabelCount]> {
    let mut counts = [0u32; LABEL_SLOTS];
    let mut seen = [0u64; LABEL_SLOTS / 64];
    for &l in labels {
        let l = usize::from(l);
        if l >= LABEL_SLOTS {
            return histogram_by_sort(labels);
        }
        counts[l] += 1;
        seen[l / 64] |= 1 << (l % 64);
    }
    let distinct = seen.iter().map(|w| w.count_ones() as usize).sum();
    let mut hist = Vec::with_capacity(distinct);
    for (w, &word) in seen.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let l = w * 64 + rest.trailing_zeros() as usize;
            rest &= rest - 1;
            hist.push(LabelCount::new(l as Label, counts[l]));
        }
    }
    hist.into_boxed_slice()
}

/// [`histogram`] past its table: the labels are sorted in a scratch
/// buffer, their runs counted, and each run written out once.
fn histogram_by_sort(labels: &[Label]) -> Box<[LabelCount]> {
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
    /// end and counted in an open-addressed table of [`PAIR_SLOTS`] slots
    /// on the stack; the count reaching `t = 1..=4` sets the feature
    /// `(pair, t)`'s bit: O(|E|). A graph with more than [`PAIR_KEYS`]
    /// distinct pairs is counted by [`of_csr_by_sort`](Self::of_csr_by_sort)
    /// instead.
    fn of_csr(labels: &[Label], offsets: &[u32], neighbors: &[u16]) -> Self {
        let mut keys = [0u32; PAIR_SLOTS];
        // 0 marks a free slot; a count stops at the last threshold
        let mut counts = [0u8; PAIR_SLOTS];
        let mut distinct = 0;
        let mut bits = EdgePairBits::default();
        for (u, w) in offsets.windows(2).enumerate() {
            for &v in &neighbors[w[0] as usize..w[1] as usize] {
                if u < v as usize {
                    let key = pair_key(labels[u], labels[v as usize]);
                    let mut slot =
                        (key.wrapping_mul(0x9E37_79B9) >> (32 - PAIR_SLOTS.ilog2())) as usize;
                    while counts[slot] != 0 && keys[slot] != key {
                        slot = (slot + 1) % PAIR_SLOTS;
                    }
                    if counts[slot] == 0 {
                        if distinct == PAIR_KEYS {
                            return Self::of_csr_by_sort(labels, offsets, neighbors);
                        }
                        distinct += 1;
                        keys[slot] = key;
                    }
                    if u32::from(counts[slot]) < PAIR_THRESHOLDS {
                        counts[slot] += 1;
                        bits.set(key, u32::from(counts[slot]));
                    }
                }
            }
        }
        bits
    }

    /// [`of_csr`](Self::of_csr) past its table: the keys go into a scratch
    /// buffer ([`with_scratch`]: on the stack up to 64 edges), and sorting
    /// them puts the edges of one pair side by side, where a run's length
    /// is the pair's count: O(|E| log |E|).
    fn of_csr_by_sort(labels: &[Label], offsets: &[u32], neighbors: &[u16]) -> Self {
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

/// An order-invariant structural summary of a graph, built on a
/// [`LabeledGraph`]'s first [`signature`](LabeledGraph::signature) read
/// and kept in sync across mutations from then on.
///
/// Isomorphic graphs always share a signature, and `pattern ⊆ target`
/// (non-induced, label-preserving) requires
/// [`target.signature().dominates(pattern.signature())`](GraphSignature::dominates)
/// — the necessary condition Method M's pre-filter stage, the label
/// index (as threshold postings) and the cache's hit-probe quick filters
/// all check before running any matcher. It has two fields, both
/// screens: the label multiset and [`EdgePairBits`], which label pairs
/// the edges join. It holds no edge count: two graphs with equal
/// signatures have equal vertex counts (the histogram sums to it) but
/// need not have equal edge counts — a 6-vertex path and a 6-vertex ring
/// of one label share histogram and saturated fingerprint — so an
/// exact-match check compares [`LabeledGraph::edge_count`] as well.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GraphSignature {
    /// Label histogram, sorted by label, one four-byte [`LabelCount`] per
    /// distinct label and no spare capacity.
    pub labels: Box<[LabelCount]>,
    /// One-hop edge fingerprint, inline and fixed-width.
    pub edge_pairs: EdgePairBits,
}

impl GraphSignature {
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

/// The error of an edge list [`LabeledGraph::from_parts`] rejected, for
/// the first offending edge in input order: an end out of range, then a
/// self loop, then a duplicate of an earlier edge in either orientation,
/// each named as [`LabeledGraph::add_edge`] would name it. Only a rejected
/// list is walked again, so the set of edges seen costs nothing on the
/// accepting path.
fn first_error(n: usize, edges: &[(VertexId, VertexId)]) -> GraphError {
    let mut seen = HashSet::with_capacity(edges.len());
    for &(u, v) in edges {
        if let Some(&vertex) = [u, v].iter().find(|&&w| w as usize >= n) {
            return GraphError::VertexOutOfRange { vertex, count: n };
        }
        if u == v {
            return GraphError::SelfLoop(u);
        }
        if !seen.insert((u.min(v), u.max(v))) {
            return GraphError::EdgeExists(u, v);
        }
    }
    unreachable!("from_parts rejects only an out-of-range end, a loop or a duplicate")
}

/// The bytes one graph holds, by feature: each buffer's length, which is
/// its capacity (every buffer a graph keeps is exact-size), plus the
/// graph's own inline bytes (the signature's cell under `signature`, the
/// rest under `csr`). Allocator headers are not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphBytes {
    /// The inline rest of the graph, its labels and its CSR buffers:
    /// `size_of::<LabeledGraph>()` less the signature's cell, plus
    /// `2n + 4(n + 1) + 4m` (two bytes per label and per neighbour, four
    /// per offset).
    pub csr: u64,
    /// The signature's inline cell, `size_of::<OnceLock<GraphSignature>>()`,
    /// which every graph pays, and once the signature is built its label
    /// histogram, 4 bytes per distinct label.
    pub signature: u64,
    /// The profile table, once built.
    pub profiles: u64,
    /// The path words, once built (none past
    /// [`PATH_STEP_CAP`](crate::PATH_STEP_CAP)).
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
/// the signature's histogram, once built, is one too, so a graph holds
/// exactly its data. The vertex count is `offsets.len() − 1` and the edge
/// count `(data.len() − n) / 2`. [`memory_bytes`](Self::memory_bytes)
/// counts it.
///
/// Invariants:
/// * `n ≤ MAX_VERTICES`, so every vertex id fits in a `u16`;
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, non-decreasing,
///   `offsets[n] == 2m`, and `data.len() == n + 2m`;
/// * each row `neighbors[offsets[v]..offsets[v+1]]` of `data[n..]` is
///   sorted ascending and mirrors its counterpart
///   (`v ∈ row(u) ⟺ u ∈ row(v)`);
/// * no self loops, no parallel edges;
/// * `sig` is empty or equals the signature recomputed from scratch: it
///   is filled on its first read and, once filled, kept current by every
///   mutation;
/// * `profiles` is empty or equals the table recomputed from scratch, and
///   `paths` is empty or equals the words recomputed from scratch: each is
///   filled on its first read and emptied by every mutation.
///
/// Equality is structural: it compares labels and the CSR buffers, not
/// the three caches, `sig`, `profiles` and `paths`, which are functions
/// of them. Two equal graphs therefore also have equal
/// [`memory_bytes`](Self::memory_bytes) up to their caches.
#[derive(Clone)]
pub struct LabeledGraph {
    data: Box<[u16]>,
    offsets: Box<[u32]>,
    sig: OnceLock<GraphSignature>,
    profiles: OnceLock<VertexProfiles>,
    paths: OnceLock<Option<Box<PathWords>>>,
}

impl PartialEq for LabeledGraph {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data && self.offsets == other.offsets
    }
}

impl Eq for LabeledGraph {}

impl LabeledGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        LabeledGraph {
            data: Box::new([]),
            offsets: Box::new([0]),
            sig: OnceLock::new(),
            profiles: OnceLock::new(),
            paths: OnceLock::new(),
        }
    }

    /// Builds a graph from a label list and an edge list — the one
    /// constructor, which the wire decoder and every generator call.
    ///
    /// The CSR arrays are laid out in one pass: degrees counted, prefix
    /// sums taken, edges scattered into their rows, each row sorted. More
    /// than [`MAX_VERTICES`] labels are rejected before anything is
    /// allocated. An out-of-range id, a self loop or a duplicate edge (in
    /// either orientation) is rejected with the error
    /// [`add_edge`](Self::add_edge) would raise for the first offending
    /// edge in input order. No feature is built.
    pub fn from_parts(
        labels: Vec<Label>,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, GraphError> {
        let n = labels.len();
        if n > MAX_VERTICES {
            return Err(GraphError::TooManyVertices(n));
        }
        // offsets[v] counts v's degree, then, summed inclusively, the end
        // of v's row; the scatter walks each cursor back to its row start.
        // The neighbours go after the labels, in the labels' own buffer
        let mut offsets = vec![0u32; n + 1].into_boxed_slice();
        for &(u, v) in edges {
            if u == v || u as usize >= n || v as usize >= n {
                return Err(first_error(n, edges));
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
                return Err(first_error(n, edges));
            }
        }
        Ok(LabeledGraph {
            data: data.into_boxed_slice(),
            offsets,
            sig: OnceLock::new(),
            profiles: OnceLock::new(),
            paths: OnceLock::new(),
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges. O(1): the CSR buffer holds `n` labels
    /// and two neighbours per edge.
    #[inline]
    pub fn edge_count(&self) -> usize {
        (self.data.len() - self.vertex_count()) / 2
    }

    /// `true` iff the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_count() == 0
    }

    /// The structural signature (label histogram, edge-pair fingerprint),
    /// built on the first call by counting labels and pair keys (O(|V| +
    /// |E|), see [`GraphSignature`]) and cached from then on; every
    /// mutation keeps a built one current. Threads that read an unbuilt
    /// signature at once, as the shards a query fans out to may, build it
    /// once between them.
    #[inline]
    pub fn signature(&self) -> &GraphSignature {
        self.sig.get_or_init(|| {
            let (offsets, neighbors) = self.csr();
            GraphSignature {
                labels: histogram(self.labels()),
                edge_pairs: EdgePairBits::of_csr(self.labels(), offsets, neighbors),
            }
        })
    }

    /// The bytes this graph holds, by feature ([`GraphBytes`]).
    pub fn memory_bytes(&self) -> GraphBytes {
        use std::mem::{size_of, size_of_val};
        let bytes = |n: usize| n as u64;
        let sig_cell = size_of::<OnceLock<GraphSignature>>();
        GraphBytes {
            csr: bytes(
                size_of::<Self>() - sig_cell
                    + size_of_val(&*self.data)
                    + size_of_val(&*self.offsets),
            ),
            signature: bytes(sig_cell + self.sig.get().map_or(0, |sig| size_of_val(&*sig.labels))),
            profiles: bytes(self.profiles.get().map_or(0, |p| size_of_val(p.entries()))),
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
    /// would pass [`PATH_STEP_CAP`](crate::PATH_STEP_CAP). They are boxed,
    /// so a graph that never builds them, as most never do, pays one
    /// pointer for them.
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

    /// Recounts a built signature's edge-pair fingerprint from the CSR
    /// rows, and leaves an unbuilt one unbuilt. UR cannot simply clear the
    /// bit of the feature it ended — another feature that still holds may
    /// hash to the same bit — so UA and UR both recount; nothing but the
    /// fingerprint itself is kept between updates. An edge moves no label,
    /// so the histogram stays as it is.
    fn recount_edge_pairs(&mut self) {
        if let Some(sig) = self.sig.get_mut() {
            let (labels, neighbors) = self.data.split_at(self.offsets.len() - 1);
            sig.edge_pairs = EdgePairBits::of_csr(labels, &self.offsets, neighbors);
        }
    }

    /// Adds the undirected edge `(u, v)` — the paper's **UA** update.
    ///
    /// Rebuilds the CSR buffers with both rows spliced (O(|V| + |E|) — a
    /// short copy at this workload's graph sizes), refreshes a built
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
    pub(crate) fn neighbors_unchecked(&self, v: VertexId) -> &[u16] {
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
    use crate::PATH_STEP_CAP;

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
        assert_eq!(*g.signature().labels, [(3, 1), (5, 3)]);

        let small = LabeledGraph::from_parts(vec![5, 5], &[]).unwrap();
        let other = LabeledGraph::from_parts(vec![5, 3], &[]).unwrap();
        let dominates =
            |a: &LabeledGraph, b: &LabeledGraph| a.signature().labels_dominate(b.signature());
        assert!(dominates(&g, &small));
        assert!(!dominates(&small, &g));
        assert!(dominates(&g, &other));
        assert!(!dominates(&other, &small));
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
        assert_eq!(*full.signature().labels, [(3, 65_536)]);
        let short = LabeledGraph::from_parts(vec![3; n - 1], &[]).unwrap();
        assert_eq!(*short.signature().labels, [(3, 65_535)]);
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
        let (full, short) = (full.signature(), short.signature());
        assert!(full.labels_dominate(short) && !short.labels_dominate(full));
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
        let empty = GraphSignature {
            labels: Box::new([]),
            edge_pairs: EdgePairBits::default(),
        };
        assert_eq!(LabeledGraph::new().signature(), &empty);
        let mut g = LabeledGraph::from_parts(vec![4, 4, 1], &[]).unwrap();
        assert_eq!(*g.signature().labels, [(1, 1), (4, 2)]);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.max_degree(), 2);
        g.remove_edge(1, 2).unwrap();
        assert_eq!(g.edge_count(), 1);
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
        assert!(hub(&[1]).profiles().entries().is_empty());
        assert_eq!(hub(&[1, 2, 3]).profiles().entries().len(), 1);
        assert_eq!(path3().profiles().entries().len(), 1);
        // three equal entries collapse to one
        let tri = LabeledGraph::from_parts(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(tri.profiles().entries().len(), 1);
        // 0-0-0-0 with a label-1 leaf on the second vertex: the second
        // vertex's label lanes cover the third's, but only the third has a
        // neighbour with 3 neighbours (the second), so both stay
        let g = LabeledGraph::from_parts(vec![0, 0, 0, 0, 1], &[(0, 1), (1, 2), (2, 3), (1, 4)])
            .unwrap();
        assert_eq!(g.profiles().entries().len(), 2);
        // give the third vertex a third neighbour: the two entries are now
        // equal and collapse to one
        let g = LabeledGraph::from_parts(
            vec![0, 0, 0, 0, 1, 1],
            &[(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)],
        )
        .unwrap();
        assert_eq!(g.profiles().entries().len(), 1);
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
        assert_eq!(bare.signature, 56, "{bare:?}: the signature's cell alone");
        assert_eq!((bare.profiles, bare.paths), (0, 0), "nothing built yet");
        g.signature();
        g.profiles();
        g.path_words();
        let built = g.memory_bytes();
        assert_eq!(built.csr, bare.csr);
        assert_eq!(built.signature, 56 + 3 * 4, "{built:?}");
        assert_eq!(built.profiles, g.profiles().entries().len() as u64 * 8);
        assert_eq!(built.paths, std::mem::size_of::<PathWords>() as u64);
        assert_eq!(
            built.total(),
            bare.total() + 3 * 4 + built.profiles + built.paths
        );
        g.remove_edge(2, 3).unwrap();
        let after = g.memory_bytes();
        assert_eq!(
            (after.profiles, after.paths),
            (0, 0),
            "a mutation drops both"
        );
        assert_eq!(after.signature, built.signature, "and keeps the signature");
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
        let cell = size_of::<OnceLock<GraphSignature>>();
        let histogram = if g.sig.get().is_some() {
            4 * distinct.len()
        } else {
            0
        };
        assert_eq!(bytes.signature as usize, cell + histogram, "{what}");
        g.signature();
        let built = g.memory_bytes();
        assert_eq!(built.csr, bytes.csr, "{what}");
        assert_eq!(
            built.signature as usize,
            cell + 4 * distinct.len(),
            "{what}"
        );
    }

    #[test]
    fn every_construction_and_mutation_leaves_no_slack() {
        use std::mem::size_of;
        assert_eq!(
            (
                size_of::<LabeledGraph>(),
                size_of::<OnceLock<GraphSignature>>(),
                size_of::<GraphSignature>()
            ),
            (128, 56, 48)
        );
        let labels = [3u16, 1, 3, 7, 1, 3];
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)];
        assert_no_slack(&LabeledGraph::new(), "new");
        let parts = LabeledGraph::from_parts(labels.to_vec(), &edges).unwrap();
        assert!(
            parts.sig.get().is_none(),
            "no construction builds the signature"
        );
        assert_no_slack(&parts, "from_parts");
        let mut g = parts.clone();
        assert_no_slack(&g, "clone");
        // a mutation keeps a built signature current and an unbuilt one
        // unbuilt
        let mut unread = LabeledGraph::from_parts(labels.to_vec(), &edges).unwrap();
        unread.add_edge(0, 3).unwrap();
        unread.remove_edge(2, 1).unwrap();
        assert!(unread.sig.get().is_none());
        assert_no_slack(&unread, "mutated unread");
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
            let edges: std::collections::BTreeSet<_> = pairs
                .iter()
                .map(|&(u, v)| ((u % n).min(v % n), (u % n).max(v % n)))
                .filter(|&(u, v)| u != v)
                .collect();
            let labels = labels.iter().map(|&l| LABELS[l]).collect();
            let mut g =
                LabeledGraph::from_parts(labels, &edges.into_iter().collect::<Vec<_>>()).unwrap();
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

    /// The label histogram as it was built before the counting table: the
    /// labels sorted, each run counted.
    fn histogram_of_sorted(labels: &[Label]) -> Vec<LabelCount> {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        sorted
            .chunk_by(|a, b| a == b)
            .map(|run| LabelCount::new(run[0], run.len() as u32))
            .collect()
    }

    /// Both counting builders against the sorts on `g`, and the signature
    /// `g` serves against both.
    fn assert_builders_match_the_sorts(g: &LabeledGraph, what: &str) {
        let (offsets, neighbors) = g.csr();
        let hist = histogram_of_sorted(g.labels());
        let bits = of_edges(g.labels(), g.edges());
        assert_eq!(&*histogram(g.labels()), &hist[..], "{what}");
        assert_eq!(
            EdgePairBits::of_csr(g.labels(), offsets, neighbors),
            bits,
            "{what}"
        );
        assert_eq!(
            (&*g.signature().labels, g.signature().edge_pairs),
            (&hist[..], bits),
            "{what}"
        );
    }

    #[test]
    fn counting_builders_equal_the_sorts_on_every_graph_of_up_to_5_vertices() {
        const LABELS: [Label; 4] = [0, 2, 11, 14];
        let mut graphs = 0;
        for n in 0..=5usize {
            let pairs: Vec<(VertexId, VertexId)> = (0..n as u32)
                .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
                .collect();
            let graphs_on = |mask: u32| {
                let edges: Vec<_> = (0..pairs.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| pairs[i])
                    .collect();
                LabeledGraph::from_parts(vec![0; n], &edges).unwrap()
            };
            let shapes: Vec<LabeledGraph> = (0..1u32 << pairs.len()).map(graphs_on).collect();
            for code in 0..LABELS.len().pow(n as u32) {
                let labels: Vec<Label> = (0..n)
                    .map(|v| LABELS[code / LABELS.len().pow(v as u32) % LABELS.len()])
                    .collect();
                assert_eq!(&*histogram(&labels), &histogram_of_sorted(&labels)[..]);
                for g in &shapes {
                    let (offsets, neighbors) = g.csr();
                    assert_eq!(
                        EdgePairBits::of_csr(&labels, offsets, neighbors),
                        of_edges(&labels, g.edges()),
                        "labels {labels:?} on {:?}",
                        g.edges().collect::<Vec<_>>()
                    );
                    graphs += 1;
                }
            }
        }
        // 4^n labellings of each of the 2^(n(n-1)/2) edge sets
        assert_eq!(graphs, 1 + 4 + 4 * 4 * 2 + 64 * 8 + 256 * 64 + 1024 * 1024);
    }

    #[test]
    fn counting_builders_equal_the_sorts_past_their_tables() {
        let path = |labels: Vec<Label>| {
            let n = labels.len() as u32;
            let edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
            LabeledGraph::from_parts(labels, &edges).unwrap()
        };
        let mut cases = vec![
            // 400 distinct labels, 144 of them past the label table, on a
            // path of 399 distinct pairs
            ("labels 0..400 on a path", path((0..400).collect())),
            // every pair of the path twice but the wrap-around's
            (
                "labels 0..300 twice on a path",
                path((0..600).map(|v| v % 300).collect()),
            ),
            // the last label the table holds, and the first it does not
            ("labels 0..=255 on a path", path((0..=255).collect())),
            ("label 256 alone", path(vec![256; 5])),
            ("labels 255 and 256", path(vec![255, 256, 255, 256, 255])),
        ];
        // the pair table's edge: one key short of full, full, one past
        for keys in [PAIR_KEYS - 1, PAIR_KEYS, PAIR_KEYS + 1] {
            cases.push((
                "a path of PAIR_KEYS ± 1 pairs",
                path((0..=keys as Label).collect()),
            ));
        }
        // one pair past every threshold beside 200 distinct others
        let mut g = path((300..500).collect());
        for v in 1..=6 {
            g.add_edge(0, v * 20).unwrap();
        }
        cases.push(("a hub on a path of 200 labels", g));
        for (what, mut g) in cases {
            assert_builders_match_the_sorts(&g, what);
            // a built signature through UR and UA, still past the tables
            let edges: Vec<_> = g.edges().step_by(7).collect();
            for &(u, v) in &edges {
                g.remove_edge(u, v).unwrap();
                assert_builders_match_the_sorts(&g, what);
            }
            for &(u, v) in &edges {
                g.add_edge(v, u).unwrap();
            }
            assert_builders_match_the_sorts(&g, what);
        }
    }

    #[test]
    fn a_path_and_a_ring_share_a_signature_but_not_an_edge_count() {
        // the exact-match trap: on one label the histogram and the
        // saturated fingerprint cannot tell them apart
        let ring: Vec<_> = (0..6).map(|v| (v, (v + 1) % 6)).collect();
        let ring = LabeledGraph::from_parts(vec![0; 6], &ring).unwrap();
        let path = LabeledGraph::from_parts(vec![0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
            .unwrap();
        assert_eq!(ring.signature(), path.signature());
        assert_eq!((ring.edge_count(), path.edge_count()), (6, 5));
        assert_ne!(ring, path);
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
        assert!(LabeledGraph::new().path_words().unwrap().is_empty());
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
        // the constructor takes the cap and refuses one vertex more
        let star = LabeledGraph::from_parts(g.labels().to_vec(), &g.edges().collect::<Vec<_>>());
        assert_eq!(star.as_ref(), Ok(&g));
        assert_eq!(
            LabeledGraph::from_parts(vec![0; n + 1], &[]),
            Err(GraphError::TooManyVertices(n + 1))
        );
    }
}
