//! The postings-bitset label index — the default `CS_M` candidate source.
//!
//! The paper observes that "none of the proposed FTV algorithms so far has
//! updatable index or similar solutions to tackle dataset changes", which
//! is why GC+ targets SI methods. The observation concerns *structural*
//! indexes (frequent subgraphs, paths, trees, cycles): a UA/UR can create
//! or destroy arbitrarily many indexed features, forcing a rebuild.
//!
//! The **signature fragment** of FTV filtering, however, *is* updatable:
//! vertex labels never change under the paper's four operations, and a
//! UA/UR shifts only the **one-hop** feature, which [`LabeledGraph`]
//! itself keeps current: how often each unordered label pair occurs on
//! an edge. That feature is the largest one
//! a single edge update moves by exactly one count (a path, tree or cycle
//! feature can gain or lose arbitrarily many instances), which is why it
//! is the unit that stays maintainable under writes. The graph hashes it
//! into a fixed 256-bit [`EdgePairBits`] fingerprint — one bit per
//! `(label pair, t)` with at least `t` such edges, `t = 1..=4` — and an
//! embedding maps a pattern's edges injectively onto target edges of the
//! same pair, so a pattern bit the target lacks disproves containment. UA
//! sets at most one new bit; UR cannot clear one without knowing that no
//! other feature shares it, so the graph recounts its own edges
//! (O(|E| log |E|), nothing kept between updates) and the index copies the
//! result. This module keeps the fragment as columns of bits:
//!
//! * **threshold postings** — one [`BitSet`] per fact "at least `c`
//!   vertices labelled `l`" (`c = 1..=`[`LABEL_CAP`](LabelIndex::LABEL_CAP);
//!   the `c = 1` posting is the label's plain posting), and one per
//!   fingerprint bit. A **subgraph** query's candidate set is the AND of
//!   the postings for its labels at their counts and each fingerprint bit
//!   it sets — signature domination as pure bitword operations. Only a
//!   query with a label count above the cap, which reads the cap's
//!   posting, has its survivors refined one by one;
//! * **retained signatures** — per indexed graph its fingerprint and
//!   label histogram, the histograms end to end in one vector of four-byte
//!   [`LabelCount`]s, the graphs' own entry type.
//!   [`admits`](LabelIndex::admits) decides one id from them, the over-cap
//!   refine and the **supergraph** sweep (live set minus the postings of
//!   the labels the query lacks, ~7 survivors) go through `admits`, and
//!   maintenance reads the old values from them.
//!
//! Every emitted candidate passes Method M's signature pre-filter, so the
//! pre-filter is *folded into the index*.
//!
//! The index never rebuilds on the update path. [`sync`](LabelIndex::sync)
//! replays the change log from a cursor:
//!
//! * ADD → set the id in the postings of the new graph's signature
//!   (fetched from the store) and retain the signature;
//! * DEL → clear it from the postings the retained signature names (the
//!   graph is already gone from the store);
//! * UA/UR → flip the fingerprint postings that changed, old bits from
//!   the retained signature, new ones from the live graph's maintained
//!   signature: O(changed bits), no allocation.
//!
//! `*_candidates(query)` returns a *superset* of the true answer set
//! (a sound filter), so it can replace the full live dataset as `CS_M`
//! in both plain Method M and GC+ — the default deployment since the
//! index became the standing candidate source.
//!
//! [`admits`](LabelIndex::admits) is the same decision for one graph id:
//! `admits(id, q, kind) == candidates(q, kind).get(id)`. A candidate set
//! taken at log cursor `c` can differ from today's only on the ids the
//! records after `c` touch, so a consumer that keeps one (GC+ keeps one
//! per cached query) brings it current by re-asking `admits` for just
//! those ids.

use std::collections::HashMap;
use std::time::Instant;

use gc_graph::{
    histogram_dominates, BitSet, EdgePairBits, GraphSignature, Label, LabelCount, LabeledGraph,
    QueryKind,
};

use crate::log::{ChangeLog, LogCursor, OpType};
use crate::store::{GraphId, GraphStore};

/// Updatable postings-bitset candidate filter with the signature
/// pre-filter folded in.
#[derive(Debug, Default)]
pub struct LabelIndex {
    postings: Postings,
    /// Every indexed (live) graph — the supergraph sweep's starting set
    /// and the label-less query fallback.
    indexed: BitSet,
    /// Retained signature per indexed graph. Kept even after DEL removes
    /// the graph from the store, until the DEL record is replayed, so
    /// unindexing needs no store access. It always names exactly the
    /// postings that hold the id.
    kept: Kept,
    cursor: LogCursor,
    /// Log records replayed through [`sync`](Self::sync) since
    /// construction — the witness that maintenance went through the
    /// incremental path instead of a rebuild.
    records_replayed: u64,
    /// Sync calls that actually replayed records (no-op syncs excluded —
    /// they cost a cursor compare, not a maintenance pass).
    syncs: u64,
    /// Cumulative wall time of those non-empty syncs, in nanoseconds.
    sync_nanos: u64,
}

/// The indexed graphs' retained signatures: a fixed-size record per graph
/// id, and all label histograms end to end in one vector of the graphs'
/// own four-byte [`LabelCount`] entries instead of in a heap block per
/// graph.
#[derive(Debug, Default)]
struct Kept {
    /// By graph id; meaningful where the index's `indexed` is set.
    records: Vec<Retained>,
    /// The label histograms, end to end, four bytes per entry.
    histograms: Vec<LabelCount>,
    /// Entries of `histograms` no indexed graph points at any more.
    dead: usize,
}

/// The two parts of one graph's [`GraphSignature`] that domination reads.
/// The label histogram is `histograms[start..start + len]`.
#[derive(Debug, Clone, Copy, Default)]
struct Retained {
    edge_pairs: EdgePairBits,
    start: u32,
    len: u32,
}

impl Kept {
    /// The retained shape of graph `id`, which must be indexed.
    #[inline]
    fn shape(&self, id: GraphId) -> Shape<'_> {
        let r = &self.records[id];
        let start = r.start as usize;
        Shape {
            edge_pairs: &r.edge_pairs,
            labels: &self.histograms[start..start + r.len as usize],
        }
    }

    fn insert(&mut self, id: GraphId, sig: &GraphSignature) {
        if id >= self.records.len() {
            self.records.resize(id + 1, Retained::default());
        }
        let start =
            u32::try_from(self.histograms.len()).expect("fewer than 2^32 retained label entries");
        self.histograms.extend_from_slice(&sig.labels);
        self.records[id] = Retained {
            edge_pairs: sig.edge_pairs,
            start,
            len: sig.labels.len() as u32,
        };
    }

    /// Lets go of graph `id`'s histogram; `live` is the indexed set
    /// without it. Once more than half of `histograms` is dead it is
    /// rewritten with the live graphs' entries only.
    fn remove(&mut self, id: GraphId, live: &BitSet) {
        self.dead += self.records[id].len as usize;
        if self.dead > self.histograms.len() / 2 {
            let mut kept = Vec::with_capacity(self.histograms.len() - self.dead);
            for id in live.iter_ones() {
                let r = &mut self.records[id];
                let start = r.start as usize;
                r.start = u32::try_from(kept.len()).expect("compaction only shrinks");
                kept.extend_from_slice(&self.histograms[start..start + r.len as usize]);
            }
            self.histograms = kept;
            self.dead = 0;
        }
    }
}

/// The parts of a signature that domination reads, borrowed from a query's
/// [`GraphSignature`] or from a retained record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape<'a> {
    edge_pairs: &'a EdgePairBits,
    labels: &'a [LabelCount],
}

impl<'a> Shape<'a> {
    #[inline]
    fn of(sig: &'a GraphSignature) -> Self {
        Shape {
            edge_pairs: &sig.edge_pairs,
            labels: &sig.labels,
        }
    }

    /// [`GraphSignature::dominates`].
    #[inline]
    fn dominates(self, small: Shape<'_>) -> bool {
        small.edge_pairs.is_subset_of(self.edge_pairs)
            && histogram_dominates(self.labels, small.labels)
    }
}

/// The index's columns: a threshold [`Ladder`] per label and a posting
/// per fingerprint bit.
#[derive(Debug, Default)]
struct Postings {
    /// Per label, its vertex-count ladder (cap [`LabelIndex::LABEL_CAP`]).
    labels: HashMap<Label, Ladder>,
    /// `pairs[b]`: the graphs whose fingerprint sets bit `b`.
    pairs: Vec<BitSet>,
}

impl Postings {
    /// Sets `id` in (`on`) or clears it from every posting `sig` reaches.
    fn mark(&mut self, id: GraphId, sig: Shape<'_>, on: bool) {
        let span = |v: u32| if on { (0, v) } else { (v, 0) };
        for e in sig.labels {
            let (from, to) = span(e.count());
            let ladder = self.labels.entry(e.label()).or_default();
            ladder.climb(id, from, to);
        }
        self.flip(id, sig.edge_pairs, on);
    }

    /// Moves `id` from the pair postings of `old` to those of `new`: a
    /// UA/UR, which leaves the labels where they are.
    fn shift(&mut self, id: GraphId, old: &Retained, new: &GraphSignature) {
        self.flip(id, &new.edge_pairs.difference(&old.edge_pairs), true);
        self.flip(id, &old.edge_pairs.difference(&new.edge_pairs), false);
    }

    /// Writes `id` into the pair posting of every bit set in `bits`; a bit
    /// being cleared is one `id` holds.
    fn flip(&mut self, id: GraphId, bits: &EdgePairBits, on: bool) {
        for b in bits.ones() {
            if self.pairs.len() <= b {
                self.pairs.resize_with(b + 1, BitSet::new);
            }
            self.pairs[b].set(id, on);
        }
    }

    fn all(&self) -> impl Iterator<Item = &BitSet> {
        let rungs = self.labels.values().flat_map(|l| &l.rungs);
        rungs.chain(&self.pairs)
    }

    /// Same graphs in every posting, absent and empty alike.
    fn same(&self, other: &Postings) -> bool {
        let labels = self.labels.keys().chain(other.labels.keys()).all(|label| {
            let a = self.labels.get(label).map_or(&[][..], |l| &l.rungs);
            let b = other.labels.get(label).map_or(&[][..], |l| &l.rungs);
            same_column(a, b)
        });
        labels && same_column(&self.pairs, &other.pairs)
    }
}

/// A label's threshold column: `rungs[t - 1]` holds the graphs with at
/// least `t` vertices of the label, for `t` up to
/// [`LabelIndex::LABEL_CAP`]; a graph above the cap sits on every rung.
/// Rungs no graph has reached yet are absent, and an emptied rung equals
/// an absent one.
#[derive(Debug, Default)]
struct Ladder {
    rungs: Vec<BitSet>,
}

impl Ladder {
    /// Moves `id` from rungs `1..=old` to rungs `1..=new`, both clamped
    /// to the cap, writing only the rungs in between; `id` must hold
    /// rungs `1..=old`.
    fn climb(&mut self, id: GraphId, old: u32, new: u32) {
        let cap = LabelIndex::LABEL_CAP;
        let (old, new) = (old.min(cap) as usize, new.min(cap) as usize);
        let rungs = &mut self.rungs;
        if rungs.len() < new {
            rungs.resize_with(new, BitSet::new);
        }
        if new > old {
            rungs[old..new].iter_mut().for_each(|r| r.set(id, true));
        } else {
            rungs[new..old].iter_mut().for_each(|r| r.set(id, false));
        }
    }

    /// The posting "value ≥ `t`", for `t ≥ 1`; a `t` above the cap reads
    /// the cap's rung. `None` when no graph reaches it.
    #[inline]
    fn rung(&self, t: u32) -> Option<&BitSet> {
        self.rungs.get(t.min(LabelIndex::LABEL_CAP) as usize - 1)
    }
}

fn same_column(a: &[BitSet], b: &[BitSet]) -> bool {
    let empty = BitSet::new();
    (0..a.len().max(b.len())).all(|i| a.get(i).unwrap_or(&empty) == b.get(i).unwrap_or(&empty))
}

impl LabelIndex {
    /// Highest label count with its own posting: a connected query of at
    /// most 20 edges (the paper's largest query size) has at most 21
    /// vertices, so no such query's label count goes above it.
    pub const LABEL_CAP: u32 = 21;

    /// Builds the index over the store's current contents. The log cursor
    /// starts at `log.head()`, so subsequent [`sync`](Self::sync) calls
    /// replay only newer records. This is the only full pass the index
    /// ever makes; all maintenance afterwards is incremental.
    pub fn build(store: &GraphStore, log: &ChangeLog) -> Self {
        let entries = store
            .iter_live()
            .map(|(_, g)| g.signature().labels.len())
            .sum();
        let mut idx = LabelIndex {
            indexed: BitSet::with_capacity(store.id_span()),
            kept: Kept {
                records: vec![Retained::default(); store.id_span()],
                histograms: Vec::with_capacity(entries),
                dead: 0,
            },
            cursor: log.head(),
            ..LabelIndex::default()
        };
        // highest id first: each posting is allocated once, at the size
        // its last graph needs, instead of growing block by block
        for id in (0..store.id_span()).rev() {
            if let Some(g) = store.get(id) {
                idx.index_graph(id, g);
            }
        }
        idx
    }

    /// The retained shape of graph `id`, if it is indexed.
    #[inline]
    fn shape(&self, id: GraphId) -> Option<Shape<'_>> {
        self.indexed.get(id).then(|| self.kept.shape(id))
    }

    fn index_graph(&mut self, id: GraphId, g: &LabeledGraph) {
        let sig = g.signature();
        self.postings.mark(id, Shape::of(sig), true);
        self.kept.insert(id, sig);
        self.indexed.set(id, true);
    }

    fn unindex_graph(&mut self, id: GraphId) {
        if !self.indexed.get(id) {
            return;
        }
        self.postings.mark(id, self.kept.shape(id), false);
        self.indexed.set(id, false);
        self.kept.remove(id, &self.indexed);
    }

    /// Incrementally replays the change log since the last sync. O(number
    /// of new records), independent of dataset size.
    ///
    /// # Panics
    ///
    /// If the log forgot records this index has not replayed: whoever
    /// forgets must respect [`cursor`](Self::cursor).
    pub fn sync(&mut self, store: &GraphStore, log: &ChangeLog) {
        let records = log
            .records_since(self.cursor)
            .expect("the change log forgot records the label index has not replayed");
        self.cursor = log.head();
        if records.is_empty() {
            return;
        }
        let started = Instant::now();
        self.records_replayed += records.len() as u64;
        for r in records {
            let id = r.graph_id;
            match r.op {
                OpType::Add => {
                    if let Some(g) = store.get(id) {
                        self.index_graph(id, g);
                    }
                }
                OpType::Del => self.unindex_graph(id),
                // the graph maintains its own signature across UA/UR:
                // mirror the fingerprint, the one field an edge moves that
                // the index reads. A graph already deleted later in this
                // batch keeps its signature as it is, and the DEL clears
                // exactly the postings it names
                OpType::Ua | OpType::Ur => {
                    if let (true, Some(g)) = (self.indexed.get(id), store.get(id)) {
                        let (old, live) = (&mut self.kept.records[id], g.signature());
                        self.postings.shift(id, old, live);
                        old.edge_pairs = live.edge_pairs;
                    }
                }
            }
        }
        self.syncs += 1;
        self.sync_nanos += started.elapsed().as_nanos() as u64;
    }

    /// The log position this index has replayed up to.
    pub fn cursor(&self) -> LogCursor {
        self.cursor
    }

    /// Number of indexed (live) graphs.
    pub fn indexed_count(&self) -> usize {
        self.indexed.count_ones()
    }

    /// Sync calls that replayed at least one log record.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Cumulative wall time spent in non-empty syncs, in nanoseconds.
    /// `sync_nanos / syncs` is the mean incremental-maintenance latency a
    /// stats scrape reports.
    pub fn sync_nanos(&self) -> u64 {
        self.sync_nanos
    }

    /// Approximate resident bytes: every posting's bitset blocks, the
    /// label ladders' keys, the indexed set, the retained records (one
    /// per id of the span; the 32-byte edge-pair fingerprint is inline)
    /// and the shared histogram vector, each by its buffer's capacity as
    /// every other ledger owner counts.
    /// Counts owned payload, not allocator or hash-table overhead — the
    /// number is a comparable gauge across datasets, not an RSS claim.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let postings = self
            .postings
            .all()
            .map(|p| size_of::<BitSet>() as u64 + p.memory_bytes())
            .sum::<u64>()
            + (self.postings.labels.len() * (size_of::<Label>() + size_of::<Ladder>())) as u64;
        let kept = self.kept.records.capacity() * size_of::<Retained>()
            + self.kept.histograms.capacity() * size_of::<LabelCount>();
        postings + self.indexed.memory_bytes() + kept as u64
    }

    /// Log records replayed incrementally since construction. Stays at 0
    /// until the first post-build [`sync`](Self::sync) sees new records —
    /// callers that churn the dataset can assert this grew to prove the
    /// index was maintained, not rebuilt.
    pub fn records_replayed(&self) -> u64 {
        self.records_replayed
    }

    /// Structural equality with another index: same indexed set, same
    /// retained signatures, and the same graphs in every threshold and
    /// fingerprint posting (a posting emptied by deletions equals an
    /// absent one). The cursor and replay counter are *not* compared — two
    /// structurally equal indexes may have different histories. This is
    /// the maintenance tests' witness that incremental sync converges to
    /// exactly what a fresh build would produce, down to every bit a
    /// lookup reads.
    pub fn same_structure(&self, other: &LabelIndex) -> bool {
        self.indexed == other.indexed
            && self
                .indexed
                .iter_ones()
                .all(|id| self.shape(id) == other.shape(id))
            && self.postings.same(&other.postings)
    }

    /// Membership of graph `id` in `query`'s candidate set for `kind`,
    /// decided for that one graph: it is indexed, and its retained
    /// signature dominates the query's (subgraph) or is dominated by it
    /// (supergraph). `admits(id, q, kind) == candidates(q, kind).get(id)`
    /// for every id. Unindexed ids (deleted, past the span, or not yet
    /// synced) read `false`. Costs one signature comparison.
    #[inline]
    pub fn admits(&self, id: GraphId, query: &LabeledGraph, kind: QueryKind) -> bool {
        let (Some(g), q) = (self.shape(id), Shape::of(query.signature())) else {
            return false;
        };
        match kind {
            QueryKind::Subgraph => g.dominates(q),
            QueryKind::Supergraph => q.dominates(g),
        }
    }

    /// The candidate set for `query` of `kind`: the
    /// [`subgraph_candidates`](Self::subgraph_candidates) or
    /// [`supergraph_candidates`](Self::supergraph_candidates) lookup.
    pub fn candidates(&self, query: &LabeledGraph, kind: QueryKind) -> BitSet {
        match kind {
            QueryKind::Subgraph => self.subgraph_candidates(query),
            QueryKind::Supergraph => self.supergraph_candidates(query),
        }
    }

    /// Filter stage for a **subgraph** query: the indexed set ANDed with
    /// the posting of each of the query's labels at its count and of each
    /// fingerprint bit it sets — full signature domination as bitword
    /// operations. When a label count exceeds the cap the cap's posting
    /// over-approximates it, and the survivors are refined by
    /// [`admits`](Self::admits). Sound — a
    /// superset of the answer set — and *complete as a pre-filter*: every
    /// emitted candidate passes Method M's signature pre-filter, so the
    /// scan can skip that stage entirely.
    pub fn subgraph_candidates(&self, query: &LabeledGraph) -> BitSet {
        let q = query.signature();
        let p = &self.postings;
        let labels = q.labels.iter().map(|e| {
            let ladder = p.labels.get(&e.label());
            ladder.and_then(|l| l.rung(e.count()))
        });
        let pairs = q.edge_pairs.ones().map(|b| p.pairs.get(b));
        let mut out = self.indexed.clone();
        for posting in labels.chain(pairs) {
            match posting {
                Some(posting) => out.intersect_with(posting),
                None => return BitSet::new(),
            }
        }
        if q.labels.iter().any(|e| e.count() > Self::LABEL_CAP) {
            self.refine(&mut out, query, QueryKind::Subgraph);
        }
        out
    }

    /// Filter stage for a **supergraph** query: graphs the query could
    /// contain. Starts from the live set, subtracts the postings of every
    /// label the query does *not* carry (a graph with a foreign label can
    /// never be contained), then refines the few survivors by the reverse
    /// signature domination. Same soundness and pre-filter-completeness
    /// guarantees as [`subgraph_candidates`](Self::subgraph_candidates).
    pub fn supergraph_candidates(&self, query: &LabeledGraph) -> BitSet {
        let qsig = query.signature();
        let mut out = self.indexed.clone();
        for (label, ladder) in &self.postings.labels {
            let known = qsig
                .labels
                .binary_search_by_key(label, |e| e.label())
                .is_ok();
            if let (false, Some(posting)) = (known, ladder.rung(1)) {
                out.difference_with(posting);
            }
        }
        self.refine(&mut out, query, QueryKind::Supergraph);
        out
    }

    /// Drops from `coarse` every id [`admits`](Self::admits) turns away.
    /// `coarse` holds indexed ids only.
    fn refine(&self, coarse: &mut BitSet, query: &LabeledGraph, kind: QueryKind) {
        coarse.retain(|id| self.admits(id, query, kind));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    fn setup() -> (GraphStore, ChangeLog, LabelIndex) {
        let store = GraphStore::from_graphs(vec![
            g(vec![0, 0, 1], &[(0, 1), (1, 2)]), // 0
            g(vec![0, 0], &[(0, 1)]),            // 1
            g(vec![1, 1, 2], &[(0, 1), (1, 2)]), // 2
        ]);
        let log = ChangeLog::new();
        let idx = LabelIndex::build(&store, &log);
        (store, log, idx)
    }

    #[test]
    fn build_indexes_all_live_graphs() {
        let (_, _, idx) = setup();
        assert_eq!(idx.indexed_count(), 3);
        assert_eq!(idx.records_replayed(), 0, "build is not a replay");
    }

    #[test]
    fn subgraph_filter_is_sound_and_tight() {
        let (_, _, idx) = setup();
        // query 0-0 edge: graphs 0 and 1 have two 0-labels
        let q = g(vec![0, 0], &[(0, 1)]);
        assert_eq!(
            idx.subgraph_candidates(&q).iter_ones().collect::<Vec<_>>(),
            vec![0, 1]
        );
        // query needing labels {1,2}: only graph 2
        let q2 = g(vec![1, 2], &[(0, 1)]);
        assert_eq!(
            idx.subgraph_candidates(&q2).iter_ones().collect::<Vec<_>>(),
            vec![2]
        );
        // query with an unknown label: empty
        let q3 = g(vec![9], &[]);
        assert!(idx.subgraph_candidates(&q3).is_empty());
    }

    #[test]
    fn max_degree_is_folded_into_the_filter() {
        // the maximum degree is left to local pruning: K1,3 on label 0
        // admits P4, whose label count and three 0-0 edges match it,
        // while the label ladder's rung 4 turns P3 away
        let star = g(vec![0; 4], &[(0, 1), (0, 2), (0, 3)]);
        let p4 = g(vec![0; 4], &[(0, 1), (1, 2), (2, 3)]);
        let p3 = g(vec![0; 3], &[(0, 1), (1, 2)]);
        let store = GraphStore::from_graphs(vec![p4, p3]);
        let idx = LabelIndex::build(&store, &ChangeLog::new());
        let got = idx.subgraph_candidates(&star);
        assert_eq!(got.iter_ones().collect::<Vec<_>>(), vec![0]);
        assert_eq!(got, sweep_model(&idx, &star));
    }

    #[test]
    fn edge_pairs_are_folded_into_the_filter() {
        let (_, _, idx) = setup();
        // labels 0 and 1 both occur twice in graph 0 and every count
        // dominates, but no graph joins two 1-labelled vertices… except
        // graph 2, which has no 0: the candidate set is empty
        let q = g(vec![0, 1, 1], &[(0, 1), (1, 2)]);
        assert!(idx.subgraph_candidates(&q).is_empty());
        // dually graph 1 (a 0-0 edge) cannot sit inside a query that has
        // the labels but joins them 0-1 only
        let q = g(vec![0, 0, 1], &[(0, 2), (1, 2)]);
        assert!(idx.supergraph_candidates(&q).is_empty());
    }

    #[test]
    fn supergraph_filter_is_sound() {
        let (_, _, idx) = setup();
        // supergraph query with labels 0,0,1,1,2 and enough structure could
        // contain all three graphs (max degree 2 ≥ each graph's)
        let q = g(vec![0, 0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(
            idx.supergraph_candidates(&q)
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // small query can only contain graph 1
        let q2 = g(vec![0, 0], &[(0, 1)]);
        assert_eq!(
            idx.supergraph_candidates(&q2)
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn sync_tracks_add_del() {
        let (mut store, mut log, mut idx) = setup();
        let id = store.add_graph(g(vec![0, 2], &[(0, 1)]));
        log.append(id, OpType::Add);
        store.delete(1).unwrap();
        log.append(1, OpType::Del);
        idx.sync(&store, &log);
        assert_eq!(idx.indexed_count(), 3);
        assert_eq!(idx.records_replayed(), 2);
        // the new graph (labels {0,2}) answers a 0-2 query
        let q = g(vec![0, 2], &[(0, 1)]);
        assert_eq!(
            idx.subgraph_candidates(&q).iter_ones().collect::<Vec<_>>(),
            vec![id]
        );
        // deleted graph no longer appears
        let q2 = g(vec![0, 0], &[(0, 1)]);
        assert_eq!(
            idx.subgraph_candidates(&q2).iter_ones().collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn sync_tracks_edge_count_changes() {
        let (mut store, mut log, mut idx) = setup();
        // a graph with one 0-0 edge misses a query with two: the
        // fingerprint's second 0-0 threshold bit tells them apart, and
        // follows the graph's UA and UR
        let id = store.add_graph(g(vec![0, 0, 0], &[(0, 1)]));
        log.append(id, OpType::Add);
        idx.sync(&store, &log);
        let q = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(!idx.subgraph_candidates(&q).get(id), "1 edge < 2 required");

        store.add_edge(id, 1, 2).unwrap();
        log.append_edge(id, OpType::Ua, 1, 2);
        idx.sync(&store, &log);
        assert!(idx.subgraph_candidates(&q).get(id), "edge count updated");

        store.remove_edge(id, 1, 2).unwrap();
        log.append_edge(id, OpType::Ur, 1, 2);
        idx.sync(&store, &log);
        assert!(!idx.subgraph_candidates(&q).get(id));
    }

    #[test]
    fn sync_tracks_max_degree_changes() {
        let (mut store, mut log, mut idx) = setup();
        // a K1,3 on label 0 turned into P4 by a UR and a UA: its maximum
        // degree drops from 3 to 2, which the index does not read. Its
        // label rungs stay where they are, its three 0-0 edges keep the
        // same fingerprint, so the star query still admits it
        let star = g(vec![0; 4], &[(0, 1), (0, 2), (0, 3)]);
        let id = store.add_graph(star.clone());
        log.append(id, OpType::Add);
        idx.sync(&store, &log);
        let rungs = |idx: &LabelIndex| {
            let ladder = &idx.postings.labels[&0].rungs;
            ladder.iter().filter(|r| r.get(id)).count()
        };
        assert_eq!(rungs(&idx), 4);
        assert!(idx.subgraph_candidates(&star).get(id));

        store.remove_edge(id, 0, 3).unwrap();
        log.append_edge(id, OpType::Ur, 0, 3);
        store.add_edge(id, 2, 3).unwrap();
        log.append_edge(id, OpType::Ua, 2, 3);
        idx.sync(&store, &log);
        assert_eq!(store.get(id).unwrap().max_degree(), 2);
        assert_eq!(rungs(&idx), 4, "UA/UR leave the label rungs alone");
        assert!(idx.subgraph_candidates(&star).get(id));
        assert!(idx.same_structure(&LabelIndex::build(&store, &log)));
    }

    #[test]
    fn incremental_sync_matches_fresh_build_structurally() {
        let (mut store, mut log, mut idx) = setup();
        let id = store.add_graph(g(vec![0, 1, 2], &[(0, 1), (1, 2)]));
        log.append(id, OpType::Add);
        store.remove_edge(id, 0, 1).unwrap();
        log.append_edge(id, OpType::Ur, 0, 1);
        store.delete(0).unwrap();
        log.append(0, OpType::Del);
        idx.sync(&store, &log);
        let fresh = LabelIndex::build(&store, &log);
        assert!(idx.same_structure(&fresh));
        assert!(fresh.same_structure(&idx), "symmetric");
        assert_eq!(fresh.records_replayed(), 0);
        assert_eq!(idx.records_replayed(), 3);
    }

    /// The lookup before it became columns, kept as the model: the label
    /// postings intersected, then every survivor refined by `admits`.
    fn sweep_model(idx: &LabelIndex, q: &LabeledGraph) -> BitSet {
        let mut coarse = idx.indexed.clone();
        for e in &q.signature().labels {
            match idx.postings.labels.get(&e.label()).and_then(|l| l.rung(1)) {
                Some(posting) => coarse.intersect_with(posting),
                None => return BitSet::new(),
            }
        }
        coarse.retain(|id| idx.admits(id, q, QueryKind::Subgraph));
        coarse
    }

    /// `n` vertices labelled `label`, no edge.
    fn many(label: u16, n: u32) -> LabeledGraph {
        g(vec![label; n as usize], &[])
    }

    #[test]
    fn cap_boundaries_read_the_right_rung() {
        // one graph at cap - 1, cap and cap + 1 vertices of label 0: a
        // query at count c admits exactly the graphs at c or above. At
        // the cap + 1 query the cap's rung lets the graph at the cap
        // through, and only the refine turns it away
        let cap = LabelIndex::LABEL_CAP;
        let store = GraphStore::from_graphs((cap - 1..=cap + 1).map(|n| many(0, n)).collect());
        let idx = LabelIndex::build(&store, &ChangeLog::new());
        for (i, count) in (cap - 1..=cap + 1).enumerate() {
            let q = many(0, count);
            let got: Vec<usize> = idx.subgraph_candidates(&q).iter_ones().collect();
            assert_eq!(got, (i..3).collect::<Vec<_>>(), "query at {count}");
            assert_eq!(idx.subgraph_candidates(&q), sweep_model(&idx, &q));
        }
    }

    #[test]
    fn a_del_after_a_ua_in_one_batch_clears_every_posting() {
        let (mut store, mut log, mut idx) = setup();
        // graph 0 gains an edge and a fingerprint bit, then goes, before
        // the index sees either record: the UA finds no live graph and
        // leaves the record as it was, which the DEL then clears
        store.add_edge(0, 0, 2).unwrap();
        log.append_edge(0, OpType::Ua, 0, 2);
        store.delete(0).unwrap();
        log.append(0, OpType::Del);
        // and one added, grown and deleted inside the batch never shows
        let id = store.add_graph(g(vec![0, 0, 1], &[(0, 1)]));
        log.append(id, OpType::Add);
        store.add_edge(id, 1, 2).unwrap();
        log.append_edge(id, OpType::Ua, 1, 2);
        store.delete(id).unwrap();
        log.append(id, OpType::Del);
        idx.sync(&store, &log);
        assert!(idx.same_structure(&LabelIndex::build(&store, &log)));
        assert!(idx.postings.all().all(|p| !p.get(0) && !p.get(id)));
        let q = g(vec![0], &[]);
        assert_eq!(
            idx.subgraph_candidates(&q).iter_ones().collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn deletions_compact_the_histograms() {
        let graphs: Vec<LabeledGraph> = (0..40u16)
            .map(|i| g(vec![i % 5, i % 7, 9], &[(0, 2), (1, 2)]))
            .collect();
        let mut store = GraphStore::from_graphs(graphs);
        let mut log = ChangeLog::new();
        let mut idx = LabelIndex::build(&store, &log);
        for id in (0..40).rev().step_by(2).chain((0..40).step_by(2).skip(1)) {
            store.delete(id).unwrap();
            log.append(id, OpType::Del);
            idx.sync(&store, &log);
            let live: usize = store
                .iter_live()
                .map(|(_, g)| g.signature().labels.len())
                .sum();
            let kept = idx.kept.histograms.len();
            assert!(kept <= 2 * live, "{kept} kept for {live}");
            assert!(idx.same_structure(&LabelIndex::build(&store, &log)));
        }
        assert_eq!(idx.indexed_count(), 1);
    }

    #[test]
    fn subgraph_lookup_equals_the_old_sweep() {
        use gc_graph::generate::{bfs_extract, random_connected_graph};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let graphs: Vec<LabeledGraph> = (0..30)
                .map(|_| {
                    let n = rng.random_range(2..40usize);
                    let extra = rng.random_range(0..n);
                    random_connected_graph(&mut rng, n, extra, |r| r.random_range(0..3u16))
                })
                .collect();
            let mut store = GraphStore::from_graphs(graphs.clone());
            let mut log = ChangeLog::new();
            let mut idx = LabelIndex::build(&store, &log);
            for _ in 0..20 {
                let id = rng.random_range(0..store.id_span());
                let Some(graph) = store.get(id) else { continue };
                let n = graph.vertex_count() as u32;
                let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                if u == v {
                    store.delete(id).unwrap();
                    log.append(id, OpType::Del);
                } else if graph.has_edge(u, v) {
                    store.remove_edge(id, u, v).unwrap();
                    log.append_edge(id, OpType::Ur, u, v);
                } else {
                    store.add_edge(id, u, v).unwrap();
                    log.append_edge(id, OpType::Ua, u, v);
                }
                if rng.random_bool(0.5) {
                    idx.sync(&store, &log);
                }
            }
            idx.sync(&store, &log);
            for src in &graphs {
                let want = rng.random_range(1..=src.edge_count().clamp(1, 40));
                for q in bfs_extract(&mut rng, src, 0, want).iter().chain([src]) {
                    assert_eq!(
                        idx.subgraph_candidates(q),
                        sweep_model(&idx, q),
                        "seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn footprint_and_sync_latency_gauges() {
        let (mut store, mut log, mut idx) = setup();
        let base = idx.memory_bytes();
        assert!(base > 0, "a built index occupies memory");
        assert_eq!(idx.syncs(), 0);
        assert_eq!(idx.sync_nanos(), 0);

        // a no-op sync is not a maintenance pass
        idx.sync(&store, &log);
        assert_eq!(idx.syncs(), 0);

        let id = store.add_graph(g(vec![0, 7, 7], &[(0, 1), (1, 2)]));
        log.append(id, OpType::Add);
        idx.sync(&store, &log);
        assert_eq!(idx.syncs(), 1);
        assert!(
            idx.memory_bytes() > base,
            "indexing a graph with a new label grows the footprint"
        );

        store.delete(id).unwrap();
        log.append(id, OpType::Del);
        idx.sync(&store, &log);
        assert_eq!(idx.syncs(), 2);
    }

    #[test]
    fn memory_bytes_counts_capacity_not_length() {
        use std::mem::size_of;
        let (_, _, mut idx) = setup();
        let bytes = idx.memory_bytes();
        let kept = &mut idx.kept;
        let held = (kept.records.capacity(), kept.histograms.capacity());
        kept.records.reserve(100);
        kept.histograms.reserve(100);
        let spare = (kept.records.capacity() - held.0) * size_of::<Retained>()
            + (kept.histograms.capacity() - held.1) * size_of::<LabelCount>();
        assert!(spare > 0);
        assert_eq!(
            idx.memory_bytes() - bytes,
            spare as u64,
            "spare capacity is held memory"
        );
    }

    #[test]
    fn filter_never_drops_true_answers() {
        use gc_graph::generate::{bfs_extract, random_connected_graph};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let graphs: Vec<LabeledGraph> = (0..30)
            .map(|_| {
                let n = rng.random_range(5..15usize);
                random_connected_graph(&mut rng, n, 3, |r| r.random_range(0..4u16))
            })
            .collect();
        let store = GraphStore::from_graphs(graphs.clone());
        let log = ChangeLog::new();
        let idx = LabelIndex::build(&store, &log);
        let m = gc_subiso_stub::contains;
        for src in graphs.iter().take(10) {
            if let Some(q) = bfs_extract(&mut rng, src, 0, 4) {
                let cands = idx.subgraph_candidates(&q);
                for (id, g) in store.iter_live() {
                    if m(&q, g) {
                        assert!(cands.get(id), "filter dropped a true answer (graph {id})");
                    }
                }
            }
        }
    }

    /// Minimal embedded matcher so gc-dataset's tests need no dev
    /// dependency on gc-subiso (which depends on gc-graph only). Plain
    /// exhaustive search over tiny graphs.
    mod gc_subiso_stub {
        use gc_graph::LabeledGraph;

        pub fn contains(p: &LabeledGraph, t: &LabeledGraph) -> bool {
            fn rec(
                p: &LabeledGraph,
                t: &LabeledGraph,
                depth: u32,
                map: &mut Vec<u32>,
                used: &mut Vec<bool>,
            ) -> bool {
                if depth as usize == p.vertex_count() {
                    return p
                        .edges()
                        .all(|(a, b)| t.has_edge(map[a as usize], map[b as usize]));
                }
                for v in 0..t.vertex_count() as u32 {
                    if !used[v as usize] && p.label(depth) == t.label(v) {
                        used[v as usize] = true;
                        map.push(v);
                        if rec(p, t, depth + 1, map, used) {
                            return true;
                        }
                        map.pop();
                        used[v as usize] = false;
                    }
                }
                false
            }
            if p.vertex_count() > t.vertex_count() {
                return false;
            }
            rec(p, t, 0, &mut Vec::new(), &mut vec![false; t.vertex_count()])
        }
    }
}
