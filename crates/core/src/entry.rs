//! Cached query entries.
//!
//! A cached query snapshots "its relation against the dataset at execution
//! time" (§5.2.2): the query graph, its finalized answer set, and the
//! dataset-graph validity indicator `CGvalid` that Algorithm 2 maintains.
//! Both `Answer` and `CGvalid` are bitsets indexed by dataset-graph id,
//! exactly as in the paper.
//!
//! Entries are tagged with the [`QueryKind`] that produced them because
//! the *semantics* of the answer set differ:
//!
//! * subgraph-query entry: `Answer = {G : q ⊆ G}`;
//! * supergraph-query entry: `Answer = {G : G ⊆ q}`.
//!
//! Validity refreshing and candidate pruning must respect that polarity
//! (the paper presents the subgraph side and omits the supergraph dual
//! "for space reason"; both are implemented here — see [`crate::validator`]).

use gc_dataset::LogCursor;
use gc_graph::{BitSet, GraphSignature, LabeledGraph};
use gc_subiso::QueryKind;

/// Per-entry replacement statistics maintained by the Statistics Manager.
#[derive(Debug, Clone, Default)]
pub struct EntryStats {
    /// `R` — total sub-iso tests this entry alleviated (PIN's score).
    pub tests_saved: u64,
    /// `C` — accumulated *estimated* query-time saved, via the cost
    /// heuristic of the paper's ref \[25\] (PINC's score).
    pub cost_saved: f64,
    /// Logical timestamp of insertion into window (breaks score ties).
    pub inserted_at: u64,
}

/// A previous query residing in cache or window.
#[derive(Debug, Clone)]
pub struct CachedQuery {
    /// The query graph.
    pub graph: LabeledGraph,
    /// Which query type produced the answer (fixes answer semantics).
    pub kind: QueryKind,
    /// Snapshot answer set at execution time (bit per dataset-graph id).
    pub answer: BitSet,
    /// Up-to-date validity indicator: bit `i` set ⟺ the cached relation
    /// towards dataset graph `i` still holds (Algorithm 2).
    pub cg_valid: BitSet,
    /// `true` while the entry is under suspicion (a panic was contained in
    /// a query that touched it). Quarantined entries contribute no hits
    /// until the consistency auditor re-verifies or rebuilds them.
    pub quarantined: bool,
    /// Method M's candidate set `CS_M` for this graph and kind, as the
    /// [`LabelIndex`](gc_dataset::LabelIndex) returned it when synced to
    /// the given log cursor. Index candidates depend only on the
    /// signature, and isomorphic graphs share one, so the memo is also the
    /// candidate set of every query this entry matches exactly.
    ///
    /// Invariant: `Some((at, set))` means `set` equals the index's lookup
    /// at `at`. Only ids named by log records after `at` can have moved
    /// since, so re-deciding those with
    /// [`LabelIndex::admits`](gc_dataset::LabelIndex::admits) makes it
    /// current again. `None` under a live-scan candidate source, and
    /// whenever the memo was lost (a query that held it panicked); the
    /// next exact hit then looks it up afresh. Independent of `answer`
    /// and `cg_valid`: maintenance and the auditor leave it alone.
    pub csm: Option<(LogCursor, BitSet)>,
    /// Replacement statistics.
    pub stats: EntryStats,
}

impl CachedQuery {
    /// Creates an entry for a just-executed query. `id_span` is the
    /// current `max_id + 1` of the dataset: the query was verified against
    /// every graph alive at execution time, so it "holds validity towards
    /// its relation with all graphs in the current dataset" — bits
    /// `0..id_span` are set (deleted ids among them are harmless: they can
    /// never re-enter a candidate set).
    pub fn new(
        graph: LabeledGraph,
        kind: QueryKind,
        answer: BitSet,
        id_span: usize,
        now: u64,
    ) -> Self {
        CachedQuery {
            graph,
            kind,
            answer,
            cg_valid: BitSet::all_set(id_span),
            quarantined: false,
            csm: None,
            stats: EntryStats {
                inserted_at: now,
                ..EntryStats::default()
            },
        }
    }

    /// `true` iff this entry holds validity on every graph of the live
    /// dataset (`live ⊆ CGvalid`) — the "holds validity on all the
    /// up-to-date dataset graphs" condition of both §6.3 optimal cases.
    pub fn fully_valid_on(&self, live: &BitSet) -> bool {
        live.is_subset_of(&self.cg_valid)
    }

    /// The knowledge this entry can contribute *right now*: its valid
    /// answers (`CGvalid ∩ Answer` — formula (1) per-entry term).
    pub fn valid_answers(&self) -> BitSet {
        self.cg_valid.intersection(&self.answer)
    }

    /// Records a contribution of `tests` alleviated sub-iso tests with
    /// estimated saved cost `cost`.
    pub fn credit(&mut self, tests: u64, cost: f64) {
        self.stats.tests_saved += tests;
        self.stats.cost_saved += cost;
    }
}

/// `true` iff graphs `a` and `b`, given with the signatures their callers
/// read, have equal label histograms (so vertex counts), edge-pair
/// fingerprints and edge counts — the cheap precondition of the §6.3
/// exact-match check (isomorphic graphs always share all three). The edge
/// count is compared on its own: the signature holds none, and a 6-vertex
/// path and a 6-vertex ring of one label share histogram and fingerprint,
/// so without it the path would take the ring as its twin.
pub(crate) fn same_signature(
    a: &LabeledGraph,
    a_sig: &GraphSignature,
    b: &LabeledGraph,
    b_sig: &GraphSignature,
) -> bool {
    a.edge_count() == b.edge_count() && a_sig == b_sig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    fn entry(graph: LabeledGraph, answer: &[usize], span: usize) -> CachedQuery {
        CachedQuery::new(
            graph,
            QueryKind::Subgraph,
            BitSet::from_indices(answer.iter().copied()),
            span,
            0,
        )
    }

    #[test]
    fn new_entry_fully_valid() {
        let e = entry(g(vec![0, 0], &[(0, 1)]), &[1, 3], 5);
        assert_eq!(e.cg_valid.count_ones(), 5);
        let live = BitSet::from_indices([0usize, 1, 2, 3, 4]);
        assert!(e.fully_valid_on(&live));
        assert_eq!(
            e.valid_answers().iter_ones().collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn validity_loss_detected() {
        let mut e = entry(g(vec![0], &[]), &[0], 3);
        e.cg_valid.set(1, false);
        let live = BitSet::from_indices([0usize, 1, 2]);
        assert!(!e.fully_valid_on(&live));
        // but if graph 1 is deleted from the live set, the entry is fully
        // valid again for the remaining graphs
        let live2 = BitSet::from_indices([0usize, 2]);
        assert!(e.fully_valid_on(&live2));
    }

    #[test]
    fn quick_filters() {
        // the hit probe's screens: the entry's signature against the
        // query's, in both containment directions
        let e = entry(g(vec![0, 0, 1], &[(0, 1), (1, 2)]), &[], 2);
        let may_contain = |q: &LabeledGraph| e.graph.signature().dominates(q.signature());
        let may_be_in = |q: &LabeledGraph| q.signature().dominates(e.graph.signature());
        let small = g(vec![0, 1], &[(0, 1)]);
        let big = g(vec![0, 0, 1, 1], &[(0, 1), (1, 2), (2, 3)]);
        assert!(may_contain(&small));
        assert!(!may_contain(&big)); // bigger than the entry
        assert!(may_be_in(&big));
        assert!(!may_be_in(&small));
        // label mismatch blocks in both directions
        let alien = g(vec![9, 9, 9], &[(0, 1), (1, 2)]);
        assert!(!may_contain(&alien));
        assert!(!may_be_in(&alien));
    }

    #[test]
    fn signature_match_is_permutation_invariant() {
        let e = entry(g(vec![0, 1, 2], &[(0, 1), (1, 2)]), &[], 1);
        let twin =
            |q: &LabeledGraph| same_signature(&e.graph, e.graph.signature(), q, q.signature());
        let same = g(vec![2, 1, 0], &[(2, 1), (1, 0)]);
        assert!(twin(&same));
        // same sizes, degrees and labels, but the star joins 0-2 where the
        // path joins 1-2: the edge-pair fingerprint tells them apart
        let star = g(vec![0, 1, 2], &[(0, 1), (0, 2)]);
        assert!(!twin(&star));
        let other_labels = g(vec![0, 1, 3], &[(0, 1), (1, 2)]);
        assert!(!twin(&other_labels));
    }

    #[test]
    fn credit_accumulates() {
        let mut e = entry(g(vec![0], &[]), &[], 1);
        e.credit(5, 12.5);
        e.credit(3, 2.5);
        assert_eq!(e.stats.tests_saved, 8);
        assert_eq!(e.stats.cost_saved, 15.0);
    }
}
