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
//! UA/UR shifts only what [`LabeledGraph`] itself keeps current — the edge
//! count, the maximum degree, and the **one-hop** feature: how often each
//! unordered label pair occurs on an edge. That feature is the largest one
//! a single edge update moves by exactly one count (a path, tree or cycle
//! feature can gain or lose arbitrarily many instances), which is why it
//! is the unit that stays maintainable under writes. The graph hashes it
//! into a fixed 256-bit [`EdgePairBits`](gc_graph::EdgePairBits)
//! fingerprint — one bit per `(label pair, t)` with at least `t` such
//! edges, `t = 1..=4` — and an embedding maps a pattern's edges
//! injectively onto target edges of the same pair, so a pattern bit the
//! target lacks disproves containment. UA sets at most one new bit; UR
//! cannot clear one without knowing that no other feature shares it, so
//! the graph recounts its own edges (O(|E| log |E|), nothing kept between
//! updates) and the index copies the result. This module keeps the
//! fragment as cheap set-algebra objects:
//!
//! * **postings** — one [`BitSet`] per label, holding every live graph in
//!   which the label occurs. A query's candidate set starts as the
//!   *intersection* of its distinct labels' postings (subgraph queries) or
//!   the live set minus the postings of foreign labels (supergraph
//!   queries) — pure bitword operations, no per-graph branching;
//! * **retained signatures** — the full [`GraphSignature`] (vertex/edge
//!   counts, maximum degree, label histogram, edge-pair fingerprint) per
//!   indexed graph. The refine pass applies complete signature domination
//!   — fingerprint first, four and-nots that turn most coarse candidates
//!   away before the histogram merge — so Method M's per-candidate
//!   signature pre-filter is *folded into the index*: one pass over the
//!   postings intersection yields the final candidate set and every
//!   emitted candidate already passes the pre-filter.
//!
//! The index never rebuilds on the update path. [`sync`](LabelIndex::sync)
//! replays the change log from a cursor:
//!
//! * ADD → index the new graph (fetched from the store);
//! * DEL → unindex using the signature the index itself retained (the
//!   graph is already gone from the store);
//! * UA/UR → copy edge count, maximum degree and edge-pair fingerprint
//!   from the live graph's own maintained signature, O(1).
//!
//! `*_candidates(query)` returns a *superset* of the true answer set
//! (a sound filter), so it can replace the full live dataset as `CS_M`
//! in both plain Method M and GC+ — the default deployment since the
//! index became the standing candidate source.
//!
//! [`admits`](LabelIndex::admits) is the same decision for one graph id,
//! and both sweeps refine through it. A candidate set taken at log cursor
//! `c` can differ from today's only on the ids the records after `c`
//! touch, so a consumer that keeps one (GC+ keeps one per cached query)
//! brings it current by re-asking `admits` for just those ids.

use std::collections::HashMap;
use std::time::Instant;

use gc_graph::{BitSet, GraphSignature, Label, LabeledGraph, QueryKind};

use crate::log::{ChangeLog, LogCursor, OpType};
use crate::store::{GraphId, GraphStore};

/// Updatable postings-bitset candidate filter with the signature
/// pre-filter folded in.
#[derive(Debug, Default)]
pub struct LabelIndex {
    postings: HashMap<Label, BitSet>,
    /// Every indexed (live) graph — the supergraph sweep's starting set
    /// and the label-less query fallback.
    indexed: BitSet,
    /// Full retained signature per graph (`None` = not indexed). Kept
    /// even after DEL removes the graph from the store, until the DEL
    /// record is replayed, so unindexing needs no store access.
    signatures: Vec<Option<GraphSignature>>,
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

impl LabelIndex {
    /// Builds the index over the store's current contents. The log cursor
    /// starts at `log.head()`, so subsequent [`sync`](Self::sync) calls
    /// replay only newer records. This is the only full pass the index
    /// ever makes; all maintenance afterwards is incremental.
    pub fn build(store: &GraphStore, log: &ChangeLog) -> Self {
        let mut idx = LabelIndex {
            postings: HashMap::new(),
            indexed: BitSet::with_capacity(store.id_span()),
            signatures: Vec::with_capacity(store.id_span()),
            cursor: log.head(),
            records_replayed: 0,
            syncs: 0,
            sync_nanos: 0,
        };
        idx.signatures.resize(store.id_span(), None);
        for (id, g) in store.iter_live() {
            idx.index_graph(id, g);
        }
        idx
    }

    fn index_graph(&mut self, id: GraphId, g: &LabeledGraph) {
        if id >= self.signatures.len() {
            self.signatures.resize(id + 1, None);
        }
        let sig = g.signature().clone();
        for &(label, _) in &sig.labels {
            self.postings.entry(label).or_default().set(id, true);
        }
        self.indexed.set(id, true);
        self.signatures[id] = Some(sig);
    }

    fn unindex_graph(&mut self, id: GraphId) {
        if let Some(sig) = self.signatures.get_mut(id).and_then(Option::take) {
            for (label, _) in sig.labels {
                if let Some(p) = self.postings.get_mut(&label) {
                    p.set(id, false);
                }
            }
            self.indexed.set(id, false);
        }
    }

    /// Incrementally replays the change log since the last sync. O(number
    /// of new records), independent of dataset size.
    pub fn sync(&mut self, store: &GraphStore, log: &ChangeLog) {
        // records_since borrows log; collect to a small Vec to keep the
        // borrow short — batches are tiny (paper: 20 ops)
        let records: Vec<_> = log.records_since(self.cursor).to_vec();
        self.cursor = log.head();
        if records.is_empty() {
            return;
        }
        let started = Instant::now();
        self.records_replayed += records.len() as u64;
        for r in records {
            match r.op {
                OpType::Add => {
                    if let Some(g) = store.get(r.graph_id) {
                        self.index_graph(r.graph_id, g);
                    }
                }
                OpType::Del => self.unindex_graph(r.graph_id),
                OpType::Ua | OpType::Ur => {
                    if let Some(Some(sig)) = self.signatures.get_mut(r.graph_id) {
                        match store.get(r.graph_id) {
                            // the graph maintains its own signature across
                            // UA/UR — mirror the three fields an edge moves
                            Some(g) => {
                                let live = g.signature();
                                sig.edges = live.edges;
                                sig.max_degree = live.max_degree;
                                sig.edge_pairs = live.edge_pairs;
                            }
                            // already deleted later in this batch: keep the
                            // counter roughly right; the DEL record will
                            // unindex it before any candidate can leak
                            None => match r.op {
                                OpType::Ua => sig.edges += 1,
                                _ => sig.edges = sig.edges.saturating_sub(1),
                            },
                        }
                    }
                }
            }
        }
        self.syncs += 1;
        self.sync_nanos += started.elapsed().as_nanos() as u64;
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

    /// Approximate resident bytes: postings bitset blocks, the indexed
    /// set, and the retained signatures (struct + label histogram; the
    /// 32-byte edge-pair fingerprint is inline, so it rides inside
    /// `size_of::<Option<GraphSignature>>()`).
    /// Counts owned payload, not allocator or hash-table overhead — the
    /// number is a comparable gauge across datasets, not an RSS claim.
    pub fn memory_bytes(&self) -> u64 {
        use std::mem::size_of;
        let postings: usize = self
            .postings
            .values()
            .map(|p| size_of::<Label>() + size_of::<BitSet>() + p.block_count() * 8)
            .sum();
        let signatures: usize = self
            .signatures
            .iter()
            .map(|s| {
                size_of::<Option<GraphSignature>>()
                    + s.as_ref()
                        .map_or(0, |sig| sig.labels.len() * size_of::<(Label, u32)>())
            })
            .sum();
        (postings + self.indexed.block_count() * 8 + signatures) as u64
    }

    /// Log records replayed incrementally since construction. Stays at 0
    /// until the first post-build [`sync`](Self::sync) sees new records —
    /// callers that churn the dataset can assert this grew to prove the
    /// index was maintained, not rebuilt.
    pub fn records_replayed(&self) -> u64 {
        self.records_replayed
    }

    /// Structural equality with another index: same indexed set, same
    /// retained signatures, same postings (a posting emptied by deletions
    /// equals an absent one). The cursor and replay counter are *not*
    /// compared — two structurally equal indexes may have different
    /// histories. This is the maintenance tests' witness that incremental
    /// sync converges to exactly what a fresh build would produce.
    pub fn same_structure(&self, other: &LabelIndex) -> bool {
        if self.indexed != other.indexed {
            return false;
        }
        let span = self.signatures.len().max(other.signatures.len());
        for id in 0..span {
            let a = self.signatures.get(id).and_then(Option::as_ref);
            let b = other.signatures.get(id).and_then(Option::as_ref);
            if a != b {
                return false;
            }
        }
        let empty = BitSet::new();
        self.postings
            .keys()
            .chain(other.postings.keys())
            .all(|label| {
                let a = self.postings.get(label).unwrap_or(&empty);
                let b = other.postings.get(label).unwrap_or(&empty);
                a == b
            })
    }

    /// Membership of graph `id` in `query`'s candidate set for `kind`,
    /// decided for that one graph: it is indexed, and its retained
    /// signature dominates the query's (subgraph) or is dominated by it
    /// (supergraph). Label-multiset domination implies the postings test,
    /// so the postings sweeps of the two `*_candidates` functions only
    /// narrow which ids they ask about. Both refine with this predicate,
    /// and `admits(id, q, kind) == candidates(q, kind).get(id)` for every
    /// id. Unindexed ids (deleted, past the span, or not yet synced) read
    /// `false`. Costs one signature comparison.
    #[inline]
    pub fn admits(&self, id: GraphId, query: &LabeledGraph, kind: QueryKind) -> bool {
        let Some(Some(sig)) = self.signatures.get(id) else {
            return false;
        };
        let qsig = query.signature();
        match kind {
            QueryKind::Subgraph => sig.dominates(qsig),
            QueryKind::Supergraph => qsig.dominates(sig),
        }
    }

    /// The candidate set for `query` of `kind`: the
    /// [`subgraph_candidates`](Self::subgraph_candidates) or
    /// [`supergraph_candidates`](Self::supergraph_candidates) sweep.
    pub fn candidates(&self, query: &LabeledGraph, kind: QueryKind) -> BitSet {
        match kind {
            QueryKind::Subgraph => self.subgraph_candidates(query),
            QueryKind::Supergraph => self.supergraph_candidates(query),
        }
    }

    /// Filter stage for a **subgraph** query: intersects the postings of
    /// the query's distinct labels *before* any signature or degree check,
    /// then refines the survivors by full signature domination (edge-pair
    /// fingerprint, vertex and edge counts, maximum degree, label
    /// multiset). Sound — a superset of
    /// the answer set — and *complete as a pre-filter*: every emitted
    /// candidate passes Method M's signature pre-filter, so the scan can
    /// skip that stage entirely.
    pub fn subgraph_candidates(&self, query: &LabeledGraph) -> BitSet {
        let qsig = query.signature();
        // intersect postings of the query's distinct labels
        let mut cands: Option<BitSet> = None;
        for &(label, _) in &qsig.labels {
            match self.postings.get(&label) {
                Some(p) => match cands.as_mut() {
                    Some(c) => c.intersect_with(p),
                    None => cands = Some(p.clone()),
                },
                None => return BitSet::new(),
            }
        }
        // label-less query (no vertices): all indexed graphs qualify
        let coarse = cands.unwrap_or_else(|| self.indexed.clone());
        // refine by full signature domination (the folded pre-filter)
        let mut out = coarse.clone();
        for id in coarse.iter_ones() {
            if !self.admits(id, query, QueryKind::Subgraph) {
                out.set(id, false);
            }
        }
        out
    }

    /// Filter stage for a **supergraph** query: graphs the query could
    /// contain. Starts from the live set, subtracts the postings of every
    /// label the query does *not* carry (a graph with a foreign label can
    /// never be contained), then refines by the reverse signature
    /// domination. Same soundness and pre-filter-completeness guarantees
    /// as [`subgraph_candidates`](Self::subgraph_candidates).
    pub fn supergraph_candidates(&self, query: &LabeledGraph) -> BitSet {
        let qsig = query.signature();
        let mut out = self.indexed.clone();
        for (label, posting) in &self.postings {
            let known = qsig.labels.binary_search_by_key(label, |&(l, _)| l).is_ok();
            if !known {
                out.difference_with(posting);
            }
        }
        let coarse = out.clone();
        for id in coarse.iter_ones() {
            if !self.admits(id, query, QueryKind::Supergraph) {
                out.set(id, false);
            }
        }
        out
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
        let (_, _, idx) = setup();
        // star on three 0/1-labeled vertices: center degree 2. Graph 1
        // (single 0-0 edge, max degree 1) passes the label intersection
        // and the edge-count bound is irrelevant, but graph 0 is the only
        // one whose max degree supports the star's center.
        let star = g(vec![0, 0, 1], &[(0, 1), (0, 2)]);
        assert_eq!(
            idx.subgraph_candidates(&star)
                .iter_ones()
                .collect::<Vec<_>>(),
            vec![0]
        );
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
        // graph 1 has 1 edge; a 2-edge query on labels {0,0} misses it
        // only via the edge-count bound — add an edge and re-check.
        // (graph 1 is complete on 2 vertices; grow via a fresh graph)
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
        // star query needing a degree-2 center on 0-labels
        let star = g(vec![0, 0, 0], &[(0, 1), (0, 2)]);
        let id = store.add_graph(g(vec![0, 0, 0], &[(0, 1), (1, 2)]));
        log.append(id, OpType::Add);
        idx.sync(&store, &log);
        assert!(idx.subgraph_candidates(&star).get(id), "path has degree 2");

        // UR the middle edge: max degree drops to 1, the star is
        // infeasible — only the folded max-degree bound can see this
        // (vertex count, edge count and labels all still dominate)
        store.remove_edge(id, 1, 2).unwrap();
        log.append_edge(id, OpType::Ur, 1, 2);
        idx.sync(&store, &log);
        assert_eq!(store.get(id).unwrap().edge_count(), 1);
        assert!(
            !idx.subgraph_candidates(&star).get(id),
            "max degree 1 cannot host a degree-2 star center"
        );

        store.add_edge(id, 1, 2).unwrap();
        log.append_edge(id, OpType::Ua, 1, 2);
        idx.sync(&store, &log);
        assert!(idx.subgraph_candidates(&star).get(id));
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
