//! The entry table — the Cache Manager's one store of previous queries.
//!
//! The paper's cache and window both serve hits and are both kept
//! consistent; the window is admission control, batching executed queries
//! (default 20) so they enter the cache with the usage statistics the
//! replacement policy judges them by. [`Entries`] therefore holds one
//! `Vec`: the first `resident` positions are the cache, the rest the
//! window. It dereferences to that slice, so every walk (hit discovery,
//! validation, quarantine, audit) visits the cache first and then the
//! window, each in its own order, and a hit names an entry by position.
//! A position is valid until the next [`admit`](Entries::admit) or
//! [`clear`](Entries::clear).
//!
//! Beside the entries, at the same positions, the table keeps what the
//! hit probe's signature screens read of each entry's graph, packed the
//! way [`LabelIndex`](gc_dataset::LabelIndex) keeps the dataset's: a
//! 48-byte record per entry (edge-pair fingerprint, edge count, query
//! kind) and every label histogram end to end in one `Vec` of four-byte
//! [`LabelCount`]s. The hit probe's walk (`Entries::screen`) reads those
//! records, so an entry the screens reject is never read: neither its
//! [`CachedQuery`] nor its graph's signature. The copy is of data fixed
//! at admission (an entry's graph and kind cannot change, see
//! [`crate::entry`]), and only `admit` and `clear` move positions: a
//! push appends a record, and a window flush, whose evictions
//! `swap_remove` entries, rebuilds the records from the entries that
//! stay.

use std::ops::{Deref, DerefMut};

use gc_graph::{histogram_dominates, EdgePairBits, GraphSignature, LabelCount, LabeledGraph};
use gc_subiso::QueryKind;

use crate::entry::CachedQuery;
use crate::policy::select_evictions;

/// Cache then window, in one ordered `Vec`, with their screens.
#[derive(Debug)]
pub struct Entries {
    entries: Vec<CachedQuery>,
    /// The entries' screens, at the same positions.
    screens: Screens,
    /// Positions `..resident` are the cache, `resident..` the window.
    resident: usize,
    cache_capacity: usize,
    window_capacity: usize,
    evictions: u64,
}

/// What the signature screens read of each entry, by position.
#[derive(Debug, Default, PartialEq, Eq)]
struct Screens {
    records: Vec<Screen>,
    /// The label histograms, end to end in position order.
    histograms: Vec<LabelCount>,
}

/// One entry's record. Its label histogram is
/// `histograms[start..start + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Screen {
    edge_pairs: EdgePairBits,
    edges: u32,
    start: u32,
    len: u32,
    kind: QueryKind,
}

impl Screens {
    fn push(&mut self, entry: &CachedQuery) {
        let graph = entry.graph();
        let sig = graph.signature();
        let start =
            u32::try_from(self.histograms.len()).expect("fewer than 2^32 cached label entries");
        self.histograms.extend_from_slice(&sig.labels);
        self.records.push(Screen {
            edge_pairs: sig.edge_pairs,
            edges: u32::try_from(graph.edge_count()).expect("a graph's edges fit a u32"),
            start,
            len: sig.labels.len() as u32,
            kind: entry.kind(),
        });
    }

    /// Refills the records from `entries`, keeping the buffers.
    fn rebuild(&mut self, entries: &[CachedQuery]) {
        self.records.clear();
        self.histograms.clear();
        entries.iter().for_each(|e| self.push(e));
    }

    fn labels(&self, s: &Screen) -> &[LabelCount] {
        &self.histograms[s.start as usize..(s.start + s.len) as usize]
    }

    fn memory_bytes(&self) -> u64 {
        (self.records.capacity() * std::mem::size_of::<Screen>()
            + self.histograms.capacity() * std::mem::size_of::<LabelCount>()) as u64
    }
}

/// Which containment relations with a query an entry's signature screens
/// leave open: each is a necessary condition
/// ([`GraphSignature::dominates`](gc_graph::GraphSignature::dominates)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Screened {
    /// `query ⊆ entry` may hold.
    pub query_in_entry: bool,
    /// `entry ⊆ query` may hold.
    pub entry_in_query: bool,
    /// Equal signatures and edge counts: the exact-match precondition,
    /// which isomorphic graphs always meet. The edge count is compared on
    /// its own: the signature holds none, and a 6-vertex path and a
    /// 6-vertex ring of one label share histogram and fingerprint, so
    /// without it the path would take the ring as its twin.
    pub same_shape: bool,
}

impl Entries {
    /// An empty table. A `window_capacity` of 0 admits nothing; a
    /// `cache_capacity` of 0 drops every full window.
    pub fn new(cache_capacity: usize, window_capacity: usize) -> Self {
        let room = (cache_capacity + window_capacity).min(1024);
        Entries {
            entries: Vec::with_capacity(room),
            screens: Screens {
                records: Vec::with_capacity(room),
                histograms: Vec::new(),
            },
            resident: 0,
            cache_capacity,
            window_capacity,
            evictions: 0,
        }
    }

    /// Occupancy `(cache, window)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.resident, self.entries.len() - self.resident)
    }

    /// Cache evictions so far, all by replacement at admission.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bytes the table holds: its buffers' capacities (entries, screen
    /// records and histogram entries), and per entry the cached graph's
    /// heap buffers ([`gc_graph::GraphBytes`] less its inline part), its
    /// answer and validity bitsets and its `CS_M` memo.
    pub fn memory_bytes(&self) -> u64 {
        let inline = std::mem::size_of::<LabeledGraph>() as u64;
        let heap = |e: &CachedQuery| {
            e.graph().memory_bytes().total() - inline
                + e.answer.memory_bytes()
                + e.cg_valid.memory_bytes()
                + e.csm.as_ref().map_or(0, |(_, set)| set.memory_bytes())
        };
        (self.entries.capacity() * std::mem::size_of::<CachedQuery>()) as u64
            + self.screens.memory_bytes()
            + self.entries.iter().map(heap).sum::<u64>()
    }

    /// EVI purge.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.screens.rebuild(&[]);
        self.resident = 0;
    }

    /// Admits a query into the window. When the window reaches capacity
    /// it joins the cache and the policy ranks the merged population (new
    /// arrivals compete with incumbents — GC's admission control); its
    /// picks leave by `swap_remove` in descending position order, so an
    /// evicted slot is filled from the end.
    pub fn admit(&mut self, entry: CachedQuery) {
        if self.window_capacity == 0 {
            return;
        }
        self.screens.push(&entry);
        self.entries.push(entry);
        if self.entries.len() - self.resident < self.window_capacity {
            return;
        }
        if self.cache_capacity == 0 {
            self.entries.truncate(self.resident);
        } else {
            let mut evict = select_evictions(&self.entries, self.cache_capacity);
            evict.sort_unstable_by(|a, b| b.cmp(a));
            for &i in &evict {
                self.entries.swap_remove(i);
            }
            self.resident = self.entries.len();
            self.evictions += evict.len() as u64;
        }
        self.screens.rebuild(&self.entries);
    }

    /// The entries of `kind` that are not quarantined and whose screens
    /// leave a containment relation with `query` open, in walk order: the
    /// entries a hit probe or a quarantine can concern. `query`'s
    /// signature is read once.
    pub(crate) fn screen<'a>(&'a self, query: &'a LabeledGraph, kind: QueryKind) -> Screening<'a> {
        Screening {
            entries: self,
            at: 0,
            sig: query.signature(),
            edges: query.edge_count(),
            kind,
        }
    }
}

/// The walk [`Entries::screen`] returns.
pub(crate) struct Screening<'a> {
    entries: &'a Entries,
    /// The next record to screen.
    at: usize,
    sig: &'a GraphSignature,
    edges: usize,
    kind: QueryKind,
}

impl Iterator for Screening<'_> {
    type Item = (usize, Screened);

    /// Per record the kind is checked, then both fingerprint subset tests;
    /// only a record that passes one reads its entry's quarantine flag and
    /// its histogram. The loop is written out over a local position, so
    /// that a rejected record costs no call and no store.
    #[inline]
    fn next(&mut self) -> Option<(usize, Screened)> {
        let (sig, screens) = (self.sig, &self.entries.screens);
        let mut r = self.at;
        while let Some(s) = screens.records.get(r) {
            r += 1;
            if s.kind != self.kind {
                continue;
            }
            let pairs_in_entry = sig.edge_pairs.is_subset_of(&s.edge_pairs);
            let pairs_in_query = s.edge_pairs.is_subset_of(&sig.edge_pairs);
            if !(pairs_in_entry || pairs_in_query) || self.entries[r - 1].quarantined {
                continue;
            }
            let labels = screens.labels(s);
            let open = Screened {
                query_in_entry: pairs_in_entry && histogram_dominates(labels, &sig.labels),
                entry_in_query: pairs_in_query && histogram_dominates(&sig.labels, labels),
                same_shape: pairs_in_entry
                    && pairs_in_query
                    && s.edges as usize == self.edges
                    && *labels == *sig.labels,
            };
            if open.query_in_entry || open.entry_in_query {
                self.at = r;
                return Some((r - 1, open));
            }
        }
        self.at = r;
        None
    }
}

impl Deref for Entries {
    type Target = [CachedQuery];

    fn deref(&self) -> &[CachedQuery] {
        &self.entries
    }
}

/// Mutable access to the entries' state (answers, validity, quarantine,
/// memo, statistics). Their graphs and kinds, which the screens copy,
/// have no setter; an entry is replaced only through `admit`, never by
/// assigning a whole [`CachedQuery`] through this slice.
impl DerefMut for Entries {
    fn deref_mut(&mut self) -> &mut [CachedQuery] {
        &mut self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::BitSet;

    /// An entry named by its single vertex label, scoring `tests_saved`
    /// under both PIN and PINC.
    fn entry(id: u16, tests_saved: u64) -> CachedQuery {
        let graph = LabeledGraph::from_parts(vec![id], &[]).unwrap();
        let mut e = CachedQuery::new(graph, QueryKind::Subgraph, BitSet::new(), 0, 0);
        e.stats.tests_saved = tests_saved;
        e.stats.cost_saved = tests_saved as f64;
        e
    }

    /// A table that admitted one entry per `(id, tests_saved)`.
    fn table(cache: usize, window: usize, admitted: &[(u16, u64)]) -> Entries {
        let mut t = Entries::new(cache, window);
        for &(id, saved) in admitted {
            t.admit(entry(id, saved));
        }
        t
    }

    fn ids(t: &Entries) -> Vec<u16> {
        t.iter().map(|e| e.graph().label(0)).collect()
    }

    #[test]
    fn walk_is_cache_then_window() {
        assert_eq!(table(10, 3, &[(0, 0), (1, 0)]).occupancy(), (0, 2));
        let t = table(10, 3, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]);
        assert_eq!(t.occupancy(), (3, 2), "the third admission flushed");
        assert_eq!(ids(&t), vec![0, 1, 2, 3, 4], "admission order, cache first");
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn flush_evicts_lowest_scorers_by_swap_remove() {
        let t = table(3, 3, &[(0, 1), (1, 1), (2, 1), (3, 5), (4, 0), (5, 2)]);
        // [0 1 2 3 4 5] evicts 4, then the score-1 ties at the lowest
        // positions, 0 and 1; swap_remove at 4, 1, 0 leaves [3 5 2]
        assert_eq!(ids(&t), vec![3, 5, 2]);
        assert_eq!((t.occupancy(), t.evictions()), ((3, 0), 3));
    }

    #[test]
    fn zero_capacities() {
        assert!(table(5, 0, &[(0, 1)]).is_empty(), "no window, no admission");
        assert_eq!(table(0, 2, &[(0, 1)]).occupancy(), (0, 1));
        let t = table(0, 2, &[(0, 1), (1, 1)]);
        assert!(t.is_empty(), "no cache: a full window is dropped");
        assert_eq!(t.evictions(), 0, "and not counted");
    }

    /// The screens of `t`'s entries, built afresh.
    fn rebuilt(t: &Entries) -> Screens {
        let mut fresh = Screens::default();
        fresh.rebuild(&t.entries);
        fresh
    }

    #[test]
    fn screens_equal_a_rebuild_after_every_admit_flush_and_clear() {
        // graphs of one to three vertices, so histograms differ in length
        let entry = |id: u16, saved: u64| {
            let n = 1 + usize::from(id % 3);
            let labels = (0..n as u16).map(|l| id + l).collect();
            let edges: Vec<_> = (1..n as u32).map(|v| (v - 1, v)).collect();
            let kind = [QueryKind::Subgraph, QueryKind::Supergraph][usize::from(id % 2)];
            let graph = LabeledGraph::from_parts(labels, &edges).unwrap();
            let mut e = CachedQuery::new(graph, kind, BitSet::new(), 0, u64::from(id));
            e.stats.tests_saved = saved;
            e.stats.cost_saved = saved as f64;
            e
        };
        for (cache, window) in [(4, 3), (0, 2), (5, 1), (3, 0)] {
            let mut t = Entries::new(cache, window);
            for id in 0..40u16 {
                if id % 17 == 16 {
                    t.clear();
                } else {
                    t.admit(entry(id, u64::from(id * 7 % 5)));
                }
                assert_eq!(t.screens, rebuilt(&t), "({cache}, {window}) after {id}");
            }
            if cache == 4 {
                assert!(t.evictions() > 0, "the flushes evicted");
            }
        }
    }

    #[test]
    fn screen_records_are_48_bytes() {
        assert_eq!(std::mem::size_of::<Screen>(), 48);
    }

    #[test]
    fn clear_supports_evi() {
        let mut t = table(5, 2, &[(0, 1), (1, 1), (2, 1)]);
        t.clear();
        assert!(t.is_empty());
        t.admit(entry(3, 1));
        assert_eq!(t.occupancy(), (0, 1), "the boundary was reset too");
    }
}
