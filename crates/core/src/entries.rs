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

use std::ops::{Deref, DerefMut};

use crate::entry::CachedQuery;
use crate::policy::select_evictions;

/// Cache then window, in one ordered `Vec`.
#[derive(Debug)]
pub struct Entries {
    entries: Vec<CachedQuery>,
    /// Positions `..resident` are the cache, `resident..` the window.
    resident: usize,
    cache_capacity: usize,
    window_capacity: usize,
    evictions: u64,
}

impl Entries {
    /// An empty table. A `window_capacity` of 0 admits nothing; a
    /// `cache_capacity` of 0 drops every full window.
    pub fn new(cache_capacity: usize, window_capacity: usize) -> Self {
        Entries {
            entries: Vec::with_capacity((cache_capacity + window_capacity).min(1024)),
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

    /// Bytes the table holds: its buffer's capacity in entries, and per
    /// entry the cached graph's heap buffers ([`gc_graph::GraphBytes`] less
    /// its inline part), its answer and validity bitsets and its `CS_M`
    /// memo.
    pub fn memory_bytes(&self) -> u64 {
        let inline = std::mem::size_of::<gc_graph::LabeledGraph>() as u64;
        let heap = |e: &CachedQuery| {
            e.graph.memory_bytes().total() - inline
                + e.answer.memory_bytes()
                + e.cg_valid.memory_bytes()
                + e.csm.as_ref().map_or(0, |(_, set)| set.memory_bytes())
        };
        (self.entries.capacity() * std::mem::size_of::<CachedQuery>()) as u64
            + self.entries.iter().map(heap).sum::<u64>()
    }

    /// EVI purge.
    pub fn clear(&mut self) {
        self.entries.clear();
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
        self.entries.push(entry);
        if self.entries.len() - self.resident < self.window_capacity {
            return;
        }
        if self.cache_capacity == 0 {
            self.entries.truncate(self.resident);
            return;
        }
        let mut evict = select_evictions(&self.entries, self.cache_capacity);
        evict.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &evict {
            self.entries.swap_remove(i);
        }
        self.resident = self.entries.len();
        self.evictions += evict.len() as u64;
    }
}

impl Deref for Entries {
    type Target = [CachedQuery];

    fn deref(&self) -> &[CachedQuery] {
        &self.entries
    }
}

impl DerefMut for Entries {
    fn deref_mut(&mut self) -> &mut [CachedQuery] {
        &mut self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{BitSet, LabeledGraph};
    use gc_subiso::QueryKind;

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
        t.iter().map(|e| e.graph.label(0)).collect()
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

    #[test]
    fn clear_supports_evi() {
        let mut t = table(5, 2, &[(0, 1), (1, 1), (2, 1)]);
        t.clear();
        assert!(t.is_empty());
        t.admit(entry(3, 1));
        assert_eq!(t.occupancy(), (0, 1), "the boundary was reset too");
    }
}
