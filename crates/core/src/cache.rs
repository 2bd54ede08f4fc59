//! Unit tests of the cache part of [`Entries`](crate::entries::Entries):
//! positions `..resident`, filled when a full window joins them.

mod tests {
    use crate::entries::Entries;
    use crate::entry::CachedQuery;
    use gc_graph::{BitSet, LabeledGraph};
    use gc_subiso::QueryKind;

    fn entry(tests_saved: u64) -> CachedQuery {
        let mut e = CachedQuery::new(
            LabeledGraph::from_parts(vec![0], &[]).unwrap(),
            QueryKind::Subgraph,
            BitSet::new(),
            0,
            0,
        );
        e.stats.tests_saved = tests_saved;
        e.stats.cost_saved = tests_saved as f64;
        e
    }

    /// A table whose window of `batch.len()` has just flushed `batch` into
    /// the cache.
    fn flushed(capacity: usize, batch: &[u64]) -> Entries {
        let mut t = Entries::new(capacity, batch.len());
        for &saved in batch {
            t.admit(entry(saved));
        }
        t
    }

    fn quarantined_count(t: &Entries) -> usize {
        t.iter().filter(|e| e.quarantined).count()
    }

    #[test]
    fn admits_until_capacity() {
        let t = flushed(3, &[1, 2]);
        assert_eq!(t.occupancy(), (2, 0));
        assert!(!t.is_empty());
        assert_eq!(t.evictions(), 0);
    }

    #[test]
    fn evicts_lowest_scorers_on_overflow() {
        let mut t = flushed(3, &[10, 1, 7]);
        t.admit(entry(5));
        t.admit(entry(2));
        t.admit(entry(0));
        assert_eq!(t.occupancy(), (3, 0));
        let mut kept: Vec<u64> = t.iter().map(|e| e.stats.tests_saved).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![5, 7, 10]);
        assert_eq!(t.evictions(), 3);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let t = flushed(0, &[1]);
        assert!(t.is_empty());
        assert_eq!(t.evictions(), 0, "a dropped batch is not an eviction");
    }

    #[test]
    fn clear_supports_evi() {
        let mut t = flushed(5, &[1, 2]);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.occupancy(), (0, 0));
    }

    #[test]
    fn quarantine_flag_travels_with_its_entry() {
        let mut t = flushed(5, &[1, 2, 3]);
        assert_eq!(quarantined_count(&t), 0);
        t[1].quarantined = true;
        assert_eq!(quarantined_count(&t), 1);
        for saved in [4, 5, 6] {
            t.admit(entry(saved));
        }
        // the flush evicted R = 1 at position 0 by swap_remove, so the
        // flagged R = 2 entry stayed at position 1
        assert_eq!((t.occupancy(), t.evictions()), ((5, 0), 1));
        assert_eq!(quarantined_count(&t), 1);
        assert!(t[1].quarantined && t[1].stats.tests_saved == 2);
    }

    #[test]
    fn indexed_access() {
        let mut t = flushed(5, &[1]);
        t[0].credit(4, 1.0);
        assert_eq!(t.iter().next().unwrap().stats.tests_saved, 5);
        assert!(t.get_mut(9).is_none());
        assert_eq!(t.iter_mut().count(), 1);
    }
}
