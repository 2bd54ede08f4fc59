//! Unit tests of the window part of [`Entries`](crate::entries::Entries):
//! positions `resident..`, which join the cache when they reach
//! `window_capacity`.

mod tests {
    use crate::entries::Entries;
    use crate::entry::CachedQuery;
    use gc_graph::{BitSet, LabeledGraph};
    use gc_subiso::QueryKind;

    fn entry() -> CachedQuery {
        CachedQuery::new(
            LabeledGraph::from_parts(vec![0], &[]).unwrap(),
            QueryKind::Subgraph,
            BitSet::new(),
            0,
            0,
        )
    }

    /// A table with room for ten cached entries and `window` pending ones.
    fn table(window: usize) -> Entries {
        Entries::new(10, window)
    }

    #[test]
    fn flushes_exactly_at_capacity() {
        let mut t = table(3);
        t.admit(entry());
        t.admit(entry());
        assert_eq!(t.occupancy(), (0, 2));
        t.admit(entry());
        assert_eq!(t.occupancy(), (3, 0), "third admission flushes");
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut t = table(0);
        t.admit(entry());
        assert!(t.is_empty());
    }

    #[test]
    fn clear_purges() {
        let mut t = table(5);
        t.admit(entry());
        t.admit(entry());
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn quarantine_flag_survives_the_flush() {
        let mut t = table(2);
        t.admit(entry());
        t[0].quarantined = true;
        assert_eq!(t.occupancy(), (0, 1));
        t.admit(entry());
        assert_eq!(t.occupancy(), (2, 0));
        let flags: Vec<bool> = t.iter().map(|e| e.quarantined).collect();
        assert_eq!(
            flags,
            vec![true, false],
            "the window joins the cache in order"
        );
    }

    #[test]
    fn indexed_mutation() {
        let mut t = table(5);
        t.admit(entry());
        t[0].credit(3, 1.0);
        assert_eq!(t.iter().next().unwrap().stats.tests_saved, 3);
        assert!(t.get_mut(1).is_none());
        assert_eq!(t.iter_mut().count(), 1);
    }
}
