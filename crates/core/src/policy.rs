//! Cache replacement scoring: the paper's HD policy (§7.1).
//!
//! Eviction keeps the `capacity` highest-scoring entries. HD computes the
//! squared CoV of the cache's `R` distribution (`R`: total sub-iso tests
//! an entry alleviated). High variability (CoV² > 1) means `R` alone is
//! discriminative, so entries score by `R` (**PIN**, GC's ranking);
//! otherwise they score by `C`, the estimated query time saved (**PINC**;
//! heuristic cost per test from the paper's ref \[25\]).

use crate::entry::CachedQuery;
use crate::stats::squared_cov;

/// The scoring scheme HD resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedPolicy {
    /// R-based.
    Pin,
    /// Cost-based.
    Pinc,
}

/// Resolves HD against the current cache contents: PIN when the squared
/// CoV of their `R` is above 1, else PINC.
pub fn resolve(entries: &[CachedQuery]) -> ResolvedPolicy {
    let r: Vec<u64> = entries.iter().map(|e| e.stats.tests_saved).collect();
    let (num, den) = squared_cov(&r);
    if num > den {
        ResolvedPolicy::Pin
    } else {
        ResolvedPolicy::Pinc
    }
}

/// The score of one entry under a resolved policy; higher = keep.
pub fn score(resolved: ResolvedPolicy, entry: &CachedQuery) -> f64 {
    match resolved {
        ResolvedPolicy::Pin => entry.stats.tests_saved as f64,
        ResolvedPolicy::Pinc => entry.stats.cost_saved,
    }
}

/// Selects which entries to keep when `entries` exceeds `capacity`:
/// returns the indices of the entries to **evict**, lowest score first
/// (ties: older insertion evicted first, then lower index, keeping the
/// result deterministic).
pub fn select_evictions(entries: &[CachedQuery], capacity: usize) -> Vec<usize> {
    if entries.len() <= capacity {
        return Vec::new();
    }
    let resolved = resolve(entries);
    let mut ranked: Vec<(usize, f64)> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (i, score(resolved, e)))
        .collect();
    ranked.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                entries[a.0]
                    .stats
                    .inserted_at
                    .cmp(&entries[b.0].stats.inserted_at)
            })
            .then_with(|| a.0.cmp(&b.0))
    });
    ranked
        .into_iter()
        .take(entries.len() - capacity)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{BitSet, LabeledGraph};
    use gc_subiso::QueryKind;

    fn entry(tests_saved: u64, cost_saved: f64) -> CachedQuery {
        let mut e = CachedQuery::new(
            LabeledGraph::from_parts(vec![0], &[]).unwrap(),
            QueryKind::Subgraph,
            BitSet::new(),
            0,
            0,
        );
        e.stats.tests_saved = tests_saved;
        e.stats.cost_saved = cost_saved;
        e
    }

    #[test]
    fn hybrid_switches_on_r_variability() {
        // low variability → PINC
        let low: Vec<CachedQuery> = (0..5).map(|i| entry(10 + i, 1.0)).collect();
        assert_eq!(resolve(&low), ResolvedPolicy::Pinc);
        // heavy-tailed R → PIN
        let mut high: Vec<CachedQuery> = (0..5).map(|_| entry(1, 1.0)).collect();
        high.push(entry(500, 1.0));
        assert_eq!(resolve(&high), ResolvedPolicy::Pin);
        // cold cache (all R = 0) → PINC
        let cold: Vec<CachedQuery> = (0..3).map(|_| entry(0, 0.0)).collect();
        assert_eq!(resolve(&cold), ResolvedPolicy::Pinc);
    }

    #[test]
    fn squared_cov_of_exactly_one_resolves_to_pinc() {
        // R = [0, 2]: mean 1, variance 1, so CoV² = 1, which is not above 1
        let boundary = vec![entry(0, 0.0), entry(2, 0.0)];
        assert_eq!(squared_cov(&[0, 2]), (4, 4));
        assert_eq!(resolve(&boundary), ResolvedPolicy::Pinc);
        // also where an `f64` quotient of the same CoV² reads above 1
        let r = [2, 1, 0, 3, 3, 0, 0, 0, 3];
        let rounded: Vec<CachedQuery> = r.iter().map(|&t| entry(t, 0.0)).collect();
        assert_eq!(resolve(&rounded), ResolvedPolicy::Pinc);
    }

    #[test]
    fn eviction_keeps_top_scorers() {
        // CoV² of R ≈ 2.4 → PIN; PINC would see four equal costs
        let entries = vec![
            entry(5, 0.0),  // kept
            entry(1, 0.0),  // evicted
            entry(90, 0.0), // kept
            entry(2, 0.0),  // evicted
        ];
        assert_eq!(resolve(&entries), ResolvedPolicy::Pin);
        assert_eq!(select_evictions(&entries, 2), vec![1, 3]);
    }

    #[test]
    fn pinc_ranks_by_cost_saved_not_tests_saved() {
        // R nearly flat → PINC; by R alone entry 1 would go, by C entry 0
        let entries = vec![entry(12, 1.0), entry(10, 5.0), entry(11, 3.0)];
        assert_eq!(resolve(&entries), ResolvedPolicy::Pinc);
        assert_eq!(score(ResolvedPolicy::Pinc, &entries[1]), 5.0);
        assert_eq!(score(ResolvedPolicy::Pin, &entries[1]), 10.0);
        assert_eq!(select_evictions(&entries, 2), vec![0]);
    }

    #[test]
    fn eviction_noop_under_capacity() {
        let entries = vec![entry(1, 1.0)];
        assert!(select_evictions(&entries, 2).is_empty());
        assert!(select_evictions(&entries, 1).is_empty());
    }

    #[test]
    fn ties_evict_older_insertions_first() {
        let mut a = entry(1, 1.0);
        a.stats.inserted_at = 5;
        let mut b = entry(1, 1.0);
        b.stats.inserted_at = 2; // older
        let entries = vec![a, b];
        let evict = select_evictions(&entries, 1);
        assert_eq!(evict, vec![1], "older entry evicted on tie");
    }
}
