//! Cache replacement scoring.
//!
//! Eviction keeps the `capacity` highest-scoring entries. Scores:
//!
//! * **LRU** — recency (`last_used`);
//! * **LFU** — hit count;
//! * **PIN** — `R`, total sub-iso tests alleviated (GC's ranking);
//! * **PINC** — `C`, the cost-weighted variant (estimated query time
//!   saved; heuristic cost per test from the paper's ref \[25\]);
//! * **HD** — hybrid (§7.1): compute the squared CoV of the cache's `R`
//!   distribution; high variability (CoV² > 1) means `R` alone is
//!   discriminative → PIN, otherwise fold in the cost estimate → PINC.

use crate::config::Policy;
use crate::entry::CachedQuery;
use crate::stats::squared_cov;

/// The concrete scoring scheme HD resolved to (also used in tests and the
/// policy ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedPolicy {
    /// Recency.
    Lru,
    /// Frequency.
    Lfu,
    /// R-based.
    Pin,
    /// Cost-based.
    Pinc,
}

/// Resolves a configured policy against the current cache contents
/// (HD inspects the R distribution; everything else is static).
pub fn resolve(policy: Policy, entries: &[CachedQuery]) -> ResolvedPolicy {
    match policy {
        Policy::Lru => ResolvedPolicy::Lru,
        Policy::Lfu => ResolvedPolicy::Lfu,
        Policy::Pin => ResolvedPolicy::Pin,
        Policy::Pinc => ResolvedPolicy::Pinc,
        Policy::Hybrid => {
            let r: Vec<f64> = entries.iter().map(|e| e.stats.tests_saved as f64).collect();
            if squared_cov(&r) > 1.0 {
                ResolvedPolicy::Pin
            } else {
                ResolvedPolicy::Pinc
            }
        }
    }
}

/// The score of one entry under a resolved policy; higher = keep.
pub fn score(resolved: ResolvedPolicy, entry: &CachedQuery) -> f64 {
    match resolved {
        ResolvedPolicy::Lru => entry.stats.last_used as f64,
        ResolvedPolicy::Lfu => entry.stats.hit_count as f64,
        ResolvedPolicy::Pin => entry.stats.tests_saved as f64,
        ResolvedPolicy::Pinc => entry.stats.cost_saved,
    }
}

/// Selects which entries to keep when `entries` exceeds `capacity`:
/// returns the indices of the entries to **evict**, lowest score first
/// (ties: older insertion evicted first, then lower index, keeping the
/// result deterministic).
pub fn select_evictions(policy: Policy, entries: &[CachedQuery], capacity: usize) -> Vec<usize> {
    if entries.len() <= capacity {
        return Vec::new();
    }
    let resolved = resolve(policy, entries);
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

    fn entry(tests_saved: u64, cost_saved: f64, hits: u64, last_used: u64) -> CachedQuery {
        let mut e = CachedQuery::new(
            LabeledGraph::from_parts(vec![0], &[]).unwrap(),
            QueryKind::Subgraph,
            BitSet::new(),
            0,
            0,
        );
        e.stats.tests_saved = tests_saved;
        e.stats.cost_saved = cost_saved;
        e.stats.hit_count = hits;
        e.stats.last_used = last_used;
        e
    }

    #[test]
    fn static_policies_resolve_to_themselves() {
        let es = vec![entry(1, 1.0, 1, 1)];
        assert_eq!(resolve(Policy::Lru, &es), ResolvedPolicy::Lru);
        assert_eq!(resolve(Policy::Lfu, &es), ResolvedPolicy::Lfu);
        assert_eq!(resolve(Policy::Pin, &es), ResolvedPolicy::Pin);
        assert_eq!(resolve(Policy::Pinc, &es), ResolvedPolicy::Pinc);
    }

    #[test]
    fn hybrid_switches_on_r_variability() {
        // low variability → PINC
        let low: Vec<CachedQuery> = (0..5).map(|i| entry(10 + i, 1.0, 1, 1)).collect();
        assert_eq!(resolve(Policy::Hybrid, &low), ResolvedPolicy::Pinc);
        // heavy-tailed R → PIN
        let mut high: Vec<CachedQuery> = (0..5).map(|_| entry(1, 1.0, 1, 1)).collect();
        high.push(entry(500, 1.0, 1, 1));
        assert_eq!(resolve(Policy::Hybrid, &high), ResolvedPolicy::Pin);
        // cold cache (all R = 0) → PINC
        let cold: Vec<CachedQuery> = (0..3).map(|_| entry(0, 0.0, 0, 0)).collect();
        assert_eq!(resolve(Policy::Hybrid, &cold), ResolvedPolicy::Pinc);
    }

    #[test]
    fn eviction_keeps_top_scorers() {
        let entries = vec![
            entry(5, 0.0, 0, 0), // PIN score 5
            entry(1, 0.0, 0, 0), // 1 — evicted
            entry(9, 0.0, 0, 0), // 9
            entry(2, 0.0, 0, 0), // 2 — evicted
        ];
        let evict = select_evictions(Policy::Pin, &entries, 2);
        assert_eq!(evict, vec![1, 3]);
    }

    #[test]
    fn eviction_noop_under_capacity() {
        let entries = vec![entry(1, 1.0, 1, 1)];
        assert!(select_evictions(Policy::Pin, &entries, 2).is_empty());
        assert!(select_evictions(Policy::Pin, &entries, 1).is_empty());
    }

    #[test]
    fn lru_lfu_scores() {
        let e = entry(7, 3.0, 4, 99);
        assert_eq!(score(ResolvedPolicy::Lru, &e), 99.0);
        assert_eq!(score(ResolvedPolicy::Lfu, &e), 4.0);
        assert_eq!(score(ResolvedPolicy::Pin, &e), 7.0);
        assert_eq!(score(ResolvedPolicy::Pinc, &e), 3.0);
    }

    #[test]
    fn ties_evict_older_insertions_first() {
        let mut a = entry(1, 1.0, 1, 1);
        a.stats.inserted_at = 5;
        let mut b = entry(1, 1.0, 1, 1);
        b.stats.inserted_at = 2; // older
        let entries = vec![a, b];
        let evict = select_evictions(Policy::Pin, &entries, 1);
        assert_eq!(evict, vec![1], "older entry evicted on tie");
    }
}
