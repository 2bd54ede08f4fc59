//! The entry table's walk order against the two stores it replaced.
//!
//! The order is observable (the first twin is the exact hit, the first
//! qualifying exclusion hit takes the empty-result credit, a test cap
//! refuses the last probes, the auditor draws its coin per entry,
//! `corrupt@N:b` flips position 0), yet no end-to-end gate sees a
//! reordered walk. So random admit / credit / quarantine + `evict_where` /
//! clear sequences over random capacities and policies must leave
//! [`Entries`] in exactly the order, occupancy and eviction count of a
//! window `Vec` drained into a cache `Vec`, walked cache first.

use gc_core::entries::Entries;
use gc_core::entry::CachedQuery;
use gc_core::policy::select_evictions;
use gc_core::Policy::{self, Hybrid, Lfu, Lru, Pin, Pinc};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::QueryKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference: the window drains into the cache when full, the cache
/// is ranked and cut by `swap_remove` in descending position order, and
/// targeted eviction is `retain` on each.
#[derive(Default)]
struct TwoStores {
    cache: Vec<CachedQuery>,
    window: Vec<CachedQuery>,
    evictions: u64,
}

impl TwoStores {
    fn admit(&mut self, e: CachedQuery, cache_cap: usize, window_cap: usize, policy: Policy) {
        if window_cap == 0 {
            return;
        }
        self.window.push(e);
        if self.window.len() < window_cap {
            return;
        }
        let mut batch = std::mem::take(&mut self.window);
        if cache_cap == 0 {
            return;
        }
        self.cache.append(&mut batch);
        let mut evict = select_evictions(policy, &self.cache, cache_cap);
        evict.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &evict {
            self.cache.swap_remove(i);
        }
        self.evictions += evict.len() as u64;
    }

    fn at(&mut self, pos: usize) -> &mut CachedQuery {
        match pos.checked_sub(self.cache.len()) {
            None => &mut self.cache[pos],
            Some(w) => &mut self.window[w],
        }
    }
}

fn ids(entries: &[CachedQuery]) -> Vec<u16> {
    entries.iter().map(|e| e.graph.label(0)).collect()
}

/// Replays one seeded sequence against both, comparing after every step.
/// Returns the evictions and the sweeps that removed entries on both
/// sides of the boundary, for the non-vacuity check.
fn run(seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let policy = [Lru, Lfu, Pin, Pinc, Hybrid][rng.random_range(0..5usize)];
    let (cache_cap, window_cap) = (rng.random_range(0..7), rng.random_range(0..5));
    let mut table = Entries::new(cache_cap, window_cap, policy);
    let mut model = TwoStores::default();
    let mut split_sweeps = 0;
    for (step, id) in (0..80u16).enumerate() {
        match rng.random_range(0..20u32) {
            0..=11 => {
                // small random statistics, so every policy sees ties
                let graph = LabeledGraph::from_parts(vec![id], &[]).unwrap();
                let at = rng.random_range(0..6);
                let mut e = CachedQuery::new(graph, QueryKind::Subgraph, BitSet::new(), 0, at);
                e.stats.tests_saved = rng.random_range(0..4);
                e.stats.cost_saved = f64::from(rng.random_range(0..4u8));
                e.stats.hit_count = rng.random_range(0..3);
                e.stats.last_used = rng.random_range(0..8);
                table.admit(e.clone());
                model.admit(e, cache_cap, window_cap, policy);
            }
            12..=14 if !table.is_empty() => {
                let (pos, tests) = (rng.random_range(0..table.len()), rng.random_range(1..5));
                table[pos].credit(tests, tests as f64, 10 + step as u64);
                model.at(pos).credit(tests, tests as f64, 10 + step as u64);
            }
            15..=18 => {
                for pos in 0..table.len() {
                    let q = rng.random_bool(0.3);
                    table[pos].quarantined = q;
                    model.at(pos).quarantined = q;
                }
                let before = (model.cache.len(), model.window.len());
                model.cache.retain(|e| !e.quarantined);
                model.window.retain(|e| !e.quarantined);
                let removed = (before.0 - model.cache.len(), before.1 - model.window.len());
                model.evictions += removed.0 as u64;
                split_sweeps += u64::from(removed.0 > 0 && removed.1 > 0);
                assert_eq!(table.evict_where(|e| e.quarantined), removed.0 + removed.1);
            }
            19 => {
                table.clear();
                model.cache.clear();
                model.window.clear();
            }
            _ => {}
        }
        let mut walk = ids(&model.cache);
        walk.extend(ids(&model.window));
        let want = (
            walk,
            (model.cache.len(), model.window.len()),
            model.evictions,
        );
        let got = (ids(&table), table.occupancy(), table.evictions());
        assert_eq!(got, want, "seed {seed} step {step}");
    }
    (table.evictions(), split_sweeps)
}

/// Non-vacuity: on fixed seeds, replacement evicts and targeted sweeps
/// cross the cache/window boundary.
#[test]
fn fixed_seeds_evict_and_sweep_both_sides() {
    let (evictions, split) = (0..64).map(run).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(evictions >= 500, "only {evictions} evictions");
    assert!(split >= 30, "only {split} sweeps across the boundary");
}

proptest! {
    #[test]
    fn entry_table_walks_like_cache_then_window(seed in 0u64..1_000_000) {
        run(seed);
    }
}
