//! The entry table's walk order against the two stores it replaced.
//!
//! The order is observable (the first twin is the exact hit, the first
//! qualifying exclusion hit takes the empty-result credit, a test cap
//! refuses the last probes, the auditor draws its coin per entry,
//! `corrupt@N:b` flips position 0), yet no end-to-end gate sees a
//! reordered walk. So random admit / credit / quarantine / clear
//! sequences over random capacities must leave [`Entries`] in exactly the
//! order, quarantine flags, occupancy and eviction count of a window `Vec`
//! drained into a cache `Vec`, walked cache first.

use gc_core::entries::Entries;
use gc_core::entry::CachedQuery;
use gc_core::policy::{resolve, select_evictions, ResolvedPolicy};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::QueryKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference: the window drains into the cache when full, and the
/// cache is ranked and cut by `swap_remove` in descending position order.
/// It also tallies the cuts HD made under PIN and under PINC.
#[derive(Default)]
struct TwoStores {
    cache: Vec<CachedQuery>,
    window: Vec<CachedQuery>,
    evictions: u64,
    pin_cuts: u64,
    pinc_cuts: u64,
}

impl TwoStores {
    fn admit(&mut self, e: CachedQuery, cache_cap: usize, window_cap: usize) {
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
        if self.cache.len() > cache_cap {
            match resolve(&self.cache) {
                ResolvedPolicy::Pin => self.pin_cuts += 1,
                ResolvedPolicy::Pinc => self.pinc_cuts += 1,
            }
        }
        let mut evict = select_evictions(&self.cache, cache_cap);
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

/// Each entry's id and quarantine flag, in walk order.
fn walk(entries: &[CachedQuery]) -> Vec<(u16, bool)> {
    entries
        .iter()
        .map(|e| (e.graph().label(0), e.quarantined))
        .collect()
}

/// Replays one seeded sequence against both, comparing after every step.
/// Returns the evictions and the cuts HD made under PIN and under PINC,
/// for the non-vacuity check.
fn run(seed: u64) -> (u64, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cache_cap, window_cap) = (rng.random_range(0..7), rng.random_range(0..5));
    let mut table = Entries::new(cache_cap, window_cap);
    let mut model = TwoStores::default();
    for (step, id) in (0..80u16).enumerate() {
        match rng.random_range(0..20u32) {
            0..=11 => {
                // small random statistics, so both HD arms see ties
                let graph = LabeledGraph::from_parts(vec![id], &[]).unwrap();
                let at = rng.random_range(0..6);
                let mut e = CachedQuery::new(graph, QueryKind::Subgraph, BitSet::new(), 0, at);
                e.stats.tests_saved = rng.random_range(0..4);
                e.stats.cost_saved = f64::from(rng.random_range(0..4u8));
                table.admit(e.clone());
                model.admit(e, cache_cap, window_cap);
            }
            12..=14 if !table.is_empty() => {
                let (pos, tests) = (rng.random_range(0..table.len()), rng.random_range(1..5));
                table[pos].credit(tests, tests as f64);
                model.at(pos).credit(tests, tests as f64);
            }
            15..=18 => {
                for pos in 0..table.len() {
                    let q = rng.random_bool(0.3);
                    table[pos].quarantined = q;
                    model.at(pos).quarantined = q;
                }
            }
            19 => {
                table.clear();
                model.cache.clear();
                model.window.clear();
            }
            _ => {}
        }
        let mut order = walk(&model.cache);
        order.extend(walk(&model.window));
        let want = (
            order,
            (model.cache.len(), model.window.len()),
            model.evictions,
        );
        let got = (walk(&table), table.occupancy(), table.evictions());
        assert_eq!(got, want, "seed {seed} step {step}");
    }
    (table.evictions(), model.pin_cuts, model.pinc_cuts)
}

/// Non-vacuity: on fixed seeds, replacement evicts, and HD cuts under
/// both of its scores.
#[test]
fn fixed_seeds_evict_under_pin_and_pinc() {
    let (evictions, pin, pinc) = (0..64)
        .map(run)
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    assert!(evictions >= 500, "only {evictions} evictions");
    assert!(
        pin >= 30 && pinc >= 30,
        "cuts: {pin} under PIN, {pinc} under PINC"
    );
}

proptest! {
    #[test]
    fn entry_table_walks_like_cache_then_window(seed in 0u64..1_000_000) {
        run(seed);
    }
}
