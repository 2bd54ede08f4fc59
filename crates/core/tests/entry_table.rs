//! The entry table's walk order against the literal model's table.
//!
//! The order is observable (the first twin is the exact hit, the first
//! qualifying exclusion hit takes the empty-result credit, a test cap
//! refuses the last probes, the auditor draws its coin per entry,
//! `corrupt@N:b` flips position 0). So random admit / credit / quarantine
//! / clear sequences over random capacities must leave [`Entries`] in
//! exactly the order, quarantine flags, occupancy and eviction count of
//! `model::Table`: one `Vec`, cache then window, with HD written out from
//! the paper at each flush (`model_diff.rs` compares the same table inside
//! the whole pipeline).

use std::collections::BTreeSet;

use gc_core::entries::Entries;
use gc_core::entry::CachedQuery;
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::QueryKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod model;
use model::{Entry, Table};

/// Each entry's id and quarantine flag, in walk order.
fn walk<'a>(entries: impl IntoIterator<Item = (&'a LabeledGraph, bool)>) -> Vec<(u16, bool)> {
    (entries.into_iter())
        .map(|(graph, quarantined)| (graph.label(0), quarantined))
        .collect()
}

/// Replays one seeded sequence against both, comparing after every step.
/// Returns the evictions and the cuts HD made under PIN and under PINC,
/// for the non-vacuity check.
fn run(seed: u64) -> (u64, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cache_cap, window_cap) = (rng.random_range(0..7), rng.random_range(0..5));
    let mut table = Entries::new(cache_cap, window_cap);
    let mut model = Table::new(cache_cap, window_cap);
    for (step, id) in (0..80u16).enumerate() {
        match rng.random_range(0..20u32) {
            0..=11 => {
                // small random statistics, so both HD arms see ties
                let graph = LabeledGraph::from_parts(vec![id], &[]).unwrap();
                let at = rng.random_range(0..6);
                let mut e =
                    CachedQuery::new(graph.clone(), QueryKind::Subgraph, BitSet::new(), 0, at);
                let mut m = Entry::new(graph, QueryKind::Subgraph, BTreeSet::new(), 0, at);
                e.stats.tests_saved = rng.random_range(0..4);
                e.stats.cost_saved = f64::from(rng.random_range(0..4u8));
                (m.tests_saved, m.cost_saved) = (e.stats.tests_saved, e.stats.cost_saved);
                table.admit(e);
                model.admit(m);
            }
            12..=14 if !table.is_empty() => {
                let (pos, tests) = (rng.random_range(0..table.len()), rng.random_range(1..5));
                table[pos].credit(tests, tests as f64);
                model.entries[pos].credit(tests, tests as f64);
            }
            15..=18 => {
                for pos in 0..table.len() {
                    let q = rng.random_bool(0.3);
                    table[pos].quarantined = q;
                    model.entries[pos].quarantined = q;
                }
            }
            19 => {
                table.clear();
                model.clear();
            }
            _ => {}
        }
        let want = (
            walk(model.entries.iter().map(|e| (&e.graph, e.quarantined))),
            model.occupancy(),
            model.evictions,
        );
        let got = (
            walk(table.iter().map(|e| (e.graph(), e.quarantined))),
            table.occupancy(),
            table.evictions(),
        );
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
