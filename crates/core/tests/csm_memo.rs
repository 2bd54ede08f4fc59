//! Differential for the per-entry `CS_M` memo (`CachedQuery::csm`): an
//! exact twin's memo, patched from the change log when stale, stands in
//! for the label-index lookup. Seeded streams of repeated queries of both
//! kinds run with UA / UR / ADD / DEL through `apply`, one at a time or
//! in bulk batches, in between. After every query:
//!
//! * `candidate_size` equals the count of a freshly built index's
//!   candidate set, and the answer equals cache-less `baseline_execute`'s;
//! * the memo served `CS_M` exactly when it should have: on an exact hit
//!   whose twin's memo is at most one pending log record per live graph
//!   behind the head, and never otherwise. The change log forgets records
//!   on these streams, so this is also the check that it never forgets a
//!   record a memo could still be patched from;
//! * the log holds fewer than 2 records per live graph plus the records
//!   since the previous query.
//!
//! In debug builds the pipeline also compares every memo it uses with a
//! fresh lookup (`debug_assert_eq!`), so every debug test run doubles as
//! this check.

use std::collections::{HashMap, HashSet};

use gc_core::{
    baseline_execute, CacheModel, CandidateSource, GcConfig, GraphCachePlus, QueryBudget,
};
use gc_dataset::{ChangeLog, ChangeOp, GraphStore, LabelIndex};
use gc_graph::generate::{bfs_extract, random_connected_graph};
use gc_graph::{canonical_form, LabeledGraph};
use gc_subiso::QueryKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many queries the memo served, split by whether it was current at
/// the log head or had to be patched first.
#[derive(Debug, Default, PartialEq, Eq)]
struct MemoUse {
    current: u64,
    patched: u64,
}

fn dataset(rng: &mut StdRng) -> Vec<LabeledGraph> {
    (0..30)
        .map(|_| {
            let v = rng.random_range(4..10usize);
            let extra = rng.random_range(0..v);
            random_connected_graph(rng, v, extra, |r| r.random_range(0..3u16))
        })
        .collect()
}

/// Up to eight pairwise non-isomorphic queries extracted from the data.
/// One query per isomorphism class means a twin's memo is only ever
/// written by executions of that one query.
fn query_pool(rng: &mut StdRng, data: &[LabeledGraph]) -> Vec<LabeledGraph> {
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for _ in 0..40 {
        let src = &data[rng.random_range(0..data.len())];
        let start = rng.random_range(0..src.vertex_count() as u32);
        let want = rng.random_range(1..=src.edge_count().min(4));
        if let Some(q) = bfs_extract(rng, src, start, want) {
            if seen.insert(canonical_form(&q)) {
                pool.push(q);
            }
        }
        if pool.len() == 8 {
            break;
        }
    }
    pool
}

/// A change that applies to the store as it is: ADD (a copy of a seed
/// graph), DEL (while more than ten graphs live), UA of a missing edge or
/// UR of a present one.
fn random_change(rng: &mut StdRng, store: &GraphStore, seeds: &[LabeledGraph]) -> ChangeOp {
    let live: Vec<usize> = store.iter_live().map(|(id, _)| id).collect();
    let id = live[rng.random_range(0..live.len())];
    let g = store.get(id).expect("live");
    let n = g.vertex_count() as u32;
    let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
    let (present, missing): (Vec<_>, Vec<_>) = pairs.partition(|&(u, v)| g.has_edge(u, v));
    match rng.random_range(0..10u32) {
        0 => ChangeOp::Add(seeds[rng.random_range(0..seeds.len())].clone()),
        1 if live.len() > 10 => ChangeOp::Del(id),
        2..=5 if !missing.is_empty() => {
            let (u, v) = missing[rng.random_range(0..missing.len())];
            ChangeOp::Ua { id, u, v }
        }
        _ if !present.is_empty() => {
            let (u, v) = present[rng.random_range(0..present.len())];
            ChangeOp::Ur { id, u, v }
        }
        _ => ChangeOp::Add(seeds[0].clone()),
    }
}

/// Replays one seeded stream against `config` and checks every query.
/// Returns how the memo was used (under a live-scan source it never is)
/// and whether the change log forgot any record.
fn run(seed: u64, config: GcConfig) -> (MemoUse, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = dataset(&mut rng);
    let pool = query_pool(&mut rng, &data);
    let index_backed = config.candidate_source == CandidateSource::LabelIndex;
    let mut gc = GraphCachePlus::new(config, data.clone());
    // log length at each (query, kind)'s last execution: the cursor its
    // twin's memo was stored at
    let mut stored_at: HashMap<(usize, QueryKind), usize> = HashMap::new();
    let mut used = MemoUse::default();
    let mut last_head = 0;
    for step in 0..80 {
        match rng.random_range(0..10u32) {
            0..=2 => {
                let op = random_change(&mut rng, gc.store(), &data);
                gc.apply(op).unwrap();
            }
            3 => {
                // a bulk batch, now and then longer than the live set, so
                // the memo must fall back to a fresh lookup
                let len = if rng.random_bool(0.3) { 40 } else { 3 };
                for _ in 0..len {
                    let op = random_change(&mut rng, gc.store(), &data);
                    gc.apply(op).unwrap();
                }
            }
            _ => {}
        }
        let qi = rng.random_range(0..pool.len());
        let q = &pool[qi];
        let kind = if rng.random_range(0..4u32) == 0 {
            QueryKind::Supergraph
        } else {
            QueryKind::Subgraph
        };
        let head = gc.log_len();
        let live = gc.store().live_count();
        let out = gc.execute(q, kind, QueryBudget::UNLIMITED);
        let m = &out.metrics;
        let ctx = format!("seed {seed} step {step} query {qi} {kind:?}");

        let fresh = LabelIndex::build(gc.store(), &ChangeLog::new());
        let want_size = if index_backed {
            fresh.candidates(q, kind).count_ones()
        } else {
            gc.store().live_count()
        };
        assert_eq!(m.candidate_size, want_size as u64, "{ctx}");
        let oracle = baseline_execute(gc.store(), &gc.config().method, q, kind);
        assert_eq!(out.answer, oracle.answer, "{ctx}");
        assert!(m.degraded.is_none(), "{ctx}");
        assert!(
            gc.log_retained() < 2 * live + (head - last_head),
            "{ctx}: {} records retained",
            gc.log_retained()
        );
        last_head = head;

        let pending = stored_at.insert((qi, kind), head).map(|at| head - at);
        let memo_expected =
            index_backed && m.hits.exact_match && pending.is_some_and(|p| p <= live);
        assert_eq!(m.csm_from_memo, memo_expected, "{ctx}, {pending:?} pending");
        if m.csm_from_memo {
            if pending == Some(0) {
                used.current += 1;
            } else {
                used.patched += 1;
            }
        }
    }
    assert_eq!(
        gc.aggregate_metrics().csm_memo_hits,
        used.current + used.patched
    );
    (used, gc.log_retained() < gc.log_len())
}

fn small(model: CacheModel) -> GcConfig {
    GcConfig {
        model,
        cache_capacity: 6,
        window_capacity: 3,
        ..GcConfig::default()
    }
}

/// Non-vacuity and a pin: on fixed seeds the memo serves both current and
/// patched hits under every cache model that keeps entries across
/// changes, exactly as often as before the change log forgot anything,
/// and never serves under the paper's live scan.
#[test]
fn memo_serves_current_and_patched_hits() {
    let mut total = MemoUse::default();
    let mut forgetting_runs = 0;
    for seed in 0..8 {
        for model in [CacheModel::Con, CacheModel::ConRetro] {
            let (used, forgot) = run(seed, small(model));
            total.current += used.current;
            total.patched += used.patched;
            forgetting_runs += usize::from(forgot);
        }
    }
    assert!(forgetting_runs > 0, "the log never forgot a record");
    // pinned: only a change to when a memo is kept or trusted moves these
    assert_eq!(
        total,
        MemoUse {
            current: 129,
            patched: 472
        }
    );
    let (evi, _) = run(0, small(CacheModel::Evi));
    assert_eq!(
        evi.patched, 0,
        "EVI purges every entry a change could stale"
    );
    let paper = GcConfig::paper(gc_subiso::Algorithm::Vf2, CacheModel::Con);
    assert_eq!(run(0, paper).0, MemoUse::default());
}

proptest! {
    #[test]
    fn memo_matches_a_fresh_index(seed in 0u64..1_000_000, model in 0u8..3) {
        let model = [CacheModel::Evi, CacheModel::Con, CacheModel::ConRetro][model as usize];
        run(seed, small(model));
    }
}
