//! A GC+ with neither cache nor window is Method M without the cache: the
//! reproduction's `base` and `index-only` arms run as such GC+s. On seeded
//! UA / UR / ADD / DEL streams over synthetic AIDS graphs, under each cache
//! model and both candidate sources, every query of a GC+ with
//! `cache_capacity: 0, window_capacity: 0` must equal, in answer,
//! `subiso_tests`, `prefilter_skips` and `candidate_size`:
//!
//! * under the live scan, `baseline_execute` (Method M over the live set,
//!   its pre-filter on);
//! * under the label index, Method M with its pre-filter off over a freshly
//!   built `LabelIndex`'s candidates;
//!
//! and admit nothing: occupancy `(0, 0)`, no hit of any kind and no
//! eviction, after every query.

use gc_core::{
    baseline_execute, CacheModel, CandidateSource, GcConfig, GraphCachePlus, HitBreakdown,
    QueryBudget,
};
use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::{ChangeLog, ChangeOp, GraphStore, LabelIndex, OpType};
use gc_graph::generate::bfs_extract;
use gc_graph::LabeledGraph;
use gc_subiso::QueryKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the fixed seeds exercised, for the non-vacuity floors.
#[derive(Debug, Default)]
struct Tally {
    /// Applied changes, by [`OpType::ALL`] position.
    ops: [u64; 4],
    queries: u64,
    supergraph_queries: u64,
    tests: u64,
    prefilter_skips: u64,
}

/// One change of a uniformly drawn type that applies to the store as it
/// is: ADD (a copy of an initial graph), DEL (while more than 20 graphs
/// live), UA of a missing edge or UR of a present one. `None` when the
/// drawn graph has no such edge.
fn random_change(rng: &mut StdRng, store: &GraphStore, seeds: &[LabeledGraph]) -> Option<ChangeOp> {
    let live: Vec<usize> = store.iter_live().map(|(id, _)| id).collect();
    let id = live[rng.random_range(0..live.len())];
    let g = store.get(id).expect("live");
    let n = g.vertex_count() as u32;
    let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
    let (present, missing): (Vec<_>, Vec<_>) = pairs.partition(|&(u, v)| g.has_edge(u, v));
    let edge = |rng: &mut StdRng, edges: &[(u32, u32)]| {
        (!edges.is_empty()).then(|| edges[rng.random_range(0..edges.len())])
    };
    match OpType::ALL[rng.random_range(0..4usize)] {
        OpType::Add => Some(ChangeOp::Add(
            seeds[rng.random_range(0..seeds.len())].clone(),
        )),
        OpType::Del => (live.len() > 20).then_some(ChangeOp::Del(id)),
        OpType::Ua => edge(rng, &missing).map(|(u, v)| ChangeOp::Ua { id, u, v }),
        OpType::Ur => edge(rng, &present).map(|(u, v)| ChangeOp::Ur { id, u, v }),
    }
}

/// A query against the store as it is: a subgraph query extracted from a
/// live graph (1–8 edges), or, one time in four, a supergraph query that
/// is a live graph itself.
fn random_query(rng: &mut StdRng, store: &GraphStore) -> (LabeledGraph, QueryKind) {
    let live: Vec<&LabeledGraph> = store.iter_live().map(|(_, g)| g).collect();
    loop {
        let src = live[rng.random_range(0..live.len())];
        if rng.random_range(0..4u32) == 0 {
            return (src.clone(), QueryKind::Supergraph);
        }
        if src.edge_count() == 0 {
            continue;
        }
        let start = rng.random_range(0..src.vertex_count() as u32);
        let want = rng.random_range(1..=src.edge_count().min(8));
        if let Some(q) = bfs_extract(rng, src, start, want) {
            return (q, QueryKind::Subgraph);
        }
    }
}

/// Replays one seeded stream through a zero-capacity GC+ under `model`
/// and `source`, checking every query against the cache-less oracle.
fn run(seed: u64, model: CacheModel, source: CandidateSource, tally: &mut Tally) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = synthetic_aids(&AidsConfig::scaled(60, seed));
    let config = GcConfig {
        model,
        candidate_source: source,
        cache_capacity: 0,
        window_capacity: 0,
        ..GcConfig::default()
    };
    let mut gc = GraphCachePlus::new(config, data.clone());
    for step in 0..60 {
        if rng.random_bool(0.5) {
            for _ in 0..rng.random_range(1..=4u32) {
                if let Some(op) = random_change(&mut rng, gc.store(), &data) {
                    tally.ops[OpType::ALL.iter().position(|&t| t == op.op_type()).unwrap()] += 1;
                    gc.apply(op).unwrap();
                }
            }
        }
        let (q, kind) = random_query(&mut rng, gc.store());
        let out = gc.execute(&q, kind, QueryBudget::UNLIMITED);
        let m = &out.metrics;
        let ctx = format!("seed {seed} {model} {} step {step} {kind:?}", source.name());

        let method = &gc.config().method;
        // the oracle's answer, tests, pre-filter skips and |CS_M|
        let (answer, counts) = match source {
            CandidateSource::LiveScan => {
                let o = baseline_execute(gc.store(), method, &q, kind);
                let m = o.metrics;
                (
                    o.answer,
                    [m.subiso_tests, m.prefilter_skips, m.candidate_size],
                )
            }
            CandidateSource::LabelIndex => {
                let fresh = LabelIndex::build(gc.store(), &ChangeLog::new());
                let csm = fresh.candidates(&q, kind);
                let r = method.with_prefilter(false).run(&q, kind, gc.store(), &csm);
                (
                    r.answer,
                    [r.tests, r.prefilter_skips, csm.count_ones() as u64],
                )
            }
        };
        assert_eq!(out.answer, answer, "{ctx}");
        let got = [m.subiso_tests, m.prefilter_skips, m.candidate_size];
        assert_eq!(got, counts, "{ctx}: tests, skips, |CS_M|");
        assert!(m.degraded.is_none(), "{ctx}");
        assert_eq!(m.hits, HitBreakdown::default(), "{ctx}");
        assert_eq!(gc.occupancy(), (0, 0), "{ctx}");
        assert_eq!(gc.evictions(), 0, "{ctx}");

        tally.queries += 1;
        tally.supergraph_queries += u64::from(kind == QueryKind::Supergraph);
        tally.tests += m.subiso_tests;
        tally.prefilter_skips += m.prefilter_skips;
    }
}

#[test]
fn a_gc_without_cache_or_window_is_method_m() {
    let mut scan = Tally::default();
    let mut index = Tally::default();
    for seed in 0..3 {
        for model in [CacheModel::Evi, CacheModel::Con, CacheModel::ConRetro] {
            run(seed, model, CandidateSource::LiveScan, &mut scan);
            run(seed, model, CandidateSource::LabelIndex, &mut index);
        }
    }
    for (name, t) in [("live scan", &scan), ("label index", &index)] {
        assert_eq!(t.queries, 3 * 3 * 60, "{name}");
        assert_eq!(t.ops, [144, 159, 174, 153], "{name}: ADD, DEL, UA, UR");
        assert_eq!(t.supergraph_queries, 141, "{name}");
    }
    // Method M's counts over these streams: the live scan's pre-filter
    // decides most candidates; the index's lookup already applied it, so
    // the scan after it skips nothing
    assert_eq!((scan.tests, scan.prefilter_skips), (31_536, 24_351));
    assert_eq!((index.tests, index.prefilter_skips), (7_185, 0));
}
