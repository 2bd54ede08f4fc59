//! GC+ against its literal model (`model/mod.rs`), step by step.
//!
//! Seeded streams of up to 300 steps over datasets of up to 60 small
//! labelled graphs: subgraph and supergraph queries drawn from a pool of
//! extractions (now and then renumbered, so a twin must be found by a
//! search) plus a 6-ring and a 6-path of one label (whose signatures are
//! equal), UA, UR (now and then a burst longer than the live set), ADD,
//! DEL, audits and quarantines. Each stream runs
//! under one of the three cache models, one of the two candidate sources
//! and one of the two maintenance modes, with small cache and window
//! capacities so that flushes evict. After every step the real pipeline
//! and the model must agree on:
//!
//! * the answer, and every count a query reports (tests, pre-filter skips,
//!   tests saved, `|CS_M|`, the hit breakdown, the maintenance tally);
//! * what an update returned, an audit's report and a quarantine's count;
//! * evictions and occupancy;
//! * the entry table in walk order: graph, kind, answer, validity,
//!   quarantine flag and statistics (`R`, `C`, insertion stamp).
//!
//! Every answer is also checked against cache-less Method M, so the model
//! cannot agree with the pipeline on a wrong answer.

use std::collections::BTreeSet;

use gc_core::{
    baseline_execute, CacheModel, CandidateSource, GcConfig, GraphCachePlus, MaintenanceMode,
    QueryBudget,
};
use gc_dataset::ChangeOp;
use gc_graph::generate::{bfs_extract, permute, random_connected_graph};
use gc_graph::LabeledGraph;
use gc_subiso::QueryKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod model;
use model::{Counts, Model, View};

/// What the fixed seeds exercised, for the non-vacuity floors.
#[derive(Debug, Default)]
struct Tally {
    queries: u64,
    exact_shortcuts: u64,
    empty_shortcuts: u64,
    direct_hits: u64,
    exclusion_hits: u64,
    evictions: u64,
    repairs: u64,
    fallbacks: u64,
    kept_then_used: u64,
    quarantined: u64,
    audited: u64,
}

fn random_graph(rng: &mut StdRng, max_n: usize) -> LabeledGraph {
    let n = rng.random_range(3..=max_n);
    let extra = rng.random_range(0..3usize);
    random_connected_graph(rng, n, extra, |r| r.random_range(0..3u16))
}

/// A path of `n` vertices of label 0.
fn path(n: u32) -> LabeledGraph {
    let edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
    LabeledGraph::from_parts(vec![0; n as usize], &edges).unwrap()
}

/// A ring of `n` vertices of label 0.
fn ring(n: u32) -> LabeledGraph {
    let mut edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
    edges.push((0, n - 1));
    LabeledGraph::from_parts(vec![0; n as usize], &edges).unwrap()
}

/// Extractions from the data, so that queries have answers and contain
/// one another.
fn query_pool(rng: &mut StdRng, data: &[LabeledGraph]) -> Vec<LabeledGraph> {
    let mut pool = Vec::new();
    while pool.len() < 10 {
        let src = &data[rng.random_range(0..data.len())];
        let start = rng.random_range(0..src.vertex_count() as u32);
        let want = rng.random_range(1..=src.edge_count().min(4));
        if let Some(q) = bfs_extract(rng, src, start, want) {
            pool.push(q);
        }
    }
    pool
}

/// A UA of a missing edge or a UR of a present one on a live graph.
fn edge_op(rng: &mut StdRng, gc: &GraphCachePlus) -> Option<ChangeOp> {
    let live: Vec<usize> = gc.store().iter_live().map(|(id, _)| id).collect();
    let id = live[rng.random_range(0..live.len())];
    let g = gc.store().get(id)?;
    let n = g.vertex_count() as u32;
    let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
    if u == v {
        return None;
    }
    Some(if g.has_edge(u, v) {
        ChangeOp::Ur { id, u, v }
    } else {
        ChangeOp::Ua { id, u, v }
    })
}

fn config(rng: &mut StdRng, arm: usize) -> GcConfig {
    GcConfig {
        model: [CacheModel::Evi, CacheModel::Con, CacheModel::ConRetro][arm % 3],
        candidate_source: [CandidateSource::LabelIndex, CandidateSource::LiveScan][arm / 3 % 2],
        maintenance: [MaintenanceMode::Repair, MaintenanceMode::Invalidate][arm / 6 % 2],
        cache_capacity: rng.random_range(1..7),
        window_capacity: rng.random_range(1..4),
        ..GcConfig::default()
    }
}

/// Compares the two entry tables, evictions and occupancy.
fn same_table(gc: &GraphCachePlus, model: &Model, ctx: &str) {
    let real: Vec<View> = gc.entries().iter().map(View::of_real).collect();
    let want: Vec<View> = model.table.entries.iter().map(View::of_model).collect();
    assert_eq!(real, want, "{ctx}: entry table");
    assert_eq!(gc.evictions(), model.table.evictions, "{ctx}: evictions");
    assert_eq!(gc.occupancy(), model.table.occupancy(), "{ctx}: occupancy");
}

/// Replays one seeded stream of `ops` operations under configuration arm
/// `arm` (model, candidate source, maintenance mode).
fn run(seed: u64, arm: usize, ops: usize) -> Tally {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = config(&mut rng, arm);
    let mut data: Vec<LabeledGraph> = (0..rng.random_range(8..=40))
        .map(|_| random_graph(&mut rng, 7))
        .collect();
    let mut pool = query_pool(&mut rng, &data);
    // a 6-path shares its histogram and fingerprint with the 6-ring it
    // embeds in: only the edge count tells that the ring is no twin
    data.extend([ring(6), path(7)]);
    pool.extend([ring(6), path(6)]);
    let mut gc = GraphCachePlus::new(config, data.clone());
    let mut model = Model::new(&config, data.clone());
    let mut tally = Tally::default();
    for step in 0..ops {
        let ctx = format!("seed {seed} arm {arm} step {step}");
        match rng.random_range(0..20u32) {
            10..=13 => {
                // now and then a burst longer than the live set, which
                // the log's window must not forget before maintenance
                // reads it
                let burst = rng.random_bool(0.05);
                let len = if burst {
                    gc.store().live_count() + 2
                } else {
                    1
                };
                for _ in 0..len {
                    if let Some(op) = edge_op(&mut rng, &gc) {
                        let got = gc.apply(op.clone()).ok();
                        assert_eq!(got, model.apply(&op), "{ctx}: {op:?}");
                    }
                }
            }
            14 if gc.store().id_span() < 60 => {
                let op = ChangeOp::Add(data[rng.random_range(0..data.len())].clone());
                assert_eq!(gc.apply(op.clone()).ok(), model.apply(&op), "{ctx}: ADD");
            }
            15 if gc.store().live_count() > 4 => {
                let live: Vec<usize> = gc.store().iter_live().map(|(id, _)| id).collect();
                let op = ChangeOp::Del(live[rng.random_range(0..live.len())]);
                assert_eq!(gc.apply(op.clone()).ok(), model.apply(&op), "{ctx}: {op:?}");
            }
            16 => {
                let rate = [0.0, 0.3, 1.0][rng.random_range(0..3usize)];
                let audit_seed = rng.random();
                let report = gc.audit(rate, audit_seed);
                let got = (report.sampled, report.clean, report.repaired);
                assert_eq!(got, model.audit(rate, audit_seed), "{ctx}: audit");
                tally.audited += report.sampled as u64;
            }
            17 => {
                let q = &pool[rng.random_range(0..pool.len())];
                let kind = random_kind(&mut rng);
                let n = gc.quarantine_related(q, kind);
                assert_eq!(n, model.quarantine_related(q, kind), "{ctx}: quarantine");
                tally.quarantined += n as u64;
            }
            _ => {
                let src = &pool[rng.random_range(0..pool.len())];
                let q = if rng.random_bool(0.2) {
                    permute(&mut rng, src)
                } else {
                    src.clone()
                };
                let kind = random_kind(&mut rng);
                let out = gc.execute(&q, kind, QueryBudget::UNLIMITED);
                let (answer, counts) = model.query(&q, kind);
                let got: BTreeSet<usize> = out.answer.iter_ones().collect();
                assert_eq!(got, answer, "{ctx}: answer of {kind:?} {q:?}");
                assert_eq!(Counts::of_real(&out.metrics), counts, "{ctx}: counts");
                let oracle = baseline_execute(gc.store(), &gc.config().method, &q, kind);
                assert_eq!(out.answer, oracle.answer, "{ctx}: Method M");
                let h = &counts.hits;
                tally.queries += 1;
                tally.exact_shortcuts += u64::from(h.exact_shortcut);
                tally.empty_shortcuts += u64::from(h.empty_shortcut);
                tally.direct_hits += u64::from(h.direct_hits);
                tally.exclusion_hits += u64::from(h.exclusion_hits);
                tally.repairs += counts.repairs_applied;
                tally.fallbacks += counts.repair_fallbacks;
                tally.kept_then_used += counts.tests_saved;
            }
        }
        same_table(&gc, &model, &ctx);
    }
    tally.evictions = gc.evictions();
    tally
}

fn random_kind(rng: &mut StdRng) -> QueryKind {
    if rng.random_bool(0.7) {
        QueryKind::Subgraph
    } else {
        QueryKind::Supergraph
    }
}

/// Every arm on fixed seeds, with floors on what the streams exercised:
/// both shortcuts, both hit kinds, evictions, repairs and their
/// fallbacks, quarantines and audits (measured over these twelve streams:
/// 2,167 queries, 220 exact and 19 empty shortcuts, 709 direct and 617
/// exclusion hits, 1,335 evictions, 29 repairs, 156 fallbacks, 107
/// quarantined and 278 audited entries).
#[test]
fn the_pipeline_equals_the_literal_model_on_fixed_seeds() {
    let mut total = Tally::default();
    for arm in 0..12 {
        let t = run(arm as u64, arm, 300);
        total.queries += t.queries;
        total.exact_shortcuts += t.exact_shortcuts;
        total.empty_shortcuts += t.empty_shortcuts;
        total.direct_hits += t.direct_hits;
        total.exclusion_hits += t.exclusion_hits;
        total.evictions += t.evictions;
        total.repairs += t.repairs;
        total.fallbacks += t.fallbacks;
        total.kept_then_used += t.kept_then_used;
        total.quarantined += t.quarantined;
        total.audited += t.audited;
    }
    let t = &total;
    assert!(
        t.exact_shortcuts > 100 && t.empty_shortcuts > 5 && t.direct_hits > 100,
        "{t:?}"
    );
    assert!(t.exclusion_hits > 100 && t.evictions > 100, "{t:?}");
    assert!(t.repairs > 5 && t.fallbacks > 5, "{t:?}");
    assert!(t.quarantined > 10 && t.audited > 100, "{t:?}");
}

proptest! {
    #[test]
    fn the_pipeline_equals_the_literal_model(seed in 0u64..1_000_000, arm in 0usize..12) {
        run(seed, arm, 120);
    }
}
