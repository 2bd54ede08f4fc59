//! Differential harness, system layer: every workload cell runs the
//! index-backed pipeline (the default `CandidateSource::LabelIndex`) and
//! the paper-faithful scan-backed pipeline (`CandidateSource::LiveScan`)
//! **side by side** — same dataset, same query stream, same churn — and
//! asserts, per query:
//!
//! * **bit-identical answers** (Theorems 3/6 hold for either candidate
//!   source);
//! * **metrics-compatible candidate counts** — the index-backed
//!   `candidate_size` equals an independently recomputed brute-force
//!   signature sweep of the live store, never exceeds the scan-backed
//!   count, and every cold-cache query tests exactly its candidates;
//! * **identical audit verdicts** after injected corruption.
//!
//! The cells cover the six paper workloads (ZZ/ZU/UU and 0/20/50%),
//! random UA/UR interleavings, injected panics, and budget cancellation.

use gc_core::{
    baseline_execute, CacheModel, CandidateSource, FaultInjector, GcConfig, GraphCachePlus,
    HealthCounter, QueryBudget, QueryOutcome,
};
use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::ChangeOp;
use gc_graph::LabeledGraph;
use gc_subiso::{Algorithm, MethodM, QueryKind};
use gc_workload::{generate_type_a, generate_type_b, TypeAConfig, TypeBConfig, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn config(source: CandidateSource) -> GcConfig {
    GcConfig {
        cache_capacity: 64,
        window_capacity: 8,
        method: MethodM::new(Algorithm::Vf2Plus),
        candidate_source: source,
        ..GcConfig::default()
    }
}

fn pair(dataset: &[LabeledGraph]) -> (GraphCachePlus, GraphCachePlus) {
    (
        GraphCachePlus::new(config(CandidateSource::LabelIndex), dataset.to_vec()),
        GraphCachePlus::new(config(CandidateSource::LiveScan), dataset.to_vec()),
    )
}

/// Brute-force recount of the index's candidate set: live graphs whose
/// maintained signature passes full domination for this query — computed
/// straight off the store, independent of the postings machinery.
fn bruteforce_candidates(gc: &GraphCachePlus, q: &LabeledGraph, kind: QueryKind) -> u64 {
    let qsig = q.signature();
    gc.store()
        .iter_live()
        .filter(|(_, g)| match kind {
            QueryKind::Subgraph => g.signature().dominates(qsig),
            QueryKind::Supergraph => qsig.dominates(g.signature()),
        })
        .count() as u64
}

/// One differential step: run the same query through both pipelines and
/// check answers and candidate accounting.
fn step(
    indexed: &mut GraphCachePlus,
    scanned: &mut GraphCachePlus,
    q: &LabeledGraph,
    kind: QueryKind,
    ctx: &str,
) -> (QueryOutcome, QueryOutcome) {
    let expect_cands = bruteforce_candidates(indexed, q, kind);
    let a = indexed.execute(q, kind, QueryBudget::UNLIMITED);
    let b = scanned.execute(q, kind, QueryBudget::UNLIMITED);
    assert_eq!(a.answer, b.answer, "answer divergence: {ctx}");
    assert_eq!(
        a.metrics.candidate_size, expect_cands,
        "index candidates must equal the brute-force signature sweep: {ctx}"
    );
    assert!(
        a.metrics.candidate_size <= b.metrics.candidate_size,
        "the index can only shrink CS_M: {ctx}"
    );
    (a, b)
}

/// Applies the same random UA/UR-heavy churn to both instances.
fn churn(rng: &mut StdRng, indexed: &mut GraphCachePlus, scanned: &mut GraphCachePlus) {
    let live: Vec<usize> = indexed.store().iter_live().map(|(id, _)| id).collect();
    if live.is_empty() {
        return;
    }
    let id = live[rng.random_range(0..live.len())];
    let op = match rng.random_range(0..8u32) {
        0 => ChangeOp::Add(indexed.store().get(id).unwrap().clone()),
        1 => ChangeOp::Del(id),
        n => {
            let g = indexed.store().get(id).unwrap();
            let edges: Vec<(u32, u32)> = g.edges().collect();
            if n.is_multiple_of(2) && !edges.is_empty() {
                let (u, v) = edges[rng.random_range(0..edges.len())];
                ChangeOp::Ur { id, u, v }
            } else {
                let vcount = g.vertex_count() as u32;
                let missing = (0..vcount)
                    .flat_map(|u| (u + 1..vcount).map(move |v| (u, v)))
                    .find(|&(u, v)| !g.has_edge(u, v));
                match missing {
                    Some((u, v)) => ChangeOp::Ua { id, u, v },
                    None => return,
                }
            }
        }
    };
    indexed.apply(op.clone()).unwrap();
    scanned.apply(op).unwrap();
}

fn six_workloads(dataset: &[LabeledGraph]) -> Vec<Workload> {
    let mut cells = vec![
        generate_type_a(dataset, &TypeAConfig::zz(60, 21)),
        generate_type_a(dataset, &TypeAConfig::zu(60, 22)),
        generate_type_a(dataset, &TypeAConfig::uu(60, 23)),
    ];
    for (i, p) in [0.0, 0.2, 0.5].into_iter().enumerate() {
        cells.push(generate_type_b(
            dataset,
            &TypeBConfig::scaled(60, 12, 4, p, 31 + i as u64),
        ));
    }
    cells
}

#[test]
fn all_six_workloads_agree_under_churn() {
    let dataset = synthetic_aids(&AidsConfig::scaled(70, 5));
    for (w_i, w) in six_workloads(&dataset).iter().enumerate() {
        let (mut indexed, mut scanned) = pair(&dataset);
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ w_i as u64);
        for (i, q) in w.queries.iter().enumerate() {
            // random UA/UR interleavings: ~0.7 ops per query
            if rng.random_range(0..10u32) < 7 {
                churn(&mut rng, &mut indexed, &mut scanned);
            }
            let ctx = format!("workload {} ({}), query {i}", w.name, w_i);
            step(&mut indexed, &mut scanned, q, w.kind, &ctx);
        }
        // the index absorbed every logged op incrementally — no rebuilds
        let idx = indexed.label_index().expect("index-backed pipeline");
        assert_eq!(
            idx.records_replayed(),
            indexed.log_len() as u64,
            "workload {}: replay count must cover the whole log",
            w.name
        );
        // and converged to exactly what a fresh build would produce
        let fresh = gc_dataset::LabelIndex::build(indexed.store(), &gc_dataset::ChangeLog::new());
        assert!(
            indexed
                .label_index()
                .expect("index-backed pipeline")
                .same_structure(&fresh),
            "workload {}: index diverged structurally from a fresh build",
            w.name
        );
    }
}

/// `GcConfig::paper()` scans the whole live set and lets Method M's
/// pre-filter decide what it can; a decided candidate still counts as a
/// test. So however much the signature rejects, the paper's quantities —
/// answers, `candidate_size`, `subiso_tests`, hit lists — are those of the
/// same run with the pre-filter off; only `prefilter_skips` may differ.
#[test]
fn paper_config_counts_do_not_depend_on_the_prefilter() {
    let dataset = synthetic_aids(&AidsConfig::scaled(70, 5));
    let w = generate_type_a(&dataset, &TypeAConfig::zu(60, 22));
    // 60 queries through 16 + 4 slots: replacement runs, so equal eviction
    // counts say the hit attribution feeding it did not move either
    let on = GcConfig {
        cache_capacity: 16,
        window_capacity: 4,
        ..GcConfig::paper(Algorithm::Vf2, CacheModel::Con)
    };
    let off = GcConfig {
        method: on.method.with_prefilter(false),
        ..on
    };
    assert!(on.method.prefilter);
    let mut filtered = GraphCachePlus::new(on, dataset.clone());
    let mut plain = GraphCachePlus::new(off, dataset.clone());
    let mut rng = StdRng::seed_from_u64(0xF165);
    let mut skips = 0;
    for (i, q) in w.queries.iter().enumerate() {
        if rng.random_range(0..10u32) < 3 {
            churn(&mut rng, &mut filtered, &mut plain);
        }
        let a = filtered.execute(q, w.kind, QueryBudget::UNLIMITED);
        let b = plain.execute(q, w.kind, QueryBudget::UNLIMITED);
        assert_eq!(a.answer, b.answer, "query {i}");
        assert_eq!(
            a.metrics.candidate_size,
            filtered.store().live_count() as u64,
            "query {i}: CS_M is the live set"
        );
        assert_eq!(a.metrics.candidate_size, b.metrics.candidate_size);
        assert_eq!(a.metrics.subiso_tests, b.metrics.subiso_tests, "query {i}");
        assert_eq!(a.metrics.hits, b.metrics.hits, "query {i}");
        assert_eq!(b.metrics.prefilter_skips, 0);
        skips += a.metrics.prefilter_skips;
    }
    assert!(skips > 0, "the pre-filter decided some candidates");
    assert!(filtered.evictions() > 0);
    assert_eq!(filtered.evictions(), plain.evictions());
}

#[test]
fn audit_verdicts_are_identical_after_injected_corruption() {
    let dataset = synthetic_aids(&AidsConfig::scaled(50, 9));
    let w = generate_type_a(&dataset, &TypeAConfig::zu(20, 5));
    let (mut indexed, mut scanned) = pair(&dataset);
    for q in &w.queries {
        step(&mut indexed, &mut scanned, q, w.kind, "audit warmup");
    }
    // identical corruption against both caches: flip graph 0's answer bit
    // in the first resident entry right after the next update commits
    for gc in [&mut indexed, &mut scanned] {
        gc.set_fault_injector(Arc::new(FaultInjector::new("corrupt@1:0".parse().unwrap())));
        gc.apply(ChangeOp::Add(dataset[1].clone())).unwrap();
    }
    let ra = indexed.audit(1.0, 77);
    let rb = scanned.audit(1.0, 77);
    assert_eq!(ra.sampled, rb.sampled, "same entries under audit");
    assert_eq!(ra.repaired, rb.repaired, "same corruption found and fixed");
    assert_eq!(ra.clean, rb.clean);
    assert!(ra.repaired >= 1, "the injected corruption was caught");
    assert_eq!(indexed.quarantined_entries(), 0);
    assert_eq!(scanned.quarantined_entries(), 0);
    // post-audit both serve the oracle answer again
    for q in w.queries.iter().take(5) {
        step(&mut indexed, &mut scanned, q, w.kind, "post-audit");
    }
}

#[test]
fn injected_panics_recover_identically() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let dataset = synthetic_aids(&AidsConfig::scaled(40, 13));
    let w = generate_type_a(&dataset, &TypeAConfig::uu(15, 6));
    let (mut indexed, mut scanned) = pair(&dataset);
    let plan = "panic-query@2;panic-query@7;panic-query@11";
    indexed.set_fault_injector(Arc::new(FaultInjector::new(plan.parse().unwrap())));
    scanned.set_fault_injector(Arc::new(FaultInjector::new(plan.parse().unwrap())));
    let oracle_method = MethodM::new(Algorithm::Vf2);
    for (i, q) in w.queries.iter().enumerate() {
        let a = indexed.execute(q, w.kind, QueryBudget::UNLIMITED);
        let b = scanned.execute(q, w.kind, QueryBudget::UNLIMITED);
        assert_eq!(a.answer, b.answer, "query {i} under panic plan");
        let truth = baseline_execute(indexed.store(), &oracle_method, q, w.kind);
        assert_eq!(a.answer, truth.answer, "query {i} still exact");
    }
    std::panic::set_hook(prev);
    assert_eq!(
        indexed
            .health_snapshot()
            .get(HealthCounter::PanicsRecovered),
        scanned
            .health_snapshot()
            .get(HealthCounter::PanicsRecovered),
        "both pipelines contained the same number of panics"
    );
    assert!(
        indexed
            .health_snapshot()
            .get(HealthCounter::PanicsRecovered)
            >= 1
    );
}

#[test]
fn budget_cancellation_degrades_identically_soundly() {
    let dataset = synthetic_aids(&AidsConfig::scaled(60, 17));
    let w = generate_type_a(&dataset, &TypeAConfig::zz(20, 7));
    // zero-capacity caches: no probes charge the budget and no admissions
    // diverge, so the two pipelines differ *only* in their candidate source
    let zero = |source| GcConfig {
        cache_capacity: 0,
        window_capacity: 0,
        ..config(source)
    };
    let mut indexed = GraphCachePlus::new(zero(CandidateSource::LabelIndex), dataset.clone());
    let mut scanned = GraphCachePlus::new(zero(CandidateSource::LiveScan), dataset.clone());
    let tight = QueryBudget {
        deadline: None,
        max_tests: Some(3),
    };
    let oracle_method = MethodM::new(Algorithm::Vf2);
    for (i, q) in w.queries.iter().enumerate() {
        let a = indexed.execute(q, w.kind, tight);
        let b = scanned.execute(q, w.kind, tight);
        let truth = baseline_execute(indexed.store(), &oracle_method, q, w.kind);
        // partial answers are sound on both sides
        assert!(a.answer.is_subset_of(&truth.answer), "query {i} indexed");
        assert!(b.answer.is_subset_of(&truth.answer), "query {i} scanned");
        // when neither side degraded, they must agree exactly
        if a.metrics.degraded.is_none() && b.metrics.degraded.is_none() {
            assert_eq!(a.answer, b.answer, "query {i} undegraded divergence");
            assert_eq!(a.answer, truth.answer);
        }
        // the index can only make a budget *easier* to satisfy: if the
        // scan-backed side finished, the index-backed side (fewer or
        // equal candidates) must have finished too
        if b.metrics.degraded.is_none() {
            assert!(
                a.metrics.degraded.is_none(),
                "query {i}: index-backed degraded where scan-backed did not"
            );
        }
    }
    assert!(
        indexed.aggregate_metrics().degraded_queries
            <= scanned.aggregate_metrics().degraded_queries,
        "index-backed pipeline degrades at most as often as scan-backed"
    );
}
