//! Property tests for the failure model: under random change sequences
//! interleaved with *injected worker panics*, *silent corruption* and
//! *mid-stream budget cancellations*, every answer GC+ returns is either
//! exactly the cache-less oracle answer or an explicitly degraded sound
//! subset of it — and the auditor always drains the quarantine.

use std::sync::Arc;

use gc_core::{
    baseline_execute, FaultInjector, FaultPlan, GcConfig, GraphCachePlus, HealthCounter,
    QueryBudget,
};
use gc_dataset::ChangeOp;
use gc_graph::generate::{bfs_extract, random_connected_graph};
use gc_graph::LabeledGraph;
use gc_subiso::{Algorithm, MethodM, QueryKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Suppresses the default panic banner for injected faults only; genuine
/// panics still print. Installed once per test binary.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Draws one applicable change op against the live store (UA/UR-heavy, as
/// edge updates are the operations the validity machinery sweats over).
fn random_change_op(rng: &mut StdRng, gc: &GraphCachePlus) -> Option<ChangeOp> {
    let store = gc.store();
    let live: Vec<usize> = store.iter_live().map(|(i, _)| i).collect();
    match rng.random_range(0..6u8) {
        0 => {
            let n = rng.random_range(3..8usize);
            Some(ChangeOp::Add(random_connected_graph(rng, n, 1, |r| {
                r.random_range(0..3u16)
            })))
        }
        1 => {
            if live.is_empty() {
                None
            } else {
                Some(ChangeOp::Del(live[rng.random_range(0..live.len())]))
            }
        }
        2 | 3 => {
            // UA: add an absent edge to a live graph
            for _ in 0..8 {
                if live.is_empty() {
                    return None;
                }
                let id = live[rng.random_range(0..live.len())];
                let g = store.get(id).expect("live");
                let n = g.vertex_count() as u32;
                if n < 2 {
                    continue;
                }
                let u = rng.random_range(0..n);
                let v = rng.random_range(0..n);
                if u != v && !g.has_edge(u, v) {
                    return Some(ChangeOp::Ua { id, u, v });
                }
            }
            None
        }
        _ => {
            // UR: remove a present edge from a live graph
            for _ in 0..8 {
                if live.is_empty() {
                    return None;
                }
                let id = live[rng.random_range(0..live.len())];
                let g = store.get(id).expect("live");
                let edges: Vec<_> = g.edges().collect();
                if edges.is_empty() {
                    continue;
                }
                let (u, v) = edges[rng.random_range(0..edges.len())];
                return Some(ChangeOp::Ur { id, u, v });
            }
            None
        }
    }
}

/// Draws a query: usually extracted from a live graph, sometimes random.
fn random_query(rng: &mut StdRng, gc: &GraphCachePlus) -> LabeledGraph {
    let store = gc.store();
    let live: Vec<usize> = store.iter_live().map(|(i, _)| i).collect();
    if !live.is_empty() && rng.random::<f64>() < 0.6 {
        let id = live[rng.random_range(0..live.len())];
        let g = store.get(id).expect("live");
        if g.edge_count() > 0 {
            let start = rng.random_range(0..g.vertex_count() as u32);
            let want = rng.random_range(1..=g.edge_count().min(5));
            if let Some(q) = bfs_extract(rng, g, start, want) {
                return q;
            }
        }
    }
    let n = rng.random_range(2..5usize);
    random_connected_graph(rng, n, 1, |r| r.random_range(0..3u16))
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The chaos soundness property: with panics injected into the update
    /// and query paths, answer-set corruption injected behind the cache's
    /// back, and (on half the runs) a test cap that cancels Method M
    /// mid-stream, GC+ never returns a silently wrong answer, and the
    /// post-run audit leaves zero quarantined entries.
    #[test]
    fn answers_stay_sound_under_panics_and_cancellation(seed in 0u64..2_000) {
        silence_injected_panics();
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = if seed % 2 == 0 { QueryKind::Subgraph } else { QueryKind::Supergraph };

        let initial: Vec<LabeledGraph> = (0..10)
            .map(|_| {
                let n = rng.random_range(4..10usize);
                random_connected_graph(&mut rng, n, 2, |r| r.random_range(0..3u16))
            })
            .collect();

        // half the runs cancel mid-stream via a tight test cap
        let budget = if seed % 2 == 0 {
            QueryBudget { deadline: None, max_tests: Some(rng.random_range(1..5u64)) }
        } else {
            QueryBudget::UNLIMITED
        };
        let config = GcConfig {
            cache_capacity: 6,
            window_capacity: 2,
            budget,
            ..GcConfig::default()
        };
        let mut gc = GraphCachePlus::new(config, initial);

        // a fresh fault plan per case: one update panic, one query panic,
        // one silent corruption, all within the run's horizon
        let plan: FaultPlan = format!(
            "panic-update@{};panic-query@{};corrupt@{}:{}",
            rng.random_range(1..12u64),
            rng.random_range(1..20u64),
            rng.random_range(1..12u64),
            rng.random_range(0..14usize),
        )
        .parse()
        .expect("generated plan parses");
        gc.set_fault_injector(Arc::new(FaultInjector::new(plan)));

        let oracle = MethodM::new(Algorithm::Vf2);
        for step in 0..25 {
            let changes = rng.random_range(0..3usize);
            let mut changed = false;
            for _ in 0..changes {
                if let Some(op) = random_change_op(&mut rng, &gc) {
                    gc.apply(op).expect("op drawn applicable");
                    changed = true;
                }
            }
            // corruption lands on the update path; audit before querying
            // so only *tagged* degradation can reach a client
            if changed {
                gc.audit(1.0, seed + step);
            }

            let q = random_query(&mut rng, &gc);
            let out = gc.execute(&q, kind, gc.config().budget);
            let truth = baseline_execute(gc.store(), &oracle, &q, kind);
            if out.metrics.degraded.is_some() {
                // degraded ⇒ sound partial: verified positives only
                prop_assert!(
                    out.answer.is_subset_of(&truth.answer),
                    "degraded answer invented a positive at step {} (seed {})",
                    step, seed
                );
            } else {
                prop_assert_eq!(
                    &out.answer, &truth.answer,
                    "silent divergence at step {} (seed {})",
                    step, seed
                );
            }
        }

        // the auditor must drain whatever quarantine the panics left
        gc.audit(1.0, seed);
        prop_assert_eq!(gc.quarantined_entries(), 0, "quarantine not drained (seed {})", seed);
    }

    /// Health accounting follows the plan: every injected panic is counted
    /// as recovered, and a tight test cap yields tagged (never silent)
    /// degradation. Odd seeds panic twice in a row, so one query takes the
    /// cache-less fallback. Either way the aggregate and the health count
    /// the same events, because both are written from one finished
    /// `QueryMetrics`.
    #[test]
    fn health_counters_match_injections(seed in 0u64..500) {
        silence_injected_panics();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let initial: Vec<LabeledGraph> = (0..6)
            .map(|_| random_connected_graph(&mut rng, 6, 2, |r| r.random_range(0..2u16)))
            .collect();
        let mut gc = GraphCachePlus::new(
            GcConfig {
                cache_capacity: 4,
                window_capacity: 2,
                budget: QueryBudget { deadline: None, max_tests: Some(1) },
                ..GcConfig::default()
            },
            initial,
        );
        let nth = rng.random_range(1..8u64);
        let twice = seed % 2 == 1;
        let plan = if twice {
            format!("panic-query@{nth};panic-query@{}", nth + 1)
        } else {
            format!("panic-query@{nth}")
        };
        gc.set_fault_injector(Arc::new(FaultInjector::new(plan.parse().expect("parses"))));

        let mut degraded_seen = 0u64;
        for _ in 0..8 {
            let q = random_query(&mut rng, &gc);
            let out = gc.execute(&q, QueryKind::Subgraph, gc.config().budget);
            if out.metrics.degraded.is_some() {
                degraded_seen += 1;
                let truth = baseline_execute(
                    gc.store(),
                    &MethodM::new(Algorithm::Vf2),
                    &q,
                    QueryKind::Subgraph,
                );
                prop_assert!(out.answer.is_subset_of(&truth.answer));
            }
        }
        let h = gc.health_snapshot();
        // the planned query panics fired on one query (its first attempt,
        // and under the double plan its retry too) and were contained
        prop_assert_eq!(h.get(HealthCounter::PanicsRecovered), if twice { 2 } else { 1 }, "seed {}", seed);
        prop_assert_eq!(h.get(HealthCounter::DegradedQueries), degraded_seen, "seed {}", seed);
        let agg = gc.aggregate_metrics();
        prop_assert_eq!(agg.panics_recovered, h.get(HealthCounter::PanicsRecovered), "seed {}", seed);
        prop_assert_eq!(agg.degraded_queries, h.get(HealthCounter::DegradedQueries), "seed {}", seed);
    }
}
