//! Count anchors for consistency maintenance on one fixed churned workload.
//! Counts, not timings: they repeat exactly, so a change to how the
//! maintenance pass *runs* (its data structures, its loop, its dispatch)
//! must leave every arm's numbers where they are; only a change to what it
//! keeps, repairs or invalidates may move them.
//!
//! The workload is 300 ZZ queries over 150 synthetic AIDS graphs (every
//! fifth one also asked as a supergraph query), with UA / UR / ADD / DEL
//! and net-neutral UR + UA flips interleaved. It is replayed once per arm:
//! EVI, and CON and CON-R each under invalidate-only and delta-repair
//! maintenance. Each arm also pins how many queries took `CS_M` from an
//! exact twin's memo instead of an index lookup, how many proved an empty
//! answer from an exclusion hit, and how many cache evictions admission
//! made: the last two follow the order hit discovery walks the entries in
//! and the population the replacement policy ranks.

use gc_core::{CacheModel, GcConfig, GraphCachePlus, MaintenanceMode, QueryBudget};
use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::ChangeOp;
use gc_graph::LabeledGraph;
use gc_subiso::QueryKind;
use gc_workload::{generate_type_a, TypeAConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, PartialEq, Eq)]
struct Anchors {
    subiso_tests: u64,
    exact_shortcuts: u64,
    empty_shortcuts: u64,
    evictions: u64,
    repairs_applied: u64,
    invalidations_avoided: u64,
    repair_fallbacks: u64,
    csm_memo_hits: u64,
    answers_fnv: u64,
}

/// Folds one word into an FNV-1a hash. An answer is hashed as its graph
/// ids followed by a `u64::MAX` separator.
fn fnv1a(acc: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *acc ^= u64::from(byte);
        *acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One dataset change drawn from the live store: ~30% of queries are
/// preceded by a UA, UR, ADD, DEL, or a UR + UA of the same edge.
fn churn(rng: &mut StdRng, gc: &mut GraphCachePlus, initial: &[LabeledGraph]) {
    let live: Vec<usize> = gc.store().iter_live().map(|(id, _)| id).collect();
    let id = live[rng.random_range(0..live.len())];
    let g = gc.store().get(id).expect("live").clone();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let n = g.vertex_count() as u32;
    let missing = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .filter(|&(u, v)| !g.has_edge(u, v))
        .nth(rng.random_range(0..8usize));
    let present = (!edges.is_empty()).then(|| edges[rng.random_range(0..edges.len())]);
    match rng.random_range(0..10u32) {
        0 => {
            let src = initial[rng.random_range(0..initial.len())].clone();
            gc.apply(ChangeOp::Add(src)).unwrap();
        }
        1 if live.len() > 100 => {
            gc.apply(ChangeOp::Del(id)).unwrap();
        }
        2..=4 => {
            if let Some((u, v)) = missing {
                gc.apply(ChangeOp::Ua { id, u, v }).unwrap();
            }
        }
        5..=7 => {
            if let Some((u, v)) = present {
                gc.apply(ChangeOp::Ur { id, u, v }).unwrap();
            }
        }
        _ => {
            // net-neutral flip: CON sees mixed ops, CON-R sees nothing
            if let Some((u, v)) = present {
                gc.apply(ChangeOp::Ur { id, u, v }).unwrap();
                gc.apply(ChangeOp::Ua { id, u, v }).unwrap();
            }
        }
    }
}

fn run(model: CacheModel, maintenance: MaintenanceMode) -> Anchors {
    let initial = synthetic_aids(&AidsConfig::scaled(150, 0xA4C0));
    let workload = generate_type_a(&initial, &TypeAConfig::zz(300, 0x3A1));
    let config = GcConfig {
        model,
        maintenance,
        cache_capacity: 40,
        window_capacity: 8,
        ..GcConfig::default()
    };
    let mut gc = GraphCachePlus::new(config, initial.clone());
    let mut rng = StdRng::seed_from_u64(0xC4A2);
    let mut answers_fnv = 0xCBF2_9CE4_8422_2325;
    for (i, q) in workload.queries.iter().enumerate() {
        if rng.random_range(0..10u32) < 3 {
            churn(&mut rng, &mut gc, &initial);
        }
        let kinds: &[QueryKind] = if i % 5 == 0 {
            &[QueryKind::Subgraph, QueryKind::Supergraph]
        } else {
            &[QueryKind::Subgraph]
        };
        for &kind in kinds {
            let out = gc.execute(q, kind, QueryBudget::UNLIMITED);
            assert!(out.metrics.degraded.is_none());
            for id in out.answer.iter_ones() {
                fnv1a(&mut answers_fnv, id as u64);
            }
            fnv1a(&mut answers_fnv, u64::MAX);
        }
    }
    let m = gc.aggregate_metrics();
    Anchors {
        subiso_tests: m.total_tests,
        exact_shortcuts: m.exact_shortcuts,
        empty_shortcuts: m.empty_shortcuts,
        evictions: gc.evictions(),
        repairs_applied: m.repairs_applied,
        invalidations_avoided: m.invalidations_avoided,
        repair_fallbacks: m.repair_fallbacks,
        csm_memo_hits: m.csm_memo_hits,
        answers_fnv,
    }
}

#[test]
fn maintenance_arms_hit_their_count_anchors() {
    use CacheModel::{Con, ConRetro, Evi};
    use MaintenanceMode::{Invalidate, Repair};
    // every arm is exact, so every arm returns the same answers
    let answers_fnv = 607_818_926_263_534_133;
    // [subiso tests, exact shortcuts, empty shortcuts, evictions, repairs,
    // avoided, fallbacks, queries whose CS_M came from an exact twin's memo]
    let arms = [
        (Evi, Invalidate, [4_306, 2, 0, 0, 0, 0, 0, 2]),
        (Con, Invalidate, [2_674, 37, 3, 264, 0, 0, 0, 50]),
        (Con, Repair, [2_674, 37, 3, 264, 0, 1_575, 158, 50]),
        (ConRetro, Invalidate, [2_653, 39, 3, 264, 0, 0, 0, 50]),
        (ConRetro, Repair, [2_653, 39, 3, 264, 0, 913, 101, 50]),
    ];
    let mut invalidate_arm = None;
    for (model, maintenance, counts) in arms {
        let [tests, exact, empty, evicted, repairs, avoided, fallbacks, memo] = counts;
        let want = Anchors {
            subiso_tests: tests,
            exact_shortcuts: exact,
            empty_shortcuts: empty,
            evictions: evicted,
            repairs_applied: repairs,
            invalidations_avoided: avoided,
            repair_fallbacks: fallbacks,
            csm_memo_hits: memo,
            answers_fnv,
        };
        let got = run(model, maintenance);
        assert_eq!(got, want, "{model} / {maintenance} moved");
        // Repair keeps a bit only when `signature_may_contain` disproves the
        // relation, and `LabelIndex::admits` refines with that predicate,
        // so a kept bit names a graph already outside CS_M. Only the §6.3
        // full-validity checks could see it, and on this workload they do
        // not: repair runs the tests, shortcuts and memo hits of its
        // invalidate arm.
        let shape = (got.subiso_tests, got.exact_shortcuts, got.csm_memo_hits);
        match maintenance {
            Invalidate => invalidate_arm = Some(shape),
            Repair => assert_eq!(
                Some(shape),
                invalidate_arm,
                "{model} repair ran other tests"
            ),
        }
    }
}
