//! Workspace-level tests of the three §8 extensions working *together*:
//! a sharded deployment whose shards run CON-R over FTV-filtered candidate
//! sets, checked against a flat cache-less ground truth under churn.

use graphcache_plus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn extended_config() -> GcConfig {
    GcConfig {
        model: CacheModel::ConRetro,
        candidate_source: CandidateSource::LabelIndex,
        method: MethodM::new(Algorithm::Vf2Plus),
        ..GcConfig::default()
    }
}

#[test]
fn all_extensions_stacked_stay_exact() {
    let mut rng = StdRng::seed_from_u64(2024);
    let dataset = synthetic_aids(&AidsConfig::scaled(90, 77));
    let sharded = ShardedGraphCache::new(extended_config(), dataset.clone(), 3);
    let mut flat_store = GraphStore::from_graphs(dataset.clone());
    let oracle = MethodM::new(Algorithm::Vf2);

    for step in 0..60 {
        // churn: oscillating UR+UA (CON-R's target), occasional DEL/ADD
        if step % 4 == 1 {
            let pick = loop {
                let id = rng.random_range(0..dataset.len());
                if sharded.get(id).is_some() {
                    break id;
                }
            };
            let first_edge = sharded.get(pick).expect("live").edges().next();
            if let Some((u, v)) = first_edge {
                sharded.apply(ChangeOp::Ur { id: pick, u, v }).unwrap();
                flat_store.remove_edge(pick, u, v).unwrap();
                if step % 8 == 1 {
                    sharded.apply(ChangeOp::Ua { id: pick, u, v }).unwrap();
                    flat_store.add_edge(pick, u, v).unwrap();
                }
            }
        }
        if step == 30 {
            let global = sharded.apply(ChangeOp::Add(dataset[0].clone())).unwrap();
            let flat_id = flat_store.add_graph(dataset[0].clone());
            assert_eq!(global, flat_id, "id spaces stay aligned");
        }

        // query extracted from a random live graph
        let q = loop {
            let id = rng.random_range(0..dataset.len());
            if let Some(src) = sharded.get(id) {
                if let Some(q) =
                    gc_graph::generate::bfs_extract(&mut rng, &src, 0, src.edge_count().clamp(1, 8))
                {
                    break q;
                }
            }
        };
        let kind = if step % 3 == 0 {
            QueryKind::Supergraph
        } else {
            QueryKind::Subgraph
        };
        let got = sharded
            .execute(&q, kind, QueryBudget::UNLIMITED, None)
            .outcome;
        let truth = baseline_execute(&flat_store, &oracle, &q, kind);
        assert_eq!(
            got.answer, truth.answer,
            "divergence at step {step} ({kind:?})"
        );
    }
}

#[test]
fn ftv_filter_shrinks_candidates_without_losing_answers() {
    let dataset = synthetic_aids(&AidsConfig::scaled(120, 5));
    let workload = generate_type_a(&dataset, &TypeAConfig::zu(40, 9));

    let mut filtered = GraphCachePlus::new(extended_config(), dataset.clone());
    let mut unfiltered = GraphCachePlus::new(
        GcConfig {
            candidate_source: CandidateSource::LiveScan,
            ..extended_config()
        },
        dataset.clone(),
    );
    let mut total_filtered_cands = 0u64;
    let mut total_unfiltered_cands = 0u64;
    for q in &workload.queries {
        let a = filtered.execute(q, workload.kind, QueryBudget::UNLIMITED);
        let b = unfiltered.execute(q, workload.kind, QueryBudget::UNLIMITED);
        assert_eq!(a.answer, b.answer);
        total_filtered_cands += a.metrics.candidate_size;
        total_unfiltered_cands += b.metrics.candidate_size;
    }
    assert!(
        total_filtered_cands < total_unfiltered_cands,
        "filter should shrink CS_M: {total_filtered_cands} vs {total_unfiltered_cands}"
    );
}

#[test]
fn retro_preserves_exact_match_shortcuts_across_neutral_churn() {
    let dataset = synthetic_aids(&AidsConfig::scaled(60, 6));
    let mut rng = StdRng::seed_from_u64(1);
    let q = gc_graph::generate::bfs_extract(&mut rng, &dataset[3], 0, 6).expect("extractable");

    let run = |model: CacheModel| {
        let mut gc = GraphCachePlus::new(
            GcConfig {
                model,
                method: MethodM::new(Algorithm::Vf2Plus),
                // Pin invalidate-mode maintenance: this test contrasts
                // which *validation model* discards validity under
                // neutral churn, a distinction delta repair erases by
                // restoring the discarded bits for either model.
                maintenance: MaintenanceMode::Invalidate,
                ..GcConfig::default()
            },
            dataset.clone(),
        );
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        // neutral churn on many graphs
        for id in 0..20usize {
            let g = gc.store().get(id).expect("live").clone();
            let first_edge = g.edges().next();
            if let Some((u, v)) = first_edge {
                gc.apply(ChangeOp::Ur { id, u, v }).unwrap();
                gc.apply(ChangeOp::Ua { id, u, v }).unwrap();
            }
        }
        gc.execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
            .metrics
            .hits
            .exact_shortcut
    };

    assert!(
        !run(CacheModel::Con),
        "plain CON loses full validity under mixed ops"
    );
    assert!(
        run(CacheModel::ConRetro),
        "CON-R proves the churn neutral and keeps the zero-test shortcut"
    );
}

#[test]
fn sharded_metrics_aggregate_sensibly() {
    let dataset = synthetic_aids(&AidsConfig::scaled(45, 8));
    let mut rng = StdRng::seed_from_u64(4);
    let q = gc_graph::generate::bfs_extract(&mut rng, &dataset[0], 0, 4).expect("extractable");

    // paper-faithful scan source: every live graph is a candidate
    let scan = ShardedGraphCache::new(
        GcConfig {
            candidate_source: CandidateSource::LiveScan,
            ..GcConfig::default()
        },
        dataset.clone(),
        3,
    );
    let out = scan
        .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
        .outcome;
    assert_eq!(
        out.metrics.candidate_size, 45,
        "all live graphs across shards"
    );
    assert_eq!(out.metrics.subiso_tests, 45, "cold caches test everything");

    let again = scan
        .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
        .outcome;
    assert_eq!(again.answer, out.answer);
    assert_eq!(again.metrics.subiso_tests, 0, "every shard exact-matches");
    assert_eq!(again.metrics.tests_saved, 45);

    // default (index-backed) source: the postings pre-filter runs inside
    // each shard, so aggregated candidates can only shrink and cold-cache
    // tests equal the candidates that survived it
    let indexed = ShardedGraphCache::new(GcConfig::default(), dataset, 3);
    let cold = indexed
        .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
        .outcome;
    assert_eq!(cold.answer, out.answer, "sources agree on the answer");
    assert!(cold.metrics.candidate_size <= 45);
    assert_eq!(
        cold.metrics.subiso_tests, cold.metrics.candidate_size,
        "cold caches test every index candidate"
    );
    let warm = indexed
        .execute(&q, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
        .outcome;
    assert_eq!(warm.metrics.subiso_tests, 0, "every shard exact-matches");
    assert_eq!(warm.metrics.tests_saved, warm.metrics.candidate_size);
}
