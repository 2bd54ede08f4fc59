//! Workspace-level end-to-end test: the full experiment pipeline — the
//! synthetic AIDS dataset, a paper workload, the paper change plan, and
//! both cache models — with exactness verified against cache-less Method
//! M on every query.

use graphcache_plus::prelude::*;

fn scale_dataset() -> Vec<LabeledGraph> {
    synthetic_aids(&AidsConfig::scaled(80, 21))
}

#[test]
fn type_a_workload_replay_is_exact_under_churn() {
    let dataset = scale_dataset();
    let workload = generate_type_a(&dataset, &TypeAConfig::zu(120, 3));
    let plan = ChangePlan::generate(&ChangePlanConfig {
        batches: 6,
        ops_per_batch: 10,
        num_queries: 120,
        seed: 5,
    });

    for model in [CacheModel::Evi, CacheModel::Con] {
        let config = GcConfig {
            model,
            method: MethodM::new(Algorithm::Vf2Plus),
            ..GcConfig::default()
        };
        let mut gc = GraphCachePlus::new(config, dataset.clone());
        let mut exec = PlanExecutor::new(plan.clone(), dataset.clone(), 9);
        let oracle = MethodM::new(Algorithm::Vf2);

        for (i, q) in workload.queries.iter().enumerate() {
            while let Some(op) = exec.next_due(i, gc.store()) {
                gc.apply(op).unwrap();
            }
            let got = gc.execute(q, workload.kind, QueryBudget::UNLIMITED);
            let truth = baseline_execute(gc.store(), &oracle, q, workload.kind);
            assert_eq!(got.answer, truth.answer, "{model} diverged at query {i}");
        }
        // every Type A query matches at least one graph in the *initial*
        // dataset, and the cache must have saved something by the end
        let agg = gc.aggregate_metrics();
        assert!(agg.total_tests_saved > 0, "{model} saved no tests at all");
        assert_eq!(agg.queries, 120);
    }
}

#[test]
fn type_b_workload_replay_with_noanswer_queries() {
    let dataset = scale_dataset();
    let cfg = TypeBConfig {
        num_queries: 80,
        positive_pool: 20,
        noanswer_pool: 8,
        noanswer_prob: 0.5,
        sizes: vec![4, 8],
        zipf_alpha: 1.4,
        seed: 11,
        max_relabel_attempts: 300,
    };
    let workload = generate_type_b(&dataset, &cfg);

    let mut gc = GraphCachePlus::new(GcConfig::default(), dataset.clone());
    let oracle = MethodM::new(Algorithm::Vf2Plus);
    let mut empties = 0;
    for q in &workload.queries {
        let got = gc.execute(q, workload.kind, QueryBudget::UNLIMITED);
        let truth = baseline_execute(gc.store(), &oracle, q, workload.kind);
        assert_eq!(got.answer, truth.answer);
        if got.answer.is_empty() {
            empties += 1;
        }
    }
    assert!(
        empties > 10,
        "50% workload should produce empty answers, got {empties}"
    );
    // with heavy pool repetition the exact-match optimal case must fire
    assert!(gc.aggregate_metrics().exact_shortcuts > 0);
}

#[test]
fn con_dominates_evi_in_saved_tests_under_churn() {
    let dataset = scale_dataset();
    let workload = generate_type_a(&dataset, &TypeAConfig::zz(150, 13));
    let plan = ChangePlan::generate(&ChangePlanConfig {
        batches: 10,
        ops_per_batch: 6,
        num_queries: 150,
        seed: 17,
    });

    let run = |model| {
        let config = GcConfig {
            model,
            method: MethodM::new(Algorithm::Vf2Plus),
            ..GcConfig::default()
        };
        let mut gc = GraphCachePlus::new(config, dataset.clone());
        let mut exec = PlanExecutor::new(plan.clone(), dataset.clone(), 9);
        for (i, q) in workload.queries.iter().enumerate() {
            while let Some(op) = exec.next_due(i, gc.store()) {
                gc.apply(op).unwrap();
            }
            gc.execute(q, workload.kind, QueryBudget::UNLIMITED);
        }
        gc.aggregate_metrics().total_tests
    };

    let evi_tests = run(CacheModel::Evi);
    let con_tests = run(CacheModel::Con);
    assert!(
        con_tests <= evi_tests,
        "CON ({con_tests}) must not execute more tests than EVI ({evi_tests})"
    );
}
