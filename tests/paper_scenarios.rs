//! The paper's running example (Figure 2) replayed through the public
//! API, plus workload-characteristic assertions from §7.1.

use graphcache_plus::prelude::*;

fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
    LabeledGraph::from_parts(labels, edges).unwrap()
}

/// Figure 2's timeline with concrete graphs:
/// T0: dataset {G0..G3}, empty CON cache.
/// T1: query g′ executed and cached   (answers G2, G3).
/// T2: ADD G4; UR on G3.
/// T3: query g″ executed and cached   (fresh validity over 5 ids).
/// T4: DEL G0; UA on G1.
/// T5: query g arrives and is served with the surviving validity.
#[test]
fn figure_2_timeline() {
    // g′ is a 7-7 edge; G2, G3 contain it; G0, G1 do not.
    let g0 = g(vec![1, 2], &[(0, 1)]);
    let g1 = g(vec![1, 7], &[(0, 1)]);
    let g2 = g(vec![7, 7, 1], &[(0, 1), (1, 2)]);
    let g3 = g(vec![7, 7, 7], &[(0, 1), (1, 2), (0, 2)]);
    let mut gc = GraphCachePlus::new(
        GcConfig {
            window_capacity: 1, // entries go straight to cache in this walkthrough
            ..GcConfig::default()
        },
        vec![g0, g1, g2.clone(), g3],
    );

    // T1 — query g′
    let g_prime = g(vec![7, 7], &[(0, 1)]);
    let out1 = gc.execute(&g_prime, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert_eq!(out1.answer.iter_ones().collect::<Vec<_>>(), vec![2, 3]);

    // T2 — ADD G4 (a copy of G2), UR on G3
    gc.apply(ChangeOp::Add(g2)).unwrap();
    gc.apply(ChangeOp::Ur { id: 3, u: 0, v: 1 }).unwrap();

    // T3 — query g″ (single 7-vertex) executed, enters cache fresh
    let g_dprime = g(vec![7], &[]);
    let out3 = gc.execute(&g_dprime, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert_eq!(
        out3.answer.iter_ones().collect::<Vec<_>>(),
        vec![1, 2, 3, 4]
    );

    // T4 — DEL G0, UA on G1 (add an edge slot first: G1 has 2 vertices &
    // 1 edge → complete; instead UA on G2 which has a free slot)
    gc.apply(ChangeOp::Del(0)).unwrap();
    gc.apply(ChangeOp::Ua { id: 2, u: 0, v: 2 }).unwrap();

    // T5 — query g = g′ again. G2 was UA'd: g′'s positive answer on G2
    // survives (UA-exclusive + positive). G3 was UR'd at T2: that
    // knowledge was already re-verified at... g′ is cached from T1; its
    // validity on G3 died at T2 and was never refreshed, so G3 must be
    // re-verified; the exact-match shortcut must NOT fire.
    let out5 = gc.execute(&g_prime, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert!(!out5.metrics.hits.exact_shortcut);
    // ground truth: G2 (still has 7-7 edge), G3 lost edge (0,1) but the
    // triangle had (1,2) and (0,2) with all-7 labels → still contains 7-7.
    // G4 is a copy of old G2 → contains it.
    let truth = baseline_execute(
        gc.store(),
        &MethodM::new(Algorithm::Vf2),
        &g_prime,
        QueryKind::Subgraph,
    );
    assert_eq!(out5.answer, truth.answer);
    assert_eq!(out5.answer.iter_ones().collect::<Vec<_>>(), vec![2, 3, 4]);
    // and the UA-exclusive optimization shows: G2 was answered test-free
    assert!(out5.metrics.tests_saved >= 1);
}

/// §7.1 workload characteristics, asserted on the real generators.
#[test]
fn workload_characteristics_match_paper() {
    let dataset = synthetic_aids(&AidsConfig::scaled(120, 33));

    // Type A: sizes ∈ {4,8,12,16,20}, connected, non-empty answers
    let wa = generate_type_a(&dataset, &TypeAConfig::zz(60, 1));
    assert_eq!(wa.name, "ZZ");
    let m = Algorithm::Vf2Plus.matcher();
    for q in &wa.queries {
        assert!([4, 8, 12, 16, 20].contains(&q.edge_count()));
        assert!(q.is_connected());
        assert!(dataset.iter().any(|t| m.contains(q, t)));
    }

    // ZZ repeats more than UU (Zipf source-graph + start-node skew):
    // repetition needs a large enough sample — tiny streams are all
    // distinct under any distribution
    let wa_big = generate_type_a(&dataset, &TypeAConfig::zz(400, 1));
    let wu_big = generate_type_a(&dataset, &TypeAConfig::uu(400, 1));
    assert!(
        wa_big.distinct_queries() < wu_big.distinct_queries(),
        "ZZ ({}) should repeat more than UU ({})",
        wa_big.distinct_queries(),
        wu_big.distinct_queries()
    );

    // Type B 50%: contains no-answer queries that still have candidates
    let wb = generate_type_b(
        &dataset,
        &TypeBConfig {
            num_queries: 40,
            positive_pool: 10,
            noanswer_pool: 6,
            noanswer_prob: 0.5,
            sizes: vec![4, 8],
            zipf_alpha: 1.4,
            seed: 2,
            max_relabel_attempts: 300,
        },
    );
    let empties = wb
        .queries
        .iter()
        .filter(|q| !dataset.iter().any(|t| m.contains(q, t)))
        .count();
    assert!(empties >= 5, "empties: {empties}");
}

/// The paper's Figure-5 premise at workspace level: identical pruned
/// candidate sets (hence test counts) across Method M choices.
#[test]
fn test_counts_are_method_independent() {
    let dataset = synthetic_aids(&AidsConfig::scaled(60, 44));
    let workload = generate_type_a(&dataset, &TypeAConfig::zu(40, 7));
    let mut counts: Vec<Vec<u64>> = Vec::new();
    for algo in Algorithm::ALL {
        let mut gc = GraphCachePlus::new(
            GcConfig {
                method: MethodM::new(algo),
                ..GcConfig::default()
            },
            dataset.clone(),
        );
        counts.push(
            workload
                .queries
                .iter()
                .map(|q| {
                    gc.execute(q, workload.kind, QueryBudget::UNLIMITED)
                        .metrics
                        .subiso_tests
                })
                .collect(),
        );
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}
