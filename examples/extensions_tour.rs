//! Tour of the §8 future-work extensions implemented in this repo:
//! CON-R retrospective validation, the updatable FTV filter, and the
//! sharded (decentralized) deployment — all stacked, all exact.
//!
//! ```text
//! cargo run --release --example extensions_tour
//! ```

use graphcache_plus::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dataset = synthetic_aids(&AidsConfig::scaled(300, 99));
    let mut rng = StdRng::seed_from_u64(7);
    let query = gc_graph::generate::bfs_extract(&mut rng, &dataset[10], 0, 8)
        .expect("graph 10 supports an 8-edge query");

    // ---- 1. CON vs CON-R under churn that cancels out ----
    println!("== CON vs CON-R: net-neutral churn (UR then UA of the same edge) ==");
    for model in [CacheModel::Con, CacheModel::ConRetro] {
        let mut gc = GraphCachePlus::new(
            GcConfig {
                model,
                method: MethodM::new(Algorithm::Vf2Plus),
                ..GcConfig::default()
            },
            dataset.clone(),
        );
        // warm the cache, then oscillate an edge on 30 graphs — the
        // dataset ends bit-identical
        gc.execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        for id in 0..30usize {
            let g = gc.store().get(id).expect("live").clone();
            let first_edge = g.edges().next();
            if let Some((u, v)) = first_edge {
                gc.apply(ChangeOp::Ur { id, u, v }).unwrap();
                gc.apply(ChangeOp::Ua { id, u, v }).unwrap();
            }
        }
        let out = gc.execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        println!(
            "  {:6} → {:3} sub-iso tests on repeat (exact-match shortcut: {})",
            model.name(),
            out.metrics.subiso_tests,
            out.metrics.hits.exact_shortcut
        );
    }

    // ---- 2. scan-backed vs index-backed CS_M ----
    println!("\n== full-scan vs postings-index candidate sets ==");
    for source in [CandidateSource::LiveScan, CandidateSource::LabelIndex] {
        let mut gc = GraphCachePlus::new(
            GcConfig {
                candidate_source: source,
                method: MethodM::new(Algorithm::Vf2Plus),
                ..GcConfig::default()
            },
            dataset.clone(),
        );
        let out = gc.execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        println!(
            "  {:10} → |CS_M| = {:3}, {:3} tests, {:2} answers",
            source.name(),
            out.metrics.candidate_size,
            out.metrics.subiso_tests,
            out.answer.count_ones()
        );
    }

    // ---- 3. sharded deployment ----
    println!("\n== sharded GC+ (3 shards) ==");
    let sharded = ShardedGraphCache::new(GcConfig::default(), dataset.clone(), 3);
    let mut flat = GraphCachePlus::new(GcConfig::default(), dataset.clone());
    let sharded_out = sharded
        .execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
        .outcome;
    let flat_out = flat.execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert_eq!(sharded_out.answer, flat_out.answer);
    println!(
        "  3 shards answered {} graphs — identical to the single instance: {}",
        sharded_out.answer.count_ones(),
        sharded_out.answer == flat_out.answer
    );
    // a change routed to one shard, then an exact repeat
    sharded.apply(ChangeOp::Del(10)).unwrap();
    flat.apply(ChangeOp::Del(10)).unwrap();
    let again = sharded
        .execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED, None)
        .outcome;
    let flat_again = flat.execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    assert_eq!(again.answer, flat_again.answer);
    println!(
        "  after deleting the query's source graph: {} answers (still exact)",
        again.answer.count_ones()
    );

    // ---- 4. canonical forms for isomorphism-class statistics ----
    println!("\n== canonical forms ==");
    let w = generate_type_a(&dataset, &TypeAConfig::zz(300, 3));
    println!(
        "  ZZ stream: {} queries, {} distinct isomorphism classes — repetition the exact-match optimal case exploits",
        w.len(),
        w.distinct_queries()
    );
}
