//! Quickstart: build a small molecule-like dataset, run subgraph queries
//! through GraphCache+ while the dataset changes, and watch the cache
//! save sub-iso tests without ever returning a stale answer.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use graphcache_plus::prelude::*;

fn main() {
    // 1. A synthetic AIDS-like dataset of 200 molecule graphs
    //    (≈45 vertices, ≈47 edges each, 62-symbol Zipf label alphabet).
    let dataset = synthetic_aids(&AidsConfig::scaled(200, 42));
    println!("dataset: {} graphs", dataset.len());

    // 2. GC+ with the paper's defaults: CON consistency model, HD
    //    replacement policy, cache 100 / window 20, VF2 as Method M.
    let mut gc = GraphCachePlus::new(GcConfig::default(), dataset.clone());

    // 3. Extract a query from dataset graph 7 (so it has answers), then
    //    run it twice: the second run is answered by the cache without a
    //    single subgraph-isomorphism test.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let query = gc_graph::generate::bfs_extract(&mut rng, &dataset[7], 0, 8)
        .expect("graph 7 has at least 8 edges");

    let first = gc.execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    println!(
        "first run : {:3} answers, {:4} sub-iso tests, {:?}",
        first.answer.count_ones(),
        first.metrics.subiso_tests,
        first.metrics.query_time
    );

    let second = gc.execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    println!(
        "second run: {:3} answers, {:4} sub-iso tests (exact-match shortcut: {}), {:?}",
        second.answer.count_ones(),
        second.metrics.subiso_tests,
        second.metrics.hits.exact_shortcut,
        second.metrics.query_time
    );
    assert_eq!(first.answer, second.answer);
    assert_eq!(second.metrics.subiso_tests, 0);

    // 4. The dataset changes: delete a graph, add a new one, flip edges.
    gc.apply(ChangeOp::Del(3)).unwrap();
    gc.apply(ChangeOp::Add(dataset[11].clone())).unwrap();
    let (u, v) = dataset[5].edges().next().expect("graph 5 has edges");
    gc.apply(ChangeOp::Ur { id: 5, u, v }).unwrap();

    // 5. Re-run: CON refreshed the cached validity bits (Algorithms 1+2),
    //    so the still-valid knowledge keeps pruning and the answer is
    //    exact for the *changed* dataset.
    let third = gc.execute(&query, QueryKind::Subgraph, QueryBudget::UNLIMITED);
    let truth = baseline_execute(
        gc.store(),
        &MethodM::new(Algorithm::Vf2),
        &query,
        QueryKind::Subgraph,
    );
    println!(
        "after churn: {:3} answers, {:4} sub-iso tests (saved {:4}) — matches ground truth: {}",
        third.answer.count_ones(),
        third.metrics.subiso_tests,
        third.metrics.tests_saved,
        third.answer == truth.answer
    );
    assert_eq!(third.answer, truth.answer);

    // 6. Aggregate metrics, the quantities behind the paper's figures.
    let agg = gc.aggregate_metrics();
    println!(
        "\ntotals: {} queries, {} tests run, {} tests saved, {} exact-match shortcut(s)",
        agg.queries, agg.total_tests, agg.total_tests_saved, agg.exact_shortcuts
    );
}
