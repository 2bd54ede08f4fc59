//! Social-network exploration — the paper's second motivating scenario.
//!
//! "In social network exploratory, queries could start off broad (e.g.,
//! all people in a geographic location) and become gradually narrower
//! (e.g., by homing in on specific demographics)." Meanwhile groups form,
//! dissolve and rewire: "newly added groups, break-up of existed groups,
//! and the changed relations/interactions among group members are
//! frequently happening."
//!
//! This example models a dataset of *group interaction graphs* (vertices =
//! member roles, labeled by demographic bucket; edges = interactions). An
//! analyst drills down with a chain of increasingly specific patterns —
//! each a supergraph of the previous query — while the groups churn.
//! GC+'s exclusion hits shine here: once a narrow pattern has an answer,
//! broader-to-narrower refinements are answered mostly from cache.
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use graphcache_plus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Demographic buckets used as vertex labels.
const BUCKETS: u16 = 6;

/// A random group-interaction graph: 8–40 members, sparse interactions.
fn random_group(rng: &mut StdRng) -> LabeledGraph {
    let n = rng.random_range(8..40usize);
    let extra = rng.random_range(1..n / 2);
    gc_graph::generate::random_connected_graph(rng, n, extra, |r| r.random_range(0..BUCKETS))
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2017);
    let groups: Vec<LabeledGraph> = (0..300).map(|_| random_group(&mut rng)).collect();
    println!("dataset: {} interaction groups", groups.len());

    let mut gc = GraphCachePlus::new(GcConfig::default(), groups.clone());

    // The analyst's drill-down: start from a 3-edge pattern extracted from
    // a real group, then *extend* it edge by edge (each refinement is a
    // supergraph of the previous query).
    let source = &groups[42];
    let broad = gc_graph::generate::bfs_extract(&mut rng, source, 0, 3).expect("extractable");
    let mut refinements = vec![broad.clone()];
    for size in [5usize, 8, 11, 14] {
        let q = gc_graph::generate::bfs_extract(&mut rng, source, 0, size).expect("extractable");
        refinements.push(q);
    }

    println!("\n-- drill-down session #1 (static dataset) --");
    for (step, q) in refinements.iter().enumerate() {
        let out = gc.execute(q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        println!(
            "step {step}: pattern |E|={:2} → {:3} matching groups, {:3} sub-iso tests ({} saved)",
            q.edge_count(),
            out.answer.count_ones(),
            out.metrics.subiso_tests,
            out.metrics.tests_saved,
        );
    }

    // Group churn: two groups dissolve, one forms, interactions rewire.
    println!("\n-- group churn --");
    gc.apply(ChangeOp::Del(17)).unwrap();
    gc.apply(ChangeOp::Del(23)).unwrap();
    let fresh = random_group(&mut rng);
    let new_id = gc.apply(ChangeOp::Add(fresh)).unwrap();
    println!("groups 17 and 23 dissolved; new group {new_id} formed");
    // rewiring inside group 42: one interaction ends, a new one starts
    let (u, v) = groups[42].edges().next().expect("has edges");
    gc.apply(ChangeOp::Ur { id: 42, u, v }).unwrap();
    let w = (groups[42].vertex_count() - 1) as u32;
    if !groups[42].has_edge(0, w) {
        gc.apply(ChangeOp::Ua { id: 42, u: 0, v: w }).unwrap();
    }

    // Re-run the drill-down: CON keeps all knowledge not invalidated by
    // the churn; answers remain exact.
    println!("\n-- drill-down session #2 (after churn) --");
    let oracle = MethodM::new(Algorithm::Vf2Plus);
    for (step, q) in refinements.iter().enumerate() {
        let out = gc.execute(q, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        let truth = baseline_execute(gc.store(), &oracle, q, QueryKind::Subgraph);
        assert_eq!(out.answer, truth.answer, "GC+ must stay exact under churn");
        println!(
            "step {step}: {:3} matching groups, {:3} sub-iso tests ({} saved) — exact ✓",
            out.answer.count_ones(),
            out.metrics.subiso_tests,
            out.metrics.tests_saved,
        );
    }

    let agg = gc.aggregate_metrics();
    println!(
        "\nsession total: {} queries, {} tests executed, {} tests alleviated by cache",
        agg.queries, agg.total_tests, agg.total_tests_saved
    );
}
