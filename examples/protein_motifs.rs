//! Biochemical motif screening — the paper's first motivating scenario.
//!
//! "In protein datasets, there is a hierarchy of queries for aminoacids,
//! proteins, protein mixtures, …" and "biochemical datasets keep
//! refreshing by newly-translated, disregarded or transformed proteins."
//!
//! This example screens an AIDS-like molecule dataset with a *hierarchy*
//! of structural motifs (small motifs contained in larger ones), using
//! **supergraph queries** as well: given a large candidate scaffold, find
//! all dataset fragments contained in it. The dataset refreshes between
//! screening rounds (new compounds translated in, obsolete ones dropped,
//! bonds corrected), exercising the CON validity machinery in both
//! answer-polarity directions.
//!
//! ```text
//! cargo run --release --example protein_motifs
//! ```

use graphcache_plus::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(1996);
    let compounds = synthetic_aids(&AidsConfig::scaled(400, 11));
    println!(
        "compound library: {} molecules\n{}",
        compounds.len(),
        gc_graph::stats::DatasetStats::compute(&compounds)
    );

    let mut gc = GraphCachePlus::new(
        GcConfig {
            method: MethodM::new(Algorithm::GraphQl),
            ..GcConfig::default()
        },
        compounds.clone(),
    );

    // A motif hierarchy extracted from one scaffold compound: 4-edge core,
    // 8-edge ring system, 12-edge extended system, 16-edge scaffold.
    let scaffold_src = &compounds[99];
    let motifs: Vec<LabeledGraph> = [4usize, 8, 12, 16]
        .iter()
        .map(|&size| {
            gc_graph::generate::bfs_extract(&mut rng, scaffold_src, 2, size)
                .expect("scaffold supports motif sizes")
        })
        .collect();

    println!("\n== screening round 1: subgraph queries (which compounds contain each motif?) ==");
    for (i, m) in motifs.iter().enumerate() {
        let out = gc.execute(m, QueryKind::Subgraph, QueryBudget::UNLIMITED);
        println!(
            "motif {i} (|E|={:2}): {:3} compounds contain it  [{:3} tests, {:3} saved]",
            m.edge_count(),
            out.answer.count_ones(),
            out.metrics.subiso_tests,
            out.metrics.tests_saved
        );
    }

    println!(
        "\n== screening round 2: supergraph queries (which fragments fit in the scaffold?) =="
    );
    // fragment library: each compound trimmed to its first 6 edges
    for (i, m) in motifs.iter().enumerate().rev() {
        let out = gc.execute(m, QueryKind::Supergraph, QueryBudget::UNLIMITED);
        println!(
            "scaffold {i} (|E|={:2}): {:3} library entries contained in it  [{:3} tests, {:3} saved]",
            m.edge_count(),
            out.answer.count_ones(),
            out.metrics.subiso_tests,
            out.metrics.tests_saved
        );
    }

    // Library refresh: translate in 5 new compounds, disregard 5, and
    // correct bonds (UA/UR) in a few entries.
    println!("\n== library refresh ==");
    for (k, compound) in compounds.iter().take(5).enumerate() {
        gc.apply(ChangeOp::Add(compound.clone())).unwrap();
        gc.apply(ChangeOp::Del(300 + k)).unwrap();
    }
    let mut corrected = 0;
    for id in [10usize, 20, 30] {
        let g = gc.store().get(id).expect("live").clone();
        let first_edge = g.edges().next();
        if let Some((u, v)) = first_edge {
            gc.apply(ChangeOp::Ur { id, u, v }).unwrap();
            corrected += 1;
        }
    }
    println!("5 compounds added, 5 disregarded, {corrected} bond corrections");

    println!("\n== screening round 3: repeat both directions after the refresh ==");
    let oracle = MethodM::new(Algorithm::Vf2);
    for (i, m) in motifs.iter().enumerate() {
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            let out = gc.execute(m, kind, QueryBudget::UNLIMITED);
            let truth = baseline_execute(gc.store(), &oracle, m, kind);
            assert_eq!(
                out.answer, truth.answer,
                "stale answer for motif {i} ({kind:?})"
            );
            println!(
                "motif {i} {:10}: {:3} answers, {:3} tests ({:3} saved) — exact ✓",
                kind.name(),
                out.answer.count_ones(),
                out.metrics.subiso_tests,
                out.metrics.tests_saved
            );
        }
    }

    let agg = gc.aggregate_metrics();
    println!(
        "\ntotals: {} queries | {} tests executed | {} alleviated | {} exact-match shortcuts",
        agg.queries, agg.total_tests, agg.total_tests_saved, agg.exact_shortcuts
    );
}
