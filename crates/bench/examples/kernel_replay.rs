//! Kernel replay: Method M's verify step alone, on the serving benchmark's
//! `cold_uniform` population.
//!
//! The dataset is 4,000 synthetic AIDS graphs (seed 2017) and the queries
//! are the first 3,000 distinct UU Type A extractions over it, every fifth
//! a supergraph query, as the benchmark builds them. Each query's
//! candidates come from a `LabelIndex` lookup made once, before any
//! timing, and Method M runs over them with its signature pre-filter off
//! (the index already applied it), so what is timed is local pruning plus
//! the matcher on one thread. Per engine it prints the tests run, how many
//! local pruning decided, the answers, and ns per test over the fastest of
//! 7 rounds (engines alternate within a round).
//!
//! ```text
//! cargo run --release -p gc_bench --example kernel_replay
//! ```

use std::collections::HashSet;
use std::time::Instant;

use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::{ChangeLog, GraphStore, LabelIndex};
use gc_graph::{canonical_form, BitSet, LabeledGraph};
use gc_subiso::filter::profile_may_contain;
use gc_subiso::{Algorithm, MethodM, QueryKind};
use gc_workload::{generate_type_a, TypeAConfig};

const POPULATION_SEED: u64 = 2017;
const GRAPHS: usize = 4000;
const QUERIES: usize = 3000;
const SUPER_EVERY: usize = 5;
const ROUNDS: usize = 7;

/// The first `QUERIES` distinct UU extractions, in pool order.
fn pool(dataset: &[LabeledGraph]) -> Vec<(LabeledGraph, QueryKind)> {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(QUERIES);
    for batch in 0.. {
        let cfg = TypeAConfig::uu(QUERIES * 2, POPULATION_SEED + 1 + batch);
        for q in generate_type_a(dataset, &cfg).queries {
            if pool.len() == QUERIES {
                return pool;
            }
            if seen.insert(canonical_form(&q)) {
                let kind = if pool.len() % SUPER_EVERY == 0 {
                    QueryKind::Supergraph
                } else {
                    QueryKind::Subgraph
                };
                pool.push((q, kind));
            }
        }
    }
    unreachable!("the batch loop only ends by returning")
}

fn main() {
    let dataset = synthetic_aids(&AidsConfig::scaled(GRAPHS, POPULATION_SEED));
    let pool = pool(&dataset);
    let store = GraphStore::from_graphs(dataset);
    let index = LabelIndex::build(&store, &ChangeLog::new());
    let work: Vec<(&LabeledGraph, QueryKind, BitSet)> = pool
        .iter()
        .map(|(q, kind)| (q, *kind, index.candidates(q, *kind)))
        .collect();

    // one untimed pass: counts local pruning's decisions and builds every
    // profile table the timed rounds read
    let mut pruned = 0u64;
    for (q, kind, cands) in &work {
        for id in cands.iter_ones() {
            let g = store.get(id).expect("candidates are live");
            let (pattern, target) = match kind {
                QueryKind::Subgraph => (*q, g),
                QueryKind::Supergraph => (g, *q),
            };
            pruned += u64::from(!profile_may_contain(pattern, target));
        }
    }

    let engines = Algorithm::ALL;
    let mut best = [u64::MAX; Algorithm::ALL.len()];
    let mut counts = [(0u64, 0u64); Algorithm::ALL.len()];
    for _ in 0..ROUNDS {
        for (e, algo) in engines.iter().enumerate() {
            let method = MethodM::new(*algo).with_prefilter(false);
            let (mut tests, mut answers) = (0u64, 0u64);
            let start = Instant::now();
            for (q, kind, cands) in &work {
                let r = method.run(q, *kind, &store, cands);
                tests += r.tests;
                answers += r.answer.count_ones() as u64;
            }
            best[e] = best[e].min(start.elapsed().as_nanos() as u64);
            counts[e] = (tests, answers);
        }
    }

    println!(
        "kernel replay: {} graphs, {} queries (every {SUPER_EVERY}th supergraph), best of {ROUNDS} rounds",
        store.live_count(),
        work.len()
    );
    for (e, algo) in engines.iter().enumerate() {
        let (tests, answers) = counts[e];
        println!(
            "{:<5} tests {tests:>7}  local pruning {pruned:>7}  answers {answers:>6}  {:>8.1} ns/test",
            algo.to_string(),
            best[e] as f64 / tests as f64
        );
    }
}
