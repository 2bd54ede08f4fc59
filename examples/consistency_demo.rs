//! EVI vs CON vs a (deliberately broken) stale cache, head to head.
//!
//! This example demonstrates *why* cache consistency needs the paper's
//! machinery. Three systems process the same query stream over the same
//! churning dataset:
//!
//! 1. **STALE** — a GC-style cache that ignores dataset changes (what you
//!    get if you deploy the original GraphCache against a dynamic
//!    dataset). It returns wrong answers; we count them.
//! 2. **EVI** — correct, by evicting everything on every change.
//! 3. **CON** — correct, by per-graph validity (Algorithms 1 & 2), while
//!    saving far more sub-iso tests than EVI.
//!
//! ```text
//! cargo run --release --example consistency_demo
//! ```

use graphcache_plus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A minimal stale cache: remembers every (query, answer) pair forever and
/// replays it on exact repeat — with no invalidation whatsoever.
struct StaleCache {
    store: GraphStore,
    memo: Vec<(LabeledGraph, BitSet)>,
    method: MethodM,
    tests: u64,
    wrong: u64,
}

impl StaleCache {
    fn execute(&mut self, q: &LabeledGraph) -> BitSet {
        if let Some((_, a)) = self.memo.iter().find(|(g, _)| g == q) {
            let answer = a.clone();
            // ground truth for error accounting
            let truth = self.method.run(
                q,
                QueryKind::Subgraph,
                &self.store,
                &self.store.live_bitset(),
            );
            if truth.answer != answer {
                self.wrong += 1;
            }
            return answer;
        }
        let r = self.method.run(
            q,
            QueryKind::Subgraph,
            &self.store,
            &self.store.live_bitset(),
        );
        self.tests += r.tests;
        self.memo.push((q.clone(), r.answer.clone()));
        r.answer
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let dataset = synthetic_aids(&AidsConfig::scaled(150, 5));

    // a pool of 12 queries replayed Zipf-style (repeats are the point)
    let pool: Vec<LabeledGraph> = (0..12)
        .map(|i| {
            let src = &dataset[i * 3];
            let size = [4usize, 6, 8][i % 3];
            gc_graph::generate::bfs_extract(&mut rng, src, 0, size).expect("extractable")
        })
        .collect();
    let zipf = Zipf::new(pool.len(), 1.4);

    let cfg = |model| GcConfig {
        model,
        method: MethodM::new(Algorithm::Vf2Plus),
        ..GcConfig::default()
    };
    let mut evi = GraphCachePlus::new(cfg(CacheModel::Evi), dataset.clone());
    let mut con = GraphCachePlus::new(cfg(CacheModel::Con), dataset.clone());
    let mut stale = StaleCache {
        store: GraphStore::from_graphs(dataset.clone()),
        memo: Vec::new(),
        method: MethodM::new(Algorithm::Vf2Plus),
        tests: 0,
        wrong: 0,
    };

    let mut divergences = 0u64;
    for step in 0..400 {
        // churn every 10 queries: one UR + one UA somewhere
        if step % 10 == 9 {
            let live: Vec<usize> = con.store().iter_live().map(|(i, _)| i).collect();
            let id = live[rng.random_range(0..live.len())];
            let g = con.store().get(id).expect("live").clone();
            let first_edge = g.edges().next();
            if let Some((u, v)) = first_edge {
                for sys in [&mut evi, &mut con] {
                    sys.apply(ChangeOp::Ur { id, u, v }).unwrap();
                }
                stale.store.remove_edge(id, u, v).unwrap();
            }
        }
        let q = &pool[zipf.sample(&mut rng)];
        let a_evi = evi
            .execute(q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
            .answer;
        let a_con = con
            .execute(q, QueryKind::Subgraph, QueryBudget::UNLIMITED)
            .answer;
        let a_stale = stale.execute(q);
        assert_eq!(a_evi, a_con, "both correct models must agree");
        if a_stale != a_con {
            divergences += 1;
        }
    }

    let (e, c) = (evi.aggregate_metrics(), con.aggregate_metrics());
    println!("400 Zipf-replayed queries over a dataset churning every 10 queries\n");
    println!("| system | sub-iso tests | tests saved | wrong answers |");
    println!("|--------|---------------|-------------|---------------|");
    println!(
        "| STALE  | {:13} | {:11} | {:13} |",
        stale.tests, "-", stale.wrong
    );
    println!(
        "| EVI    | {:13} | {:11} | {:13} |",
        e.total_tests, e.total_tests_saved, 0
    );
    println!(
        "| CON    | {:13} | {:11} | {:13} |",
        c.total_tests, c.total_tests_saved, 0
    );
    println!(
        "\nstale cache diverged from ground truth on {divergences} of 400 queries \
         — the failure mode GC+ exists to prevent."
    );
    println!(
        "CON executed {:.1}% of EVI's sub-iso tests while staying exact.",
        100.0 * c.total_tests as f64 / e.total_tests.max(1) as f64
    );
    assert!(stale.wrong > 0, "demo should exhibit staleness");
    assert!(c.total_tests <= e.total_tests);
}
