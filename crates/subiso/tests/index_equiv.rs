//! Differential harness, Method M layer: the postings-bitset index with
//! Method M's pre-filter folded in must be *operationally equivalent* to
//! the paper's full scan with the per-candidate pre-filter on. For every
//! random dataset, query and kind:
//!
//! * **bit-identical answers** — scanning the index's candidate set with
//!   the pre-filter off returns exactly the full scan's answer bitset;
//! * **metrics-compatible counts** — the index emits precisely the
//!   candidates the pre-filter would pass, so `full.prefilter_skips ==
//!   live − |index candidates|` and the folded scan runs one test per
//!   index candidate with zero skips;
//! * the equivalence survives budget cancellation (both sides' partial
//!   answers are sound subsets) and per-candidate panic containment.

use gc_dataset::{ChangeLog, GraphStore, LabelIndex};
use gc_graph::generate::{bfs_extract, random_connected_graph};
use gc_graph::{GraphSource, LabeledGraph};
use gc_subiso::{Algorithm, CancelToken, MethodM, QueryKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_store(seed: u64) -> (GraphStore, ChangeLog, Vec<LabeledGraph>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(8..30usize);
    let labels = rng.random_range(2..5u16);
    let graphs: Vec<LabeledGraph> = (0..n)
        .map(|_| {
            let v = rng.random_range(3..12usize);
            let extra = rng.random_range(0..v);
            random_connected_graph(&mut rng, v, extra, |r| r.random_range(0..labels))
        })
        .collect();
    let store = GraphStore::from_graphs(graphs.clone());
    (store, ChangeLog::new(), graphs)
}

fn make_query(rng: &mut StdRng, graphs: &[LabeledGraph]) -> LabeledGraph {
    if rng.random_range(0..10u32) < 7 {
        let src = &graphs[rng.random_range(0..graphs.len())];
        let start = rng.random_range(0..src.vertex_count() as u32);
        let want = rng.random_range(1..=src.edge_count().min(5));
        if let Some(q) = bfs_extract(rng, src, start, want) {
            return q;
        }
    }
    let v = rng.random_range(2..6usize);
    random_connected_graph(rng, v, 1, |r| r.random_range(0..5u16))
}

proptest! {
    /// The fold identity: prefiltered-full-scan ≡ unfiltered-scan over
    /// the index's candidates — answers bit-identical, counts reconciled.
    #[test]
    fn folded_index_scan_equals_prefiltered_full_scan(seed in 0u64..250) {
        let (store, log, graphs) = build_store(seed);
        let idx = LabelIndex::build(&store, &log);
        let live = store.live_bitset();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF01D);
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            let q = make_query(&mut rng, &graphs);
            let cands = idx.candidates(&q, kind);
            for algo in [Algorithm::Vf2, Algorithm::Vf2Plus] {
                let full = MethodM::new(algo).run(&q, kind, &store, &live);
                let folded = MethodM::new(algo)
                    .with_prefilter(false)
                    .run(&q, kind, &store, &cands);
                prop_assert_eq!(&folded.answer, &full.answer, "answer divergence ({:?})", kind);
                // one test per candidate on both sides...
                prop_assert_eq!(full.tests, live.count_ones() as u64);
                prop_assert_eq!(folded.tests, cands.count_ones() as u64);
                // ...and the index rejected exactly what the pre-filter
                // would have skipped: the fold loses no information
                prop_assert_eq!(
                    full.prefilter_skips,
                    (live.count_ones() - cands.count_ones()) as u64,
                    "index candidates must be exactly the pre-filter survivors"
                );
                prop_assert_eq!(folded.prefilter_skips, 0);
            }
        }
    }

    /// Under a fired test-cap budget both pipelines degrade *soundly*:
    /// every positive is verified, so both partial answers are subsets of
    /// the exact answer, and the folded side never exceeds its cap.
    #[test]
    fn budget_cancellation_stays_sound_on_both_sides(seed in 0u64..60, cap in 1u64..6) {
        let (store, log, graphs) = build_store(seed);
        let idx = LabelIndex::build(&store, &log);
        let live = store.live_bitset();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0D6);
        let q = make_query(&mut rng, &graphs);
        let cands = idx.candidates(&q, QueryKind::Subgraph);
        let exact = MethodM::new(Algorithm::Vf2).run(&q, QueryKind::Subgraph, &store, &live);

        let m = MethodM::new(Algorithm::Vf2);
        let full = m.run_budgeted(
            &q, QueryKind::Subgraph, &store, &live,
            &CancelToken::new(None, Some(cap)),
        );
        let folded = m.with_prefilter(false).run_budgeted(
            &q, QueryKind::Subgraph, &store, &cands,
            &CancelToken::new(None, Some(cap)),
        );
        prop_assert!(full.answer.is_subset_of(&exact.answer));
        prop_assert!(folded.answer.is_subset_of(&exact.answer));
        prop_assert!(folded.tests <= cap);
        // a budget generous enough for every index candidate decides the
        // folded side exactly, even if the full scan would still be short
        let enough = m.with_prefilter(false).run_budgeted(
            &q, QueryKind::Subgraph, &store, &cands,
            &CancelToken::new(None, Some(cands.count_ones() as u64 + 1)),
        );
        prop_assert!(enough.interrupted.is_none());
        prop_assert_eq!(&enough.answer, &exact.answer);
    }
}

/// A graph source that panics when one specific id is examined — the
/// containment path both pipelines must survive identically.
struct PanicOn {
    graphs: Vec<LabeledGraph>,
    bomb: usize,
}

impl GraphSource for PanicOn {
    fn graph(&self, id: usize) -> Option<&LabeledGraph> {
        assert!(id != self.bomb, "injected graph-access panic");
        self.graphs.get(id)
    }
    fn id_span(&self) -> usize {
        self.graphs.len()
    }
}

#[test]
fn injected_panic_is_contained_identically_by_both_pipelines() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let (store, log, graphs) = build_store(17);
    let idx = LabelIndex::build(&store, &log);
    let mut rng = StdRng::seed_from_u64(17);
    let q = make_query(&mut rng, &graphs);
    let cands = idx.subgraph_candidates(&q);
    let bomb = cands.iter_ones().next().expect("non-empty candidate set");
    let source = PanicOn {
        graphs: graphs.clone(),
        bomb,
    };
    let live = store.live_bitset();

    let m = MethodM::new(Algorithm::Vf2);
    let full = m.run(&q, QueryKind::Subgraph, &source, &live);
    let folded = m
        .with_prefilter(false)
        .run(&q, QueryKind::Subgraph, &source, &cands);
    std::panic::set_hook(prev);

    assert_eq!(full.panics_recovered, 1);
    assert_eq!(folded.panics_recovered, 1);
    assert_eq!(
        full.answer, folded.answer,
        "both sides recover with the same verified positives"
    );
    let exact = MethodM::new(Algorithm::Vf2).run(&q, QueryKind::Subgraph, &store, &live);
    assert!(full.answer.is_subset_of(&exact.answer));
    let mut rest = exact.answer.clone();
    rest.set(bomb, false);
    assert_eq!(
        full.answer, rest,
        "only the bombed candidate is left undecided"
    );
}
