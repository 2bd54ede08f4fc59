//! Count anchors for Method M's candidate scan on a fixed AIDS-like
//! workload. Counts, not timings: they repeat exactly, and a change to the
//! signature's pre-filter (its hash, its width, its domination rules) or to
//! the label index's fold moves them, as a change to the VF2 / VF2+ search
//! tree moves the node totals and a change to the per-vertex profile table
//! or the path words moves the local-pruning counts. The serving benchmark's ladder
//! (`subiso.ns_per_test`, `index.lookup_ns`,
//! `system.candidates_per_query`) answers the timing questions.

use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::{ChangeLog, GraphStore, LabelIndex};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::filter::{paths_may_contain, profile_may_contain};
use gc_subiso::{Algorithm, MethodM, QueryKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per paper query size, `per_size` BFS extractions from Zipf(1.4)-ranked
/// source graphs.
fn build_queries(dataset: &[LabeledGraph], per_size: usize, seed: u64) -> Vec<LabeledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = gc_graph::Zipf::new(dataset.len(), 1.4);
    let mut queries = Vec::new();
    for &size in &gc_workload::PAPER_QUERY_SIZES {
        let mut produced = 0;
        let mut attempts = 0;
        while produced < per_size && attempts < per_size * 64 {
            attempts += 1;
            let src = &dataset[zipf.sample(&mut rng)];
            if src.vertex_count() == 0 {
                continue;
            }
            let start = rng.random_range(0..src.vertex_count() as u32);
            if let Some(q) = gc_graph::generate::bfs_extract(&mut rng, src, start, size) {
                queries.push(q);
                produced += 1;
            }
        }
    }
    queries
}

#[test]
fn prefiltered_scan_and_label_index_hit_their_count_anchors() {
    let dataset = synthetic_aids(&AidsConfig::scaled(1200, 0xBE7C));
    let queries = build_queries(&dataset, 4, 0x5CA7);
    assert_eq!(queries.len(), 20);

    let live = BitSet::from_indices(0..dataset.len());
    let method = MethodM::new(Algorithm::Vf2);
    let (mut tests, mut skips, mut answers) = (0u64, 0u64, 0u64);
    for q in &queries {
        let r = method.run(q, QueryKind::Subgraph, &dataset, &live);
        assert!(r.is_exact());
        tests += r.tests;
        skips += r.prefilter_skips;
        answers += r.answer.count_ones() as u64;
    }
    assert_eq!(tests, 24_000, "one test per live graph per query");
    assert_eq!(skips, 22_379, "signature pre-filter rejections moved");
    assert_eq!(answers, 407);

    let store = GraphStore::from_graphs(dataset);
    let index = LabelIndex::build(&store, &ChangeLog::new());
    let folded = method.with_prefilter(false);
    let (mut candidates, mut index_answers) = (0u64, 0u64);
    for q in &queries {
        let c = index.subgraph_candidates(q);
        candidates += c.count_ones() as u64;
        let r = folded.run(q, QueryKind::Subgraph, &store, &c);
        assert_eq!(r.tests, c.count_ones() as u64);
        index_answers += r.answer.count_ones() as u64;
    }
    assert_eq!(candidates, 1_621, "index candidates = pre-filter survivors");
    assert_eq!(candidates, tests - skips);
    assert_eq!(index_answers, 407);

    // the search tree itself: nodes expanded over the same 1,621 pairs. A
    // change to how the engine runs must leave these exactly where they
    // are; only a change to what it tries (order, candidates, cut rules)
    // may move them. Method M's local pruning decides some of these pairs
    // before the engine runs: its profile tables, then, once a scan has
    // searched a negative, its path words (counted here for every pair the
    // profiles pass). Neither ever rejects a positive
    for (algo, want) in [(Algorithm::Vf2, 129_418), (Algorithm::Vf2Plus, 80_868)] {
        let (mut nodes, mut positives, mut pruned, mut path_pruned) = (0u64, 0u64, 0u64, 0u64);
        for q in &queries {
            for id in index.subgraph_candidates(q).iter_ones() {
                let target = store.get(id).expect("candidates are live");
                let (found, stats) = algo.matcher().contains_with_stats(q, target);
                nodes += stats.nodes;
                positives += u64::from(found);
                if !profile_may_contain(q, target) {
                    assert!(!found, "{algo}: local pruning rejected a positive");
                    pruned += 1;
                } else if !paths_may_contain(q, target) {
                    assert!(!found, "{algo}: the path words rejected a positive");
                    path_pruned += 1;
                }
            }
        }
        assert_eq!(positives, 407, "{algo}");
        assert_eq!(nodes, want, "{algo} search-tree nodes moved");
        // 1,143 of the 1,214 negatives (1,017 with labels folded mod 8 and
        // mod 5 and no ring lane, 933 before the profile entries counted
        // their neighbours' degrees)
        assert_eq!(pruned, 1_143, "local-pruning rejections moved");
        // of the other 71 negatives
        assert_eq!(path_pruned, 34, "path-word rejections moved");
    }
}
