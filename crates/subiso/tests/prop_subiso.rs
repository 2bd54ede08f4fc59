//! Cross-validation of the three production SI algorithms against the
//! brute-force oracle, plus structural properties of embeddings. These are
//! the tests that certify the `Mverifier` implementations behind every
//! experiment table.

use gc_graph::generate::{
    bfs_extract, molecule_like, permute, random_connected_graph, random_walk_extract,
};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::bruteforce::BruteForce;
use gc_subiso::cancel::CHECK_INTERVAL;
use gc_subiso::vf2::verify_embedding;
use gc_subiso::{filter, Algorithm, CancelToken, Interrupt, MethodM, QueryKind, SubgraphMatcher};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a (pattern, target) pair from a seed. A third of the cases
/// extract the pattern from the target (guaranteed positive), a third
/// extract it and then drop random edges (still positive, possibly
/// disconnected, label-pair counts anywhere between the target's and 0),
/// a third generate it independently (usually negative, occasionally
/// positive). Targets have up to 20 edges over 1–3 labels, so a label pair
/// regularly occurs more often than the signature's fingerprint counts.
fn make_case(seed: u64) -> (LabeledGraph, LabeledGraph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tn = rng.random_range(3..11usize);
    let extra = rng.random_range(0..tn);
    let labels = rng.random_range(1..4u16);
    let target = random_connected_graph(&mut rng, tn, extra, |r| r.random_range(0..labels));
    let pattern = if seed % 3 != 1 {
        let start = rng.random_range(0..tn as u32);
        let want = rng.random_range(1..=target.edge_count().min(8));
        let mut p = bfs_extract(&mut rng, &target, start, want)
            .or_else(|| random_walk_extract(&mut rng, &target, start, want))
            .unwrap_or_else(|| {
                random_connected_graph(&mut rng, 3, 0, |r| r.random_range(0..labels))
            });
        if seed % 3 == 2 {
            for (u, v) in p.edges().collect::<Vec<_>>() {
                if rng.random_range(0..3u32) == 0 {
                    p.remove_edge(u, v).unwrap();
                }
            }
        }
        p
    } else {
        let pn = rng.random_range(1..7usize);
        let pextra = rng.random_range(0..2usize);
        random_connected_graph(&mut rng, pn, pextra, |r| r.random_range(0..labels))
    };
    (pattern, target)
}

/// `g` relabelled 0 → 11, 1 → 14, 2 → 267: all three share the last label
/// lane of the profile table (`min(l, 11)`) and the last lane of each
/// degree group (`min(l, 2)`), and 11 and 267 also share its label byte
/// (label mod 256), so its lanes cannot tell them apart.
fn folded(g: &LabeledGraph) -> LabeledGraph {
    const FOLDED: [u16; 3] = [11, 14, 267];
    LabeledGraph::from_parts(
        g.labels().iter().map(|&l| FOLDED[l as usize]).collect(),
        &g.edges().collect::<Vec<_>>(),
    )
    .unwrap()
}

proptest! {
    /// All three algorithms agree with the brute-force oracle.
    #[test]
    fn algorithms_agree_with_oracle(seed in 0u64..2000) {
        let (pattern, target) = make_case(seed);
        let expected = BruteForce.contains(&pattern, &target);
        for algo in Algorithm::ALL {
            let got = algo.matcher().contains(&pattern, &target);
            prop_assert_eq!(
                got, expected,
                "{} disagrees with oracle on seed {}:\nP={:?}\nT={:?}",
                algo, seed, &pattern, &target
            );
        }
    }

    /// Whenever an algorithm reports containment, the embedding it returns
    /// is a genuine label-preserving injective homomorphism.
    #[test]
    fn embeddings_are_valid(seed in 0u64..800) {
        let (pattern, target) = make_case(seed);
        for algo in Algorithm::ALL {
            if let Some(e) = algo.matcher().find_embedding(&pattern, &target) {
                prop_assert!(
                    verify_embedding(&pattern, &target, &e),
                    "{} returned an invalid embedding on seed {}", algo, seed
                );
            }
        }
    }

    /// Extracted subgraphs are always found — the soundness direction that
    /// Type A/B workload generation depends on (every extracted query must
    /// have its source graph in the answer set).
    #[test]
    fn extraction_implies_containment(seed in 0u64..800) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tn = rng.random_range(4..16usize);
        let extra = rng.random_range(0..tn);
        let target = random_connected_graph(&mut rng, tn, extra, |r| r.random_range(0..3u16));
        let start = rng.random_range(0..tn as u32);
        let want = rng.random_range(1..=target.edge_count().min(8));
        let pattern = if seed % 2 == 0 {
            bfs_extract(&mut rng, &target, start, want)
        } else {
            random_walk_extract(&mut rng, &target, start, want)
        };
        if let Some(p) = pattern {
            for algo in Algorithm::ALL {
                prop_assert!(
                    algo.matcher().contains(&p, &target),
                    "{} missed an extracted subgraph (seed {})", algo, seed
                );
            }
        }
    }

    /// The signature pre-filter is *sound*: whenever it rejects a
    /// (pattern, target) pair, the brute-force oracle confirms
    /// non-containment — so pre-filtering can never drop a true answer.
    /// Dually, every oracle-positive pair passes the pre-filter.
    #[test]
    fn signature_prefilter_never_drops_a_true_answer(seed in 0u64..1500) {
        let (pattern, target) = make_case(seed);
        let feasible = filter::signature_may_contain(pattern.signature(), target.signature());
        let truth = BruteForce.contains(&pattern, &target);
        if !feasible {
            prop_assert!(
                !truth,
                "pre-filter rejected a contained pair (seed {}):\nP={:?}\nT={:?}",
                seed, &pattern, &target
            );
        }
        if truth {
            prop_assert!(feasible, "oracle-positive pair must pass the pre-filter");
        }
    }

    /// Local pruning is sound: whenever the profile tables or the path
    /// words reject a pair in either direction (a subgraph query asks
    /// `pattern ⊆ target`, a supergraph query the reverse), the oracle
    /// confirms non-containment — also after folding the labels so that
    /// the tables confuse them.
    #[test]
    fn profile_filter_never_drops_a_true_answer(seed in 0u64..1500) {
        let (pattern, target) = make_case(seed);
        let (fp, ft) = (folded(&pattern), folded(&target));
        for (p, t) in [(&pattern, &target), (&target, &pattern), (&fp, &ft), (&ft, &fp)] {
            if !filter::profile_may_contain(p, t) || !filter::paths_may_contain(p, t) {
                prop_assert!(
                    !BruteForce.contains(p, t),
                    "local pruning rejected a contained pair (seed {}):\nP={:?}\nT={:?}",
                    seed, p, t
                );
            }
        }
    }

    /// Local pruning passes every positive pair at the served scale, where
    /// lane folds collide: molecule-like targets of up to 245 vertices
    /// (valence ≤ 4, up to 6 rings) over labels 0, 2, 11 and 14, of which
    /// 11 and 14 share the last label lane and 2, 11 and 14 the last lane
    /// of each degree group. Patterns are BFS or random-walk extractions,
    /// a third of them with random edges dropped, then vertex-permuted, so
    /// the path words read a path from the other end in the pattern as
    /// often as not; each is contained in its target by construction, so
    /// no oracle is needed.
    #[test]
    fn profile_filter_passes_extractions_from_molecules(seed in 0u64..1_000_000) {
        const LABELS: [u16; 4] = [0, 2, 11, 14];
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(4..=245usize);
        let rings = rng.random_range(0..=6usize);
        let target = molecule_like(&mut rng, n, rings, 4, |r| LABELS[r.random_range(0..4usize)]);
        let start = rng.random_range(0..n as u32);
        let want = rng.random_range(1..=target.edge_count().min(24));
        let mut p = if seed % 2 == 0 {
            random_walk_extract(&mut rng, &target, start, want)
        } else {
            None
        }
        .or_else(|| bfs_extract(&mut rng, &target, start, want))
        .expect("a molecule is connected");
        if seed % 3 == 0 {
            for (u, v) in p.edges().collect::<Vec<_>>() {
                if rng.random_range(0..3u32) == 0 {
                    p.remove_edge(u, v).unwrap();
                }
            }
        }
        let p = permute(&mut rng, &p);
        prop_assert!(
            filter::profile_may_contain(&p, &target),
            "local pruning rejected an extraction (seed {}):\nP={:?}\nT={:?}",
            seed, &p, &target
        );
        prop_assert!(
            filter::paths_may_contain(&p, &target),
            "the path words rejected an extraction (seed {}):\nP={:?}\nT={:?}",
            seed, &p, &target
        );
    }

    /// Method M's pre-filtered scan returns exactly the brute-force answer
    /// set over a random candidate pool, for both query kinds, and exactly
    /// what the scan with the pre-filter off returns — the scan-level
    /// statement of pre-filter soundness. Local pruning runs in both scans,
    /// its path words from each scan's first searched negative on.
    #[test]
    fn prefiltered_scan_matches_bruteforce_oracle(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37).wrapping_add(13));
        let pool: Vec<LabeledGraph> = (0..12)
            .map(|_| {
                let n = rng.random_range(2..9usize);
                let extra = rng.random_range(0..3usize);
                random_connected_graph(&mut rng, n, extra, |r| r.random_range(0..3u16))
            })
            .collect();
        let (query, _) = make_case(seed);
        let cands = BitSet::from_indices(0..pool.len());
        for kind in [QueryKind::Subgraph, QueryKind::Supergraph] {
            let got = MethodM::new(Algorithm::Vf2Plus).run(&query, kind, &pool, &cands);
            let expected: Vec<usize> = pool
                .iter()
                .enumerate()
                .filter(|(_, g)| match kind {
                    QueryKind::Subgraph => BruteForce.contains(&query, g),
                    QueryKind::Supergraph => BruteForce.contains(g, &query),
                })
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(
                got.answer.iter_ones().collect::<Vec<_>>(),
                expected,
                "seed {} kind {:?}", seed, kind
            );
            prop_assert_eq!(got.tests, pool.len() as u64);
            // the pre-filter only moves decisions out of the matcher
            let unfiltered = MethodM::new(Algorithm::Vf2Plus)
                .with_prefilter(false)
                .run(&query, kind, &pool, &cands);
            prop_assert_eq!(&got.answer, &unfiltered.answer);
            prop_assert_eq!(got.tests, unfiltered.tests);
            prop_assert_eq!(unfiltered.prefilter_skips, 0);
        }
    }

    /// Containment is reflexive and respects edge monotonicity: removing an
    /// edge from the pattern preserves containment.
    #[test]
    fn edge_removal_monotonicity(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
        let n = rng.random_range(3..9usize);
        let extra = rng.random_range(0..n);
        let g = random_connected_graph(&mut rng, n, extra, |r| r.random_range(0..3u16));
        for algo in Algorithm::ALL {
            prop_assert!(algo.matcher().contains(&g, &g), "{} not reflexive", algo);
        }
        // drop one random edge from a copy — still contained in original
        let edges: Vec<_> = g.edges().collect();
        if !edges.is_empty() {
            let (u, v) = edges[rng.random_range(0..edges.len())];
            let mut smaller = g.clone();
            smaller.remove_edge(u, v).unwrap();
            for algo in Algorithm::ALL {
                prop_assert!(
                    algo.matcher().contains(&smaller, &g),
                    "{} violated edge monotonicity", algo
                );
            }
        }
    }
}

fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
    LabeledGraph::from_parts(labels, edges).unwrap()
}

/// The path on `n` label-0 vertices.
fn path(n: u32) -> LabeledGraph {
    g(
        vec![0; n as usize],
        &(1..n).map(|v| (v - 1, v)).collect::<Vec<_>>(),
    )
}

/// VF2 and VF2+ keep their search state on the thread between tests, so
/// whatever a search stopped at a checkpoint leaves there, the next test
/// on the thread must not see. Before every oracle case, cut a negative
/// search short with a cancelled token: an odd cycle in a complete
/// bipartite graph, which neither engine can reject before its first
/// checkpoint.
#[test]
fn a_search_cut_short_leaves_nothing_for_the_next_test() {
    let c9 = g(
        vec![0; 9],
        &(0..9).map(|i| (i, (i + 1) % 9)).collect::<Vec<_>>(),
    );
    let k55 = g(
        vec![0; 10],
        &(0..5)
            .flat_map(|i| (5..10).map(move |j| (i, j)))
            .collect::<Vec<_>>(),
    );
    let cancelled = CancelToken::unlimited();
    cancelled.cancel();
    let engines = [Algorithm::Vf2, Algorithm::Vf2Plus];
    for algo in engines {
        let (found, stats) = algo.matcher().contains_with_stats(&c9, &k55);
        assert!(!found && stats.nodes > CHECK_INTERVAL, "{algo}: {stats:?}");
    }
    for seed in 0..400u64 {
        let cut = engines[seed as usize % 2].matcher();
        assert_eq!(
            cut.contains_budgeted(&c9, &k55, &cancelled),
            Err(Interrupt::Cancelled)
        );
        let (pattern, target) = make_case(seed);
        let expected = BruteForce.contains(&pattern, &target);
        for algo in engines {
            assert_eq!(
                algo.matcher().contains(&pattern, &target),
                expected,
                "{algo} after a cut-short {} search, seed {seed}",
                cut.name()
            );
            if let Some(e) = algo.matcher().find_embedding(&pattern, &target) {
                assert!(
                    verify_embedding(&pattern, &target, &e),
                    "{algo} seed {seed}"
                );
            }
        }
    }
}

/// The fingerprint's degenerate corners, each checked against the oracle:
/// no edges at all, a single label (one pair, counts past the threshold),
/// and a label pair the target does not have.
#[test]
fn edge_pair_filter_degenerate_cases_agree_with_oracle() {
    let dots = g(vec![0, 0, 0], &[]);
    let cases = [
        // edge-free pattern: no feature, nothing to miss
        (dots.clone(), path(3)),
        (dots.clone(), dots.clone()),
        (path(2), dots),
        // one label: the pair (0, 0) occurs 1…8 times
        (path(4), path(9)),
        (path(9), path(4)),
        (path(6), path(7)),
        (path(7), path(6)),
        // every label present, every count dominated, the 1-1 edge absent
        (
            g(vec![1, 1], &[(0, 1)]),
            g(vec![1, 0, 1], &[(0, 1), (1, 2)]),
        ),
    ];
    for (p, t) in &cases {
        let feasible = filter::signature_may_contain(p.signature(), t.signature());
        let truth = BruteForce.contains(p, t);
        assert!(
            feasible || !truth,
            "filter dropped an answer: P={p:?} T={t:?}"
        );
    }
    let (p, t) = &cases[7];
    assert!(t.signature().labels_dominate(p.signature()));
    assert!(
        !filter::signature_may_contain(p.signature(), t.signature()),
        "only the edge-pair fingerprint can reject this pair"
    );
}

/// Local pruning is not vacuous: over `make_case`'s pairs in both
/// directions, it rejects a share of the negatives that pass the signature
/// pre-filter, and never a positive.
#[test]
fn profile_filter_rejects_negatives_the_signature_passes() {
    let (mut negatives, mut rejected) = (0u32, 0u32);
    for seed in 0..1500u64 {
        let (pattern, target) = make_case(seed);
        for (p, t) in [(&pattern, &target), (&target, &pattern)] {
            let truth = BruteForce.contains(p, t);
            let pruned = !filter::profile_may_contain(p, t);
            assert!(!(truth && pruned), "seed {seed}: P={p:?} T={t:?}");
            if !truth && filter::signature_may_contain(p.signature(), t.signature()) {
                negatives += 1;
                rejected += u32::from(pruned);
            }
        }
    }
    // 34 of 47 here (30 with labels folded mod 8 and mod 5 and no ring
    // lane); at least half keeps the degree and ring lanes meaningful
    assert!(
        rejected * 2 >= negatives && negatives > 0,
        "{rejected} of {negatives} signature-passing negatives rejected"
    );
}

/// The path words are not vacuous: over extractions from small molecules
/// (labels 0, 2, 11 and 14) tested against other molecules, they reject a
/// share of the negatives that pass both the signature and the profile
/// tables, and never a positive.
#[test]
fn path_filter_rejects_negatives_the_profiles_pass() {
    const LABELS: [u16; 4] = [0, 2, 11, 14];
    let vf2 = Algorithm::Vf2.matcher();
    let mut rng = StdRng::seed_from_u64(0x9A7);
    // label 0 on half the atoms, the others on a sixth each
    let molecule = |rng: &mut StdRng, n: usize| {
        let rings = rng.random_range(0..=3usize);
        molecule_like(rng, n, rings, 4, |r| {
            LABELS[r.random_range(0..6usize).saturating_sub(2)]
        })
    };
    let (mut negatives, mut rejected) = (0u32, 0u32);
    for _ in 0..2000 {
        let n = rng.random_range(8..=24usize);
        let source = molecule(&mut rng, n);
        let want = rng.random_range(3..=8usize);
        let Some(p) = bfs_extract(&mut rng, &source, 0, want) else {
            continue;
        };
        let n = rng.random_range(16..=48usize);
        let t = molecule(&mut rng, n);
        let truth = vf2.contains(&p, &t);
        let pruned = !filter::paths_may_contain(&p, &t);
        assert!(!(truth && pruned), "P={p:?} T={t:?}");
        if !truth
            && filter::signature_may_contain(p.signature(), t.signature())
            && filter::profile_may_contain(&p, &t)
        {
            negatives += 1;
            rejected += u32::from(pruned);
        }
    }
    // 70 of 155 here (60 without the twin bits)
    assert!(
        rejected >= 60,
        "{rejected} of {negatives} signature- and profile-passing negatives rejected"
    );
}

/// The profile table's blind spots and edges, each checked against the
/// oracle: lane saturation (a 4th same-lane neighbour is not counted),
/// label folds (labels 11 and up share the last label lane, 0 and 256 a
/// label byte, 2 and up the last degree lane, while 3 and 11 have label
/// lanes of their own), edge-free graphs (no vertex has the 2 neighbours an entry
/// needs), a neighbour exactly at the 2- and 3-neighbour thresholds, a
/// leaf, which gets no entry however many neighbours its neighbour has,
/// and the ring lane (a cycle needs ring vertices, which a path of equal
/// label and degree counts lacks).
#[test]
fn profile_filter_degenerate_cases_agree_with_oracle() {
    let star = |hub: u16, leaves: &[u16]| {
        let mut labels = vec![hub];
        labels.extend_from_slice(leaves);
        g(
            labels,
            &(1..=leaves.len() as u32)
                .map(|v| (0, v))
                .collect::<Vec<_>>(),
        )
    };
    let dots = g(vec![0, 0, 0], &[]);
    let cycle = |n: u32| {
        g(
            vec![0; n as usize],
            &(0..n).map(|v| (v, (v + 1) % n)).collect::<Vec<_>>(),
        )
    };
    // two 6-rings sharing the edge 0-5
    let fused = {
        let mut edges: Vec<_> = (1..10).map(|v| (v - 1, v)).collect();
        edges.extend([(5, 0), (9, 0)]);
        g(vec![0; 10], &edges)
    };
    // a label-0 hub with a label-`y` neighbour of `a` neighbours and a
    // label-`x` neighbour of `b` neighbours, the extra ones label-3 leaves.
    // With `cover`, a separate label-0 vertex with a label-4 leaf and a
    // label-`y` neighbour of `cover` neighbours covers the first
    // neighbour's entry but not the hub's (it has no label-`x` neighbour),
    // so only the hub's degree lanes can reject
    let hub = |y: u16, x: u16, a: u32, b: u32, cover: Option<u32>| {
        let mut labels = vec![0, y, x];
        let mut edges = vec![(0, 1), (0, 2)];
        let mut ends = vec![(1, a), (2, b)];
        if let Some(c) = cover {
            labels.extend([0, y, 4]);
            edges.extend([(3, 4), (3, 5)]);
            ends.push((4, c));
        }
        for (of, count) in ends {
            for _ in 1..count {
                labels.push(3);
                edges.push((of, labels.len() as u32 - 1));
            }
        }
        g(labels, &edges)
    };
    let cases = [
        // saturation: 4 and 3 label-1 neighbours look alike, 3 and 2 do not
        (star(0, &[1; 4]), star(0, &[1; 3])),
        (star(0, &[1; 4]), star(0, &[1; 5])),
        (star(0, &[1; 3]), star(0, &[1; 2])),
        // folds: a label-12 neighbour stands in for a label-11 one, a
        // label-256 hub for a label-0 hub; labels 3 and 4 have lanes of
        // their own, so a label-11 neighbour stands in for neither
        (star(0, &[3, 3]), star(0, &[3, 11])),
        (star(0, &[11, 11]), star(0, &[11, 12])),
        (star(0, &[3, 11]), star(0, &[11, 3, 3])),
        (star(0, &[1, 1]), star(256, &[1, 1])),
        (star(0, &[3, 4]), star(0, &[3, 11])),
        // edge-free graphs
        (dots.clone(), path(3)),
        (dots.clone(), dots.clone()),
        (path(3), dots.clone()),
        (g(vec![0, 0], &[(0, 1)]), dots),
        // thresholds: the hub needs a label-1 neighbour with exactly 2
        // (then 3) neighbours and the target's has one fewer; at 3 and 3
        // the pair embeds
        (hub(1, 2, 2, 1, None), hub(1, 2, 1, 1, Some(2))),
        (hub(1, 2, 3, 1, None), hub(1, 2, 2, 1, Some(3))),
        (hub(1, 2, 3, 1, None), hub(1, 2, 3, 1, Some(3))),
        // degree-lane fold: labels 2 and 6 share the last degree lane, so a
        // label-6 neighbour with 2 neighbours stands in for a label-2 one;
        // labels 1 and 2 do not
        (hub(2, 6, 2, 1, None), hub(2, 6, 1, 2, Some(2))),
        (hub(1, 2, 2, 1, None), hub(1, 2, 1, 2, Some(2))),
        // a label-11 leaf of a label-1 vertex with 3 neighbours: the leaf
        // has no entry, and the label-12 neighbour the target has instead
        // shares the last label lane with 11, so nothing rejects
        (
            star(1, &[11, 2, 2]),
            g(vec![1, 12, 2, 2, 11, 1], &[(0, 1), (0, 2), (0, 3), (4, 5)]),
        ),
        // ring lane: the 6-cycle's entries (two label-0 neighbours, both
        // with 2 neighbours) are the 7-path's inner ones, and its counts,
        // degrees and edge pairs pass the signature, but no path vertex is
        // on a ring; two fused 6-rings host it
        (cycle(6), path(7)),
        (cycle(6), fused),
    ];
    assert!(filter::signature_may_contain(
        cases[18].0.signature(),
        cases[18].1.signature()
    ));
    let verdicts: Vec<bool> = cases
        .iter()
        .map(|(p, t)| {
            let may = filter::profile_may_contain(p, t);
            assert!(
                may || !BruteForce.contains(p, t),
                "local pruning dropped an answer: P={p:?} T={t:?}"
            );
            may
        })
        .collect();
    assert_eq!(
        verdicts,
        [
            true, true, false, false, true, true, true, false, true, true, false, true, false,
            false, true, true, false, true, false, true
        ],
        "which cases the table can see"
    );
}
