//! Every pruning screen against brute force on every small pair, one
//! screen at a time. The targets are every connected labelled graph of up
//! to 5 vertices over labels {0, 2, 11, 14} (which collide in the profile
//! lanes' rank fold), one per isomorphism class (`canonical_form`); the
//! patterns are those of up to 4 vertices, connected like every query. Whenever one of the three
//! screens rejects a pair — `GraphSignature::dominates`,
//! `VertexProfiles::dominates`, `PathWords::covers` — brute force must
//! find no embedding. Brute force runs only on rejected pairs.
//!
//! Each screen's rejections are printed per (pattern size, target size)
//! class, tiered as a scan meets them: the signature first, the profiles
//! on what it passes, the path words on what both pass. Every tier must
//! reject at least one pair the tiers before it pass, or the check would
//! say nothing about it.
//!
//! It takes ~12 s in a debug build and ~1.5 s in release, so it runs in
//! release only (CI's deep step runs `cargo test --release -p gc_subiso`).

use std::collections::HashSet;

use gc_graph::{canonical_form, Label, LabeledGraph, VertexId};
use gc_subiso::bruteforce::BruteForce;
use gc_subiso::SubgraphMatcher;

const LABELS: [Label; 4] = [0, 2, 11, 14];

/// One graph of every isomorphism class of connected labelled graphs on
/// exactly `n` vertices over [`LABELS`]: every labelling of one
/// representative of each connected shape, deduplicated.
fn connected_classes(n: usize) -> Vec<LabeledGraph> {
    let pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
        .flat_map(|u| (u + 1..n as VertexId).map(move |v| (u, v)))
        .collect();
    let mut shapes = HashSet::new();
    let mut edge_sets = Vec::new();
    for mask in 0..1u32 << pairs.len() {
        let edges: Vec<_> = (0..pairs.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| pairs[i])
            .collect();
        let shape = LabeledGraph::from_parts(vec![0; n], &edges).unwrap();
        if shape.is_connected() && shapes.insert(canonical_form(&shape)) {
            edge_sets.push(edges);
        }
    }
    let mut classes = HashSet::new();
    let mut graphs = Vec::new();
    for edges in &edge_sets {
        for code in 0..LABELS.len().pow(n as u32) {
            let labels = (0..n)
                .map(|v| LABELS[code / LABELS.len().pow(v as u32) % LABELS.len()])
                .collect();
            let g = LabeledGraph::from_parts(labels, edges).unwrap();
            if classes.insert(canonical_form(&g)) {
                graphs.push(g);
            }
        }
    }
    graphs
}

/// Pairs and rejections of one (pattern size, target size) class.
#[derive(Default, Clone, Copy)]
struct Tally {
    pairs: u64,
    /// Rejected by the signature.
    signature: u64,
    /// Passed by the signature, rejected by the profiles.
    profiles: u64,
    /// Passed by both, rejected by the path words.
    paths: u64,
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_screen_is_sound_on_every_small_pair() {
    // by_size[n] holds the classes on n vertices; n = 0 is left out
    let by_size: Vec<Vec<LabeledGraph>> = (0..=5).map(connected_classes).collect();
    let counts: Vec<usize> = by_size[1..].iter().map(Vec::len).collect();
    println!("classes on 1..=5 vertices: {counts:?}");
    let mut tallies = [[Tally::default(); 6]; 5];
    let mut wrong = Vec::new();
    for (k, patterns) in by_size.iter().enumerate().take(5).skip(1) {
        for (n, targets) in by_size.iter().enumerate().skip(1) {
            let tally = &mut tallies[k][n];
            for p in patterns {
                let p_words = p.path_words().expect("far under the step cap");
                for t in targets {
                    tally.pairs += 1;
                    let t_words = t.path_words().expect("far under the step cap");
                    let signature = !t.signature().dominates(p.signature());
                    let profiles = !t.profiles().dominates(p.profiles());
                    let paths = !t_words.covers(p_words);
                    if signature {
                        tally.signature += 1;
                    } else if profiles {
                        tally.profiles += 1;
                    } else if paths {
                        tally.paths += 1;
                    }
                    if (signature || profiles || paths) && BruteForce.contains(p, t) {
                        let screens = [signature, profiles, paths];
                        wrong.push(format!("{screens:?} rejects {p:?} ⊆ {t:?}"));
                    }
                }
            }
        }
    }
    println!("pattern target pairs  signature  profiles  paths");
    let mut total = Tally::default();
    for (k, row) in tallies.iter().enumerate().skip(1) {
        for (n, t) in row.iter().enumerate().skip(1) {
            let share = |x: u64| 100.0 * x as f64 / t.pairs.max(1) as f64;
            println!(
                "{k:7} {n:6} {:6} {:8.1}% {:8.1}% {:5.1}%",
                t.pairs,
                share(t.signature),
                share(t.profiles),
                share(t.paths)
            );
            total.pairs += t.pairs;
            total.signature += t.signature;
            total.profiles += t.profiles;
            total.paths += t.paths;
        }
    }
    println!(
        "total: {} pairs, {} rejected by the signature, {} more by the profiles, {} more by the path words",
        total.pairs, total.signature, total.profiles, total.paths
    );
    assert!(
        wrong.is_empty(),
        "{} unsound rejections, first: {}",
        wrong.len(),
        wrong[0]
    );
    assert!(total.signature > 0, "the signature rejects nothing");
    assert!(
        total.profiles > 0,
        "the profiles reject nothing the signature passes"
    );
    assert!(
        total.paths > 0,
        "the path words reject nothing the other screens pass"
    );
}
