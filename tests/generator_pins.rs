//! The generators' output, pinned: FNV-1a digests of every graph's
//! labels and edges for the synthetic AIDS dataset, Type A and Type B
//! batches over it and a set of random connected graphs. Every committed
//! count downstream (the reproduction's cells, the kernel replay, the
//! serving benchmark's answers) starts from these graphs, so a change to
//! a generator that moves a single random draw fails here first. Only a
//! change meant to move the workloads re-pins them.

use gc_graph::generate::{molecule_like, random_connected_graph};
use graphcache_plus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over each graph's vertex count, labels, edge count and edges
/// (in `edges()` order), graph after graph.
fn digest<'a>(graphs: impl IntoIterator<Item = &'a LabeledGraph>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for g in graphs {
        eat(g.vertex_count() as u32);
        g.labels().iter().for_each(|&l| eat(u32::from(l)));
        eat(g.edge_count() as u32);
        for (u, v) in g.edges() {
            eat(u);
            eat(v);
        }
    }
    h
}

fn dataset() -> Vec<LabeledGraph> {
    synthetic_aids(&AidsConfig::scaled(4000, 2017))
}

#[test]
fn synthetic_aids_is_pinned() {
    assert_eq!(digest(&dataset()), 8898052034790428415);
}

#[test]
fn type_a_extractions_are_pinned() {
    let data = dataset();
    let uu = generate_type_a(&data, &TypeAConfig::uu(2000, 2018)).queries;
    let zu = generate_type_a(&data, &TypeAConfig::zu(2000, 2019)).queries;
    assert_eq!(
        (digest(&uu), digest(&zu)),
        (7442574100308895554, 4836335307544354804)
    );
}

#[test]
fn type_b_batch_is_pinned() {
    let data = dataset();
    let workload = generate_type_b(&data[..300], &TypeBConfig::scaled(400, 40, 4, 0.2, 2020));
    assert_eq!(digest(&workload.queries), 15821091702544557908);
}

#[test]
fn random_connected_graphs_are_pinned() {
    let mut rng = StdRng::seed_from_u64(2021);
    let graphs: Vec<LabeledGraph> = (0..400)
        .map(|_| {
            let n = rng.random_range(1..48usize);
            let extra = rng.random_range(0..2 * n);
            random_connected_graph(&mut rng, n, extra, |r| r.random_range(0..6u16))
        })
        .collect();
    assert_eq!(digest(&graphs), 617713978852394974);
}

#[test]
fn molecules_past_their_valence_are_pinned() {
    // valence 2 saturates most of a tree: after 16 saturated draws a tree
    // edge goes to a saturated vertex anyway, so some vertex ends above
    // the cap, and the ring walks meet those rows too
    let mut rng = StdRng::seed_from_u64(2022);
    let graphs: Vec<LabeledGraph> = (0..400)
        .map(|_| {
            let n = rng.random_range(1..60usize);
            let rings = rng.random_range(0..8usize);
            let valence = rng.random_range(2..4usize);
            molecule_like(&mut rng, n, rings, valence, |r| r.random_range(0..6u16))
        })
        .collect();
    assert!(graphs.iter().any(|g| g.max_degree() > 3));
    assert_eq!(digest(&graphs), 7840690687546742109);
}
