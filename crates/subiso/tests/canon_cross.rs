//! Cross-validation of two independent isomorphism deciders:
//!
//! * `gc_graph::canon` — refinement + branching canonical forms;
//! * mutual non-induced containment with equal sizes (the §6.3 criterion
//!   GC+ itself uses for exact-match detection), decided by VF2.
//!
//! For any two graphs of equal size signature these must agree — a strong
//! consistency check tying the cache's exact-match logic to an
//! independently implemented certificate.

use gc_graph::canon::isomorphic;
use gc_graph::generate::{permute, random_connected_graph};
use gc_graph::LabeledGraph;
use gc_subiso::vf2::Vf2;
use gc_subiso::SubgraphMatcher;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The §6.3 exact-match criterion: same vertex/edge counts + one-way
/// containment (which forces the injection to be an isomorphism).
fn iso_by_subiso(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    a.vertex_count() == b.vertex_count() && a.edge_count() == b.edge_count() && Vf2.contains(a, b)
}

proptest! {
    /// Positive direction: permuted copies are isomorphic under both
    /// deciders.
    #[test]
    fn permuted_copies_agree(seed in 0u64..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(2..10usize);
        let extra = rng.random_range(0..4usize);
        let a = random_connected_graph(&mut rng, n, extra, |r| r.random_range(0..3u16));
        let b = permute(&mut rng, &a);
        prop_assert!(isomorphic(&a, &b), "canon missed an isomorphism (seed {})", seed);
        prop_assert!(iso_by_subiso(&a, &b), "sub-iso missed an isomorphism (seed {})", seed);
    }

    /// Both deciders give the same verdict on arbitrary same-size pairs.
    #[test]
    fn deciders_agree_on_random_pairs(seed in 0u64..800) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919));
        let n = rng.random_range(2..8usize);
        let extra_a = rng.random_range(0..3usize);
        let extra_b = rng.random_range(0..3usize);
        let a = random_connected_graph(&mut rng, n, extra_a, |r| r.random_range(0..2u16));
        let b = random_connected_graph(&mut rng, n, extra_b, |r| r.random_range(0..2u16));
        // only meaningful when the cheap preconditions match
        if a.edge_count() == b.edge_count() {
            prop_assert_eq!(
                isomorphic(&a, &b),
                iso_by_subiso(&a, &b),
                "deciders disagree (seed {}):\nA={:?}\nB={:?}", seed, &a, &b
            );
        }
    }
}
