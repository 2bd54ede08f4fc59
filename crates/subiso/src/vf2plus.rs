//! VF2+ — the "modified VF2" distributed with CT-Index (Klein, Kriege,
//! Mutzel, ICDE 2011), one of the paper's three Method M implementations.
//!
//! Relative to vanilla VF2 it adds (all described in the CT-Index paper and
//! in Lee et al.'s comparison, and mirrored here):
//!
//! * a **static variable ordering** that starts from the pattern vertex
//!   whose label is rarest in the target and greedily extends the connected
//!   prefix (rarest label / highest degree first), so mismatches surface
//!   near the root of the search tree. Rarity is a binary search in the
//!   target's cached label histogram (`GraphSignature::labels`); the order
//!   is computed once per test, in the same pass that compiles the
//!   per-depth matching plan (see [`crate::vf2`], "Execution");
//! * a **degree filter** — candidate `v` must satisfy
//!   `deg(v) ≥ deg(u)`;
//! * a **neighborhood label filter** — the multiset of labels on `u`'s
//!   unmapped neighbors must be dominated by the labels on `v`'s unused
//!   neighbors.
//!
//! The backtracking core (consistency + lookahead) is shared with
//! [`crate::vf2`], exactly as VF2+ is a drop-in modification of VF2.

use gc_graph::{LabeledGraph, VertexId};

use crate::cancel::{CancelToken, Interrupt};
use crate::vf2::EngineOptions;
use crate::{MatchStats, SubgraphMatcher};

/// VF2+ matcher.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vf2Plus;

impl Vf2Plus {
    const OPTS: EngineOptions = EngineOptions {
        degree_check: true,
        neighbor_label_check: true,
        rare_label_order: true,
    };
}

impl SubgraphMatcher for Vf2Plus {
    fn name(&self) -> &'static str {
        "VF2+"
    }

    fn contains_with_stats(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> (bool, MatchStats) {
        Self::OPTS.contains_with_stats(pattern, target)
    }

    fn find_embedding(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> Option<Vec<VertexId>> {
        Self::OPTS.find_embedding(pattern, target)
    }

    fn contains_budgeted(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        token: &CancelToken,
    ) -> Result<bool, Interrupt> {
        Self::OPTS.contains_budgeted(pattern, target, token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2::{verify_embedding, Vf2};
    use gc_graph::generate::random_connected_graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    #[test]
    fn agrees_with_vf2_on_basics() {
        let tri = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let p3 = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(Vf2Plus.contains(&p3, &tri));
        assert!(!Vf2Plus.contains(&tri, &p3));
        assert!(Vf2Plus.contains(&tri, &tri));
    }

    #[test]
    fn embedding_valid() {
        let p = g(vec![0, 1], &[(0, 1)]);
        let t = g(vec![1, 0, 1], &[(0, 1), (1, 2)]);
        let e = Vf2Plus.find_embedding(&p, &t).unwrap();
        assert!(verify_embedding(&p, &t, &e));
    }

    #[test]
    fn randomized_agreement_with_vf2() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut positives = 0;
        for i in 0..120 {
            let tn = rng.random_range(4..14usize);
            let extra = rng.random_range(0..tn);
            let target = random_connected_graph(&mut rng, tn, extra, |r| r.random_range(0..3u16));
            let pattern = if i % 2 == 0 {
                // extracted pattern: guaranteed positive
                let start = rng.random_range(0..tn as u32);
                let want = rng.random_range(1..=target.edge_count().min(6));
                match gc_graph::generate::bfs_extract(&mut rng, &target, start, want) {
                    Some(p) => p,
                    None => continue,
                }
            } else {
                let pn = rng.random_range(2..6usize);
                let pextra = if pn >= 4 { rng.random_range(0..2) } else { 0 };
                random_connected_graph(&mut rng, pn, pextra, |r| r.random_range(0..3u16))
            };
            let a = Vf2.contains(&pattern, &target);
            let b = Vf2Plus.contains(&pattern, &target);
            assert_eq!(
                a, b,
                "disagreement on case {i}:\nP={pattern:?}\nT={target:?}"
            );
            if a {
                positives += 1;
            }
        }
        assert!(positives > 20, "test should exercise positive cases");
    }

    #[test]
    fn prunes_at_least_as_hard_as_vf2_on_negatives() {
        // a labeled pattern absent from the target: VF2+ should expand no
        // more search nodes than VF2 on this adversarial-ish case
        let pattern = g(vec![0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut rng = StdRng::seed_from_u64(7);
        let target = random_connected_graph(&mut rng, 40, 20, |r| r.random_range(2..4u16));
        let (found_a, s_a) = Vf2.contains_with_stats(&pattern, &target);
        let (found_b, s_b) = Vf2Plus.contains_with_stats(&pattern, &target);
        assert!(!found_a && !found_b);
        assert!(
            s_b.nodes <= s_a.nodes,
            "VF2+ expanded {} nodes, VF2 {}",
            s_b.nodes,
            s_a.nodes
        );
    }
}
