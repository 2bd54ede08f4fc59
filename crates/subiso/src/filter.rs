//! Cheap necessary-condition filters applied before any sub-iso search.
//!
//! These are the standard quick rejects shared by every SI algorithm:
//! vertex/edge counts, label-multiset domination, maximum degree, the
//! one-hop edge-pair fingerprint, and degree-sequence domination. None of
//! them is sufficient — they only rule out pairs that *cannot* satisfy
//! `pattern ⊆ target`. GC+ also uses them internally when probing the
//! (≤ cache+window sized) set of cached queries for subgraph/supergraph
//! hits.
//!
//! Three tiers:
//!
//! * [`signature_may_contain`] — the **pre-filter stage** of Method M's
//!   candidate scan: compares the two graphs' cached
//!   [`GraphSignature`]s. Four fields count (vertices, edges, max degree,
//!   label-frequency histogram); the fifth is a 256-bit fingerprint of
//!   which label pairs the edges join and how often (up to 4). An
//!   embedding sends edges injectively to edges of the same label pair,
//!   so the target has every `(pair, ≥ t)` feature the pattern has and
//!   the pattern's bits are a subset of the target's — tested first, as
//!   four and-nots. No per-call allocation, no graph traversal — every
//!   field is precomputed on the graph, so a scan can reject a candidate
//!   in nanoseconds before any matcher runs. Rejections are tallied as
//!   `prefilter_skips` in [`MethodAnswer`](crate::MethodAnswer) and
//!   surface in `gc-core`'s `QueryMetrics`. The label index folds this
//!   tier into CS_M, so an index-backed scan does not repeat it;
//! * [`profile_may_contain`] — Method M's **local pruning**, run right
//!   before the matcher on every pair that reaches it, prefilter or not:
//!   GraphQL's phase-1 neighbourhood-profile test lifted from "which
//!   target vertices may host `u`" to "may any host `u`", over the two
//!   graphs' cached [`VertexProfiles`](gc_graph::VertexProfiles) (one
//!   packed word per vertex; one SWAR subtract and mask per compared
//!   pair of words). It is per pair, so no index can fold it in. A
//!   rejection is an ordinary negative decision of the verify step;
//! * [`may_contain`] — the fuller check (adds degree-sequence domination,
//!   which costs a sort) used where pairs are probed once rather than
//!   scanned in bulk.

use gc_graph::{GraphSignature, LabeledGraph};

/// O(1)-per-field necessary condition for `pattern ⊆ target`, evaluated
/// purely on cached signatures: target must hold every edge-pair feature
/// of pattern and dominate it in vertex count, edge count, maximum degree
/// and per-label occurrence counts.
///
/// `false` means containment is impossible; `true` means "cannot rule
/// out" — the matcher still decides.
#[inline]
pub fn signature_may_contain(pattern: &GraphSignature, target: &GraphSignature) -> bool {
    target.dominates(pattern)
}

/// Necessary condition for `pattern ⊆ target` on one-hop neighbourhoods:
/// every pattern vertex with 2 or more neighbours has a target vertex of
/// its label whose saturated neighbour-label counts are at least its own.
/// Builds either graph's profile table on its first use.
///
/// `false` means containment is impossible; `true` means "cannot rule
/// out".
#[inline]
pub fn profile_may_contain(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    target.profiles().dominates(pattern.profiles())
}

/// Returns `false` if `pattern ⊆ target` is impossible for trivial
/// counting reasons; `true` means "cannot rule out".
pub fn may_contain(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    if !signature_may_contain(pattern.signature(), target.signature()) {
        return false;
    }
    degree_sequence_dominated(pattern, target)
}

/// Sorted-descending degree-sequence domination: the i-th largest pattern
/// degree must be ≤ the i-th largest target degree. Necessary for
/// non-induced containment because an embedding maps each pattern vertex
/// onto a target vertex of at least its degree, injectively.
pub fn degree_sequence_dominated(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    let dp = pattern.degree_sequence();
    let dt = target.degree_sequence();
    if dp.len() > dt.len() {
        return false;
    }
    dp.iter().zip(dt.iter()).all(|(p, t)| p <= t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::LabeledGraph;

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    #[test]
    fn size_rejects() {
        let big = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
        let small = g(vec![0, 0], &[(0, 1)]);
        assert!(!may_contain(&big, &small));
        assert!(may_contain(&small, &big));
        assert!(!signature_may_contain(big.signature(), small.signature()));
    }

    #[test]
    fn label_rejects() {
        let p = g(vec![5], &[]);
        let t = g(vec![1, 2, 3], &[(0, 1)]);
        assert!(!may_contain(&p, &t));
        assert!(!signature_may_contain(p.signature(), t.signature()));
    }

    #[test]
    fn degree_sequence_rejects_star_in_path() {
        // star K1,3 cannot embed in P4 (max degree 2) despite equal sizes
        let star = g(vec![0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let path = g(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        assert!(!may_contain(&star, &path));
        assert!(!may_contain(&path, &star)); // P4 has 3 edges = star, but degrees [2,2,1,1] vs [3,1,1,1]
                                             // the signature tier already catches the star-in-path direction via
                                             // the cached max degree — no degree-sequence sort needed
        assert!(!signature_may_contain(star.signature(), path.signature()));
    }

    #[test]
    fn signature_tier_is_weaker_than_degree_sequence_tier() {
        // degrees [2,2,1,1] vs [3,1,1,1]: equal max-degree ordering cannot
        // see this, the full degree-sequence check can
        let path = g(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let star = g(vec![0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        assert!(signature_may_contain(path.signature(), star.signature()));
        assert!(!may_contain(&path, &star));
    }

    #[test]
    fn profile_tier_sees_what_the_signature_cannot() {
        // 1-0-1 in 1-0-0-1: every count and edge pair is dominated, but no
        // label-0 vertex has two label-1 neighbours
        let p = g(vec![0, 1, 1], &[(0, 1), (0, 2)]);
        let t = g(vec![1, 0, 0, 1], &[(0, 1), (1, 2), (2, 3)]);
        assert!(signature_may_contain(p.signature(), t.signature()));
        assert!(!profile_may_contain(&p, &t));
        assert!(profile_may_contain(&p, &p));
        assert!(profile_may_contain(&t, &t));
    }

    #[test]
    fn filter_accepts_plausible_pair() {
        let tri = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let p2 = g(vec![0, 0], &[(0, 1)]);
        assert!(may_contain(&p2, &tri));
        assert!(may_contain(&tri, &tri));
        assert!(signature_may_contain(p2.signature(), tri.signature()));
        assert!(signature_may_contain(tri.signature(), tri.signature()));
    }

    #[test]
    fn empty_pattern_always_may() {
        let empty = LabeledGraph::new();
        let t = g(vec![0], &[]);
        assert!(may_contain(&empty, &t));
        assert!(may_contain(&empty, &empty));
        assert!(signature_may_contain(empty.signature(), t.signature()));
    }
}
