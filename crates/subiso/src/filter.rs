//! Cheap necessary-condition filters applied before any sub-iso search.
//!
//! These are the standard quick rejects shared by every SI algorithm:
//! label-multiset domination, the one-hop edge-pair fingerprint,
//! per-vertex neighbourhood profiles and label paths. None of them is
//! sufficient — they only rule out pairs that *cannot* satisfy
//! `pattern ⊆ target`.
//!
//! Three tiers:
//!
//! * [`signature_may_contain`] — the **pre-filter stage** of Method M's
//!   candidate scan: compares the two graphs' cached
//!   [`GraphSignature`]s on two screens: the label-frequency histogram,
//!   and a 256-bit fingerprint of which label pairs the edges join and
//!   how often (up to 4). An embedding sends edges injectively to edges
//!   of the same label pair, so the target has every `(pair, ≥ t)`
//!   feature the pattern has and the pattern's bits are a subset of the
//!   target's — tested first, as four and-nots. Vertex counts follow
//!   from the histogram; edge counts and degrees are left to local
//!   pruning. No per-call allocation, no graph traversal — every
//!   field is built once per graph, on its first read, and cached on it,
//!   so a scan can reject a candidate
//!   in nanoseconds before any matcher runs. Rejections are tallied as
//!   `prefilter_skips` in [`MethodAnswer`](crate::MethodAnswer) and
//!   surface in `gc-core`'s `QueryMetrics`. The label index folds this
//!   tier into CS_M, so an index-backed scan does not repeat it. GC+'s
//!   hit probe and its maintenance disproof use this tier too;
//! * [`profile_may_contain`] — **local pruning**, run by [`decide`] right
//!   before the matcher on every pair that reaches it: each of Method M's
//!   candidates, prefilter or not, and each of GC+'s hit probes the
//!   signatures and identity leave open:
//!   GraphQL's phase-1 neighbourhood-profile test lifted from "which
//!   target vertices may host `u`" to "may any host `u`", over the two
//!   graphs' cached
//!   [`VertexProfiles`](gc_graph::features::VertexProfiles) (one packed
//!   word per vertex: its neighbours counted by label, and by label among
//!   those with at least 2 and at least 3 neighbours of their own, with
//!   label ids folded by frequency rank so that rare labels share lanes
//!   only with each other; and a ring bit, set iff the vertex
//!   lies on a cycle, which an embedding maps onto a cycle; one SWAR
//!   subtract and mask per compared pair of words). It is per pair, so no
//!   index can fold it in;
//! * [`paths_may_contain`] — local pruning's **path words**, run by
//!   [`decide`] after the profiles when its caller asks: GraphGrep's label
//!   paths, here the label sequences of the simple paths of 3 edges,
//!   hashed into 512 bits per graph
//!   ([`PathWords`](gc_graph::features::PathWords)); the pattern's bits
//!   must be a subset of the target's. A graph's words cost about half
//!   its profile table to build, once, but most requests
//!   never need them: most of Method M's scans decide every pair by the
//!   profiles or by an embedding the matcher finds at once. So the tier is
//!   *gated*: a scan asks for it only after its first search that ended
//!   negative, and from then on for every pair. A scan that never searches
//!   a negative builds no words, for its query or for the dataset graphs
//!   it meets. GC+'s hit probe never asks: its pairs are two small
//!   queries, whose searches are short, and asking would make a hot
//!   request, nearly always an exact hit, build the incoming query's
//!   words for searches it saves little on.
//!
//! A rejection by either local-pruning tier is an ordinary negative
//! decision: of Method M's verify step, or of a hit probe, charged to the
//! budget and counted as a probe all the same.

use gc_graph::{GraphSignature, LabeledGraph};

use crate::{CancelToken, Interrupt, SubgraphMatcher};

/// Necessary condition for `pattern ⊆ target`, evaluated purely on cached
/// signatures: target must hold every edge-pair feature of pattern and
/// dominate it in per-label occurrence counts.
///
/// `false` means containment is impossible; `true` means "cannot rule
/// out" — the matcher still decides.
#[inline]
pub fn signature_may_contain(pattern: &GraphSignature, target: &GraphSignature) -> bool {
    target.dominates(pattern)
}

/// Necessary condition for `pattern ⊆ target` on neighbourhoods: every
/// pattern vertex with 2 or more neighbours has a target vertex of its
/// label whose saturated neighbour counts are at least its own — counted
/// by label, and by label among the neighbours with at least 2 and at
/// least 3 neighbours — and that lies on a ring if it does. Builds either
/// graph's profile table on its first use.
///
/// `false` means containment is impossible; `true` means "cannot rule
/// out".
#[inline]
pub fn profile_may_contain(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    target.profiles().dominates(pattern.profiles())
}

/// Necessary condition for `pattern ⊆ target` on label paths: every
/// label sequence a simple path of 3 edges spells in the pattern is
/// spelled by one in the target, tested on the two graphs' cached
/// [`PathWords`](gc_graph::features::PathWords). Builds the pattern's
/// words on their first use, and the target's only if the pattern has a
/// word (a star, or any graph without a 3-edge path, has none). A graph
/// too dense to build them (past
/// [`PATH_STEP_CAP`](gc_graph::features::PATH_STEP_CAP)) has no words at
/// all, and then this tier passes the pair.
///
/// `false` means containment is impossible; `true` means "cannot rule
/// out".
#[inline]
pub fn paths_may_contain(pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
    pattern
        .path_words()
        .is_none_or(|p| p.is_empty() || target.path_words().is_none_or(|t| t.covers(p)))
}

/// How [`decide`] settled a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Local pruning ruled it out: no search ran.
    Pruned,
    /// The matcher found an embedding.
    Positive,
    /// The matcher had to search to find that there is none.
    SearchedNegative,
}

/// Decides `pattern ⊆ target`: local pruning (the profile tables, then,
/// with `paths`, the path words), then `matcher` under `token`. Every
/// containment search of the workspace comes through here (Method M's
/// verify step and GC+'s hit probe), after its caller's signature filter
/// and budget charge. A pair local pruning rejects is an ordinary negative
/// decision; `Err` means the budget fired mid-search.
#[inline]
pub fn decide(
    matcher: &dyn SubgraphMatcher,
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    token: &CancelToken,
    paths: bool,
) -> Result<Outcome, Interrupt> {
    if !profile_may_contain(pattern, target) || paths && !paths_may_contain(pattern, target) {
        return Ok(Outcome::Pruned);
    }
    Ok(if matcher.contains_budgeted(pattern, target, token)? {
        Outcome::Positive
    } else {
        Outcome::SearchedNegative
    })
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
        assert!(!signature_may_contain(big.signature(), small.signature()));
        assert!(signature_may_contain(small.signature(), big.signature()));
        assert!(profile_may_contain(&small, &big));
    }

    #[test]
    fn label_rejects() {
        let p = g(vec![5], &[]);
        let t = g(vec![1, 2, 3], &[(0, 1)]);
        assert!(!signature_may_contain(p.signature(), t.signature()));
    }

    #[test]
    fn max_degree_rejects_star_in_path() {
        // star K1,3 cannot embed in P4 (max degree 2): equal labels and
        // three 0-0 edges each, so the signature passes, and the profile
        // tier sees that no path vertex has the hub's three neighbours
        let star = g(vec![0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        let path = g(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        assert!(signature_may_contain(star.signature(), path.signature()));
        assert!(!profile_may_contain(&star, &path));
    }

    #[test]
    fn profile_tier_rejects_path_in_star() {
        // P4 in K1,3: equal labels and edge pairs, so the signature
        // passes. P4's inner
        // vertices each need a neighbour with 2 neighbours of its own; the
        // star's hub has only leaves
        let path = g(vec![0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3)]);
        let star = g(vec![0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3)]);
        assert!(signature_may_contain(path.signature(), star.signature()));
        assert!(!profile_may_contain(&path, &star));
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
    fn path_tier_sees_what_the_profiles_cannot() {
        // 1-0-0-2 in the paths 1-0-0-1 and 2-0-0-2: every count, edge pair
        // and profile entry is covered, but no path spells 1-0-0-2
        let p = g(vec![1, 0, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        let t = g(
            vec![1, 0, 0, 1, 2, 0, 0, 2],
            &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)],
        );
        assert!(signature_may_contain(p.signature(), t.signature()));
        assert!(profile_may_contain(&p, &t));
        assert!(!paths_may_contain(&p, &t));
        assert!(paths_may_contain(&p, &p) && paths_may_contain(&t, &t));
        // the gate: shut, the matcher has to search; open, the words decide
        let vf2 = crate::Algorithm::Vf2.matcher();
        let token = CancelToken::unlimited_ref();
        assert_eq!(
            decide(vf2, &p, &t, token, false),
            Ok(Outcome::SearchedNegative)
        );
        assert_eq!(decide(vf2, &p, &t, token, true), Ok(Outcome::Pruned));
        assert_eq!(decide(vf2, &p, &p, token, true), Ok(Outcome::Positive));
    }

    #[test]
    fn path_tier_passes_what_it_has_no_words_for() {
        // a star spells no 3-edge path, and a clique past the step cap has
        // no words: neither side can reject
        let star = g(vec![2, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
        let p = g(vec![1, 0, 0, 2], &[(0, 1), (1, 2), (2, 3)]);
        assert!(paths_may_contain(&star, &p));
        let n = 200u32;
        let edges: Vec<_> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        let clique = g(vec![0; n as usize], &edges);
        assert!(clique.path_words().is_none());
        assert!(paths_may_contain(&p, &clique));
        assert!(paths_may_contain(&clique, &p));
    }

    #[test]
    fn filter_accepts_plausible_pair() {
        let tri = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let p2 = g(vec![0, 0], &[(0, 1)]);
        let p3 = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(signature_may_contain(p2.signature(), tri.signature()));
        assert!(signature_may_contain(tri.signature(), tri.signature()));
        assert!(profile_may_contain(&p3, &tri));
        assert!(profile_may_contain(&tri, &tri));
    }

    #[test]
    fn empty_pattern_always_may() {
        let empty = LabeledGraph::new();
        let t = g(vec![0], &[]);
        assert!(signature_may_contain(empty.signature(), t.signature()));
        assert!(profile_may_contain(&empty, &t));
        assert!(profile_may_contain(&empty, &empty));
    }
}
