//! GraphQL (GQL) — He & Singh, SIGMOD 2008 — as characterized in Lee et
//! al.'s in-depth comparison (the paper's source for "well-established,
//! good performer").
//!
//! Three phases:
//!
//! 1. **Local pruning by neighborhood profiles.** Every pattern vertex `u`
//!    receives a candidate set
//!    `C(u) = { v : l(u)=l(v), deg(v) ≥ deg(u), profile(u) ⊑ profile(v) }`,
//!    where a vertex's *profile* is the sorted multiset of labels in its
//!    radius-1 closed neighborhood and `⊑` is multiset containment.
//! 2. **Global refinement by pseudo-isomorphism.** Iteratively (up to
//!    [`GraphQl::refine_levels`] rounds, or until fixpoint): `v` stays in
//!    `C(u)` only if the bipartite graph between `N(u)` and `N(v)` with
//!    edges `{(w,z) : z ∈ C(w)}` admits a matching saturating `N(u)`
//!    (see [`crate::bipartite`]).
//! 3. **Search.** Pattern vertices are ordered greedily by ascending
//!    candidate-set size (connected-first); backtracking enumerates
//!    candidates, restricted to neighbors of already-mapped images, with
//!    the usual consistency check.
//!
//! All phases preserve *non-induced* semantics: only pattern edges must be
//! realized in the target.

use gc_graph::{Label, LabeledGraph, VertexId};

use crate::bipartite::has_saturating_matching;
use crate::cancel::{CancelToken, Interrupt, CHECK_INTERVAL};
use crate::{MatchStats, SubgraphMatcher};

const UNMAPPED: u32 = u32::MAX;

/// GQL matcher. `refine_levels` bounds the global-refinement rounds
/// (GraphQL's "pseudo-isomorphism level"); 2 is the conventional default.
#[derive(Debug, Clone, Copy)]
pub struct GraphQl {
    /// Number of global refinement iterations (0 disables phase 2).
    pub refine_levels: usize,
}

impl GraphQl {
    /// Default configuration (2 refinement rounds).
    pub const DEFAULT: GraphQl = GraphQl { refine_levels: 2 };
}

impl Default for GraphQl {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Sorted label multiset of `v`'s closed neighborhood.
fn profile(g: &LabeledGraph, v: VertexId) -> Vec<Label> {
    let mut p: Vec<Label> = g.neighbors(v).iter().map(|&w| g.label(w.into())).collect();
    p.push(g.label(v));
    p.sort_unstable();
    p
}

/// Sorted-multiset containment: every element of `small` appears in `big`
/// with at least the same multiplicity.
fn multiset_contained(small: &[Label], big: &[Label]) -> bool {
    let mut bi = 0;
    for &s in small {
        loop {
            if bi >= big.len() {
                return false;
            }
            if big[bi] < s {
                bi += 1;
            } else if big[bi] == s {
                bi += 1;
                break;
            } else {
                return false;
            }
        }
    }
    true
}

struct GqlSearch<'g> {
    pattern: &'g LabeledGraph,
    target: &'g LabeledGraph,
    candidates: Vec<Vec<VertexId>>,
    order: Vec<VertexId>,
    map: Vec<u32>,
    used: Vec<bool>,
    nodes: u64,
    /// Optional budget; consulted every [`CHECK_INTERVAL`] expanded nodes.
    token: Option<&'g CancelToken>,
    /// Set when the token fired; makes the recursion unwind promptly.
    interrupted: Option<Interrupt>,
}

impl GqlSearch<'_> {
    fn search(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            return true;
        }
        let u = self.order[depth];
        // iterate over a snapshot of C(u); candidate sets are small after
        // refinement, and cloning sidesteps simultaneous-borrow issues
        let cands = self.candidates[u as usize].clone();
        for v in cands {
            if self.interrupted.is_some() {
                return false;
            }
            self.nodes += 1;
            if self.nodes & (CHECK_INTERVAL - 1) == 0 {
                if let Some(token) = self.token {
                    if let Err(interrupt) = token.check() {
                        self.interrupted = Some(interrupt);
                        return false;
                    }
                }
            }
            if self.feasible(u, v) {
                self.map[u as usize] = v;
                self.used[v as usize] = true;
                if self.search(depth + 1) {
                    return true;
                }
                self.map[u as usize] = UNMAPPED;
                self.used[v as usize] = false;
            }
        }
        false
    }

    fn feasible(&self, u: VertexId, v: VertexId) -> bool {
        if self.used[v as usize] {
            return false;
        }
        for &w in self.pattern.neighbors(u) {
            let img = self.map[w as usize];
            if img != UNMAPPED && !self.target.has_edge(v, img) {
                return false;
            }
        }
        true
    }
}

impl GraphQl {
    /// Builds refined candidate sets; `None` means "some pattern vertex has
    /// no candidate" (early rejection).
    fn build_candidates(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> Option<Vec<Vec<VertexId>>> {
        let np = pattern.vertex_count();
        // Phase 1: profile-based local pruning.
        let target_profiles: Vec<Vec<Label>> =
            target.vertices().map(|v| profile(target, v)).collect();
        let mut candidates: Vec<Vec<VertexId>> = Vec::with_capacity(np);
        for u in pattern.vertices() {
            let pu = profile(pattern, u);
            let du = pattern.degree(u);
            let lu = pattern.label(u);
            let c: Vec<VertexId> = target
                .vertices()
                .filter(|&v| {
                    target.label(v) == lu
                        && target.degree(v) >= du
                        && multiset_contained(&pu, &target_profiles[v as usize])
                })
                .collect();
            if c.is_empty() {
                return None;
            }
            candidates.push(c);
        }
        // Phase 2: global refinement by semi-perfect matching.
        let mut in_c: Vec<Vec<bool>> = candidates
            .iter()
            .map(|c| {
                let mut row = vec![false; target.vertex_count()];
                for &v in c {
                    row[v as usize] = true;
                }
                row
            })
            .collect();
        for _ in 0..self.refine_levels {
            let mut changed = false;
            for u in 0..np as VertexId {
                let nu = pattern.neighbors(u);
                if nu.is_empty() {
                    continue;
                }
                let mut retained = Vec::with_capacity(candidates[u as usize].len());
                for &v in &candidates[u as usize] {
                    // bipartite graph: left = N(u), right = N(v);
                    // (w, z) compatible iff z ∈ C(w)
                    let nv = target.neighbors(v);
                    let left_adj: Vec<Vec<usize>> = nu
                        .iter()
                        .map(|&w| {
                            nv.iter()
                                .enumerate()
                                .filter(|(_, &z)| in_c[w as usize][z as usize])
                                .map(|(zi, _)| zi)
                                .collect()
                        })
                        .collect();
                    if has_saturating_matching(&left_adj, nv.len()) {
                        retained.push(v);
                    } else {
                        in_c[u as usize][v as usize] = false;
                        changed = true;
                    }
                }
                if retained.is_empty() {
                    return None;
                }
                candidates[u as usize] = retained;
            }
            if !changed {
                break;
            }
        }
        Some(candidates)
    }

    /// Greedy search order: cheapest candidate set first, preferring
    /// vertices connected to the already-ordered prefix.
    fn search_order(pattern: &LabeledGraph, candidates: &[Vec<VertexId>]) -> Vec<VertexId> {
        let n = pattern.vertex_count();
        let mut order = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let mut connected = vec![false; n];
        for step in 0..n {
            let pick = (0..n as VertexId)
                .filter(|&i| !placed[i as usize])
                .min_by_key(|&i| {
                    let conn_rank = if step == 0 || connected[i as usize] {
                        0
                    } else {
                        1
                    };
                    (conn_rank, candidates[i as usize].len(), i)
                })
                .expect("some vertex remains");
            placed[pick as usize] = true;
            order.push(pick);
            for &w in pattern.neighbors(pick) {
                connected[w as usize] = true;
            }
        }
        order
    }

    fn run(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> (Option<Vec<VertexId>>, MatchStats) {
        match self.run_budgeted(pattern, target, None) {
            Ok(r) => r,
            // without a token the search cannot be interrupted
            Err(_) => unreachable!("interrupt without an attached token"),
        }
    }

    /// Runs under an optional budget. `Err` means the search was cut short
    /// and the (non-)existence of an embedding is *unknown*. The candidate
    /// construction phases are polynomial and run to completion; only the
    /// exponential search phase carries checkpoints.
    fn run_budgeted(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        token: Option<&CancelToken>,
    ) -> Result<(Option<Vec<VertexId>>, MatchStats), Interrupt> {
        if let Some(t) = token {
            t.check()?;
        }
        if pattern.vertex_count() > target.vertex_count()
            || pattern.edge_count() > target.edge_count()
        {
            return Ok((None, MatchStats::default()));
        }
        if pattern.vertex_count() == 0 {
            return Ok((Some(Vec::new()), MatchStats::default()));
        }
        let candidates = match self.build_candidates(pattern, target) {
            Some(c) => c,
            None => return Ok((None, MatchStats::default())),
        };
        let order = Self::search_order(pattern, &candidates);
        let mut s = GqlSearch {
            pattern,
            target,
            candidates,
            order,
            map: vec![UNMAPPED; pattern.vertex_count()],
            used: vec![false; target.vertex_count()],
            nodes: 0,
            token,
            interrupted: None,
        };
        let found = s.search(0);
        if let Some(interrupt) = s.interrupted {
            return Err(interrupt);
        }
        let stats = MatchStats { nodes: s.nodes };
        if found {
            Ok((Some(s.map), stats))
        } else {
            Ok((None, stats))
        }
    }
}

impl SubgraphMatcher for GraphQl {
    fn name(&self) -> &'static str {
        "GQL"
    }

    fn contains_with_stats(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> (bool, MatchStats) {
        let (embedding, stats) = self.run(pattern, target);
        (embedding.is_some(), stats)
    }

    fn find_embedding(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> Option<Vec<VertexId>> {
        self.run(pattern, target).0
    }

    fn contains_budgeted(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        token: &CancelToken,
    ) -> Result<bool, Interrupt> {
        self.run_budgeted(pattern, target, Some(token))
            .map(|(embedding, _)| embedding.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForce;
    use crate::vf2::verify_embedding;
    use gc_graph::generate::random_connected_graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    #[test]
    fn multiset_containment_cases() {
        assert!(multiset_contained(&[], &[]));
        assert!(multiset_contained(&[1], &[1, 1]));
        assert!(multiset_contained(&[1, 1], &[1, 1, 2]));
        assert!(!multiset_contained(&[1, 1], &[1, 2]));
        assert!(!multiset_contained(&[3], &[1, 2]));
        assert!(!multiset_contained(&[0], &[1]));
    }

    #[test]
    fn profiles_sorted_closed_neighborhood() {
        let t = g(vec![5, 1, 9], &[(0, 1), (1, 2)]);
        assert_eq!(profile(&t, 1), vec![1, 5, 9]);
        assert_eq!(profile(&t, 0), vec![1, 5]);
    }

    #[test]
    fn non_induced_semantics() {
        let tri = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let p3 = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
        assert!(GraphQl::DEFAULT.contains(&p3, &tri));
        assert!(!GraphQl::DEFAULT.contains(&tri, &p3));
    }

    #[test]
    fn refinement_rejects_unsatisfiable_neighborhood() {
        // u needs two distinct label-1 neighbors; target vertex has one
        let p = g(vec![0, 1, 1], &[(0, 1), (0, 2)]);
        let t = g(vec![0, 1], &[(0, 1)]);
        assert!(!GraphQl::DEFAULT.contains(&p, &t));
    }

    #[test]
    fn zero_refinement_still_correct() {
        let gql0 = GraphQl { refine_levels: 0 };
        let tri = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let c4 = g(vec![0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(!gql0.contains(&c4, &tri));
        assert!(gql0.contains(&tri, &tri));
    }

    #[test]
    fn embedding_valid() {
        let p = g(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(17);
        let t = random_connected_graph(&mut rng, 12, 6, |r| r.random_range(0..2u16));
        if let Some(e) = GraphQl::DEFAULT.find_embedding(&p, &t) {
            assert!(verify_embedding(&p, &t, &e));
        }
    }

    #[test]
    fn randomized_agreement_with_bruteforce() {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut positives = 0;
        for i in 0..150 {
            let tn = rng.random_range(3..10usize);
            let extra = rng.random_range(0..tn.min(4));
            let target = random_connected_graph(&mut rng, tn, extra, |r| r.random_range(0..3u16));
            let pn = rng.random_range(1..6usize);
            let pextra = if pn >= 4 { rng.random_range(0..2) } else { 0 };
            let pattern = random_connected_graph(&mut rng, pn, pextra, |r| r.random_range(0..3u16));
            let expected = BruteForce.contains(&pattern, &target);
            let got = GraphQl::DEFAULT.contains(&pattern, &target);
            assert_eq!(expected, got, "case {i}:\nP={pattern:?}\nT={target:?}");
            if expected {
                positives += 1;
            }
        }
        assert!(positives > 15, "positives: {positives}");
    }
}
