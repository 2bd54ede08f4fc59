//! VF2 for non-induced subgraph isomorphism (Cordella, Foggia, Sansone,
//! Vento, TPAMI 2004 — the monomorphism variant).
//!
//! The module hosts a shared backtracking engine that both vanilla VF2 and
//! VF2+ instantiate; the two differ only in their static variable ordering
//! and candidate-pruning options ([`EngineOptions`]), which is exactly how
//! CT-Index's "modified VF2" is described relative to the original.
//!
//! ### Feasibility rules (monomorphism-safe)
//!
//! Matching pattern vertex `u` onto target vertex `v` requires:
//!
//! 1. `l(u) = l(v)` and `v` unused;
//! 2. *consistency*: every already-mapped neighbor `w` of `u` has
//!    `(v, φ(w)) ∈ E(T)` — pattern edges must be preserved (target-only
//!    edges are fine: the containment is non-induced);
//! 3. *lookahead (cardinality)*: `u`'s unmapped neighbors must not
//!    outnumber `v`'s unused neighbors — each future neighbor of `u` must
//!    land on a distinct unused neighbor of `v`;
//! 4. *lookahead (terminal)*: `u`'s unmapped neighbors already adjacent to
//!    the mapped region must not outnumber `v`'s unused neighbors adjacent
//!    to the used region.
//!
//! Rules 3–4 are the original VF2 cut rules with `≤` comparisons, the form
//! that stays sound for non-induced containment.
//!
//! ### Execution
//!
//! The matching order is static: it is fixed before the search starts, and
//! every branch maps pattern vertices in that order. So at depth `d` the
//! mapped pattern vertices are exactly `order[..d]`, and everything the
//! rules read on the pattern side is a constant of the depth, not of the
//! search node: which mapped neighbor anchors the candidate pool, which
//! mapped neighbors rule 2 checks, the two counts of rules 3–4, and (VF2+)
//! the label multiset of `u`'s unmapped neighbors. Each test first compiles
//! them into a per-depth [`Step`] (the *plan*); the search then reads only
//! the plan and target-side state.
//!
//! Target-side state is one `u32` per target vertex: a [`USED`] bit plus
//! the number of used neighbors, so the rule 3–4 scan over `v`'s row is one
//! load and two compares per neighbor. Rows are read through the target's
//! CSR arrays ([`LabeledGraph::csr`]): `u32` offsets and one `u16` per
//! neighbour, widened to a [`VertexId`] where a neighbour becomes a
//! candidate or an image.
//!
//! Plan and state live in one per-thread `Vf2Scratch`, reset at the start
//! of every test — a search that found an embedding returns mid-descent,
//! one cut short by a panic never unwinds, and whatever a search leaves
//! behind the next one must not see — and released when a test grows it
//! past [`RETAINED_BYTES`]. No caller sees it: the [`SubgraphMatcher`]
//! surface is unchanged.
//!
//! None of this changes what is tried: the same order, the same candidates
//! in the same sequence and the same cut decisions as re-deriving every
//! rule at every node, so [`MatchStats::nodes`] and every answer are
//! exactly those of that per-node formulation. `scan_anchors.rs` in the
//! bench crate pins the node totals.

use std::cell::RefCell;
use std::cmp::Reverse;

use gc_graph::{Label, LabeledGraph, VertexId};

use crate::cancel::{CancelToken, Interrupt, CHECK_INTERVAL};
use crate::{MatchStats, SubgraphMatcher};

/// "None" in every `u32` slot of the engine: a pattern vertex not yet
/// ordered (`rank`), a depth with no anchor ([`Step::anchor`]).
const NONE: u32 = u32::MAX;

/// Target-state bit: the vertex is the image of a mapped pattern vertex.
/// The bits below it count the vertex's used neighbors.
const USED: u32 = 1 << 31;

/// Most scratch bytes a thread keeps between tests. A test on a larger
/// pattern or target grows the scratch for itself and then releases it, so
/// a hostile wire query cannot pin memory on a connection thread.
const RETAINED_BYTES: usize = 64 * 1024;

/// Pruning/ordering configuration distinguishing VF2 from VF2+.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineOptions {
    /// Require `deg(v) ≥ deg(u)` for candidates (VF2+).
    pub degree_check: bool,
    /// Require `v`'s unused neighbor labels to dominate `u`'s unmapped
    /// neighbor labels (VF2+).
    pub neighbor_label_check: bool,
    /// Rare-label-first, degree-descending static ordering (VF2+); vanilla
    /// VF2 uses plain connectivity order by vertex id.
    pub rare_label_order: bool,
}

impl EngineOptions {
    pub(crate) fn contains_with_stats(
        self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> (bool, MatchStats) {
        let (found, stats) = unbudgeted(run(pattern, target, self, None, |_| ()));
        (found.is_some(), stats)
    }

    pub(crate) fn find_embedding(
        self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> Option<Vec<VertexId>> {
        unbudgeted(run(pattern, target, self, None, <[VertexId]>::to_vec)).0
    }

    /// `Err` means the search was cut short and the (non-)existence of an
    /// embedding is *unknown*.
    pub(crate) fn contains_budgeted(
        self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        token: &CancelToken,
    ) -> Result<bool, Interrupt> {
        run(pattern, target, self, Some(token), |_| ()).map(|(found, _)| found.is_some())
    }
}

fn unbudgeted<R>(outcome: Result<R, Interrupt>) -> R {
    // without a token the search cannot be interrupted
    outcome.unwrap_or_else(|_| unreachable!("interrupt without an attached token"))
}

thread_local! {
    static SCRATCH: RefCell<Vf2Scratch> = RefCell::new(Vf2Scratch::default());
}

/// Runs one test on this thread's scratch. On success `found` sees the
/// embedding (pattern vertex → target vertex) if there is one.
fn run<R>(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    opts: EngineOptions,
    token: Option<&CancelToken>,
    found: impl FnOnce(&[VertexId]) -> R,
) -> Result<(Option<R>, MatchStats), Interrupt> {
    if pattern.vertex_count() > target.vertex_count() || pattern.edge_count() > target.edge_count()
    {
        return Ok((None, MatchStats { nodes: 0 }));
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let outcome = scratch.run(pattern, target, opts, token, found);
        if scratch.retained_bytes() > RETAINED_BYTES {
            *scratch = Vf2Scratch::default();
        }
        outcome
    })
}

/// Everything the search reads at one depth of the static order: the
/// pattern side of the feasibility rules, computed once per test.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The pattern vertex `u` mapped at this depth.
    vertex: VertexId,
    label: Label,
    /// Least candidate degree: `deg(u)` under VF2+'s degree filter, else 0.
    min_degree: u32,
    /// `u`'s first already-ordered neighbor in adjacency order: the
    /// candidates are the target neighbors of its image. [`NONE`] starts a
    /// new component, where every target vertex is a candidate.
    anchor: VertexId,
    /// Range of `Vf2Scratch::back`: `u`'s other already-ordered neighbors,
    /// whose images rule 2 checks (the anchor's holds by construction).
    back: (u32, u32),
    /// Rule 3: `u`'s neighbors later in the order.
    un_pat: u32,
    /// Rule 4: those of them adjacent to an already-ordered vertex.
    term_pat: u32,
    /// Range of `Vf2Scratch::need` (VF2+): the labels of `u`'s later
    /// neighbors, with multiplicity; empty under vanilla VF2.
    need: (u32, u32),
}

/// One thread's engine state, reused test after test.
#[derive(Default)]
struct Vf2Scratch {
    /// The plan, one step per depth.
    plan: Vec<Step>,
    back: Vec<VertexId>,
    need: Vec<(Label, u32)>,
    /// Per pattern vertex while compiling: its depth ([`NONE`] until it is
    /// ordered), its number of ordered neighbors, and (VF2+) how often its
    /// label occurs in the target.
    rank: Vec<u32>,
    linked: Vec<u32>,
    rarity: Vec<u32>,
    /// pattern → target; entry `u` is valid while `u` is mapped.
    map: Vec<VertexId>,
    /// Per target vertex: [`USED`] | number of used neighbors.
    state: Vec<u32>,
}

fn reset(v: &mut Vec<u32>, len: usize, value: u32) {
    v.clear();
    v.resize(len, value);
}

fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl Vf2Scratch {
    fn retained_bytes(&self) -> usize {
        bytes(&self.plan)
            + bytes(&self.back)
            + bytes(&self.need)
            + bytes(&self.rank)
            + bytes(&self.linked)
            + bytes(&self.rarity)
            + bytes(&self.map)
            + bytes(&self.state)
    }

    fn run<R>(
        &mut self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        opts: EngineOptions,
        token: Option<&CancelToken>,
        found: impl FnOnce(&[VertexId]) -> R,
    ) -> Result<(Option<R>, MatchStats), Interrupt> {
        self.compile(pattern, target, opts);
        reset(&mut self.map, pattern.vertex_count(), NONE);
        reset(&mut self.state, target.vertex_count(), 0);
        let (offsets, adjacency) = target.csr();
        let mut search = Search {
            plan: &self.plan,
            back: &self.back,
            need: &self.need,
            map: &mut self.map,
            state: &mut self.state,
            offsets,
            adjacency,
            labels: target.labels(),
            nodes: 0,
            token,
            interrupted: None,
        };
        let hit = search.search(0);
        let stats = MatchStats {
            nodes: search.nodes,
        };
        match search.interrupted {
            Some(interrupt) => Err(interrupt),
            None => Ok((hit.then(|| found(&self.map)), stats)),
        }
    }

    /// Orders the pattern and builds the plan in one greedy pass: each
    /// round picks the next vertex, then records its step against the
    /// vertices ordered before it.
    fn compile(&mut self, pattern: &LabeledGraph, target: &LabeledGraph, opts: EngineOptions) {
        let n = pattern.vertex_count();
        self.plan.clear();
        self.back.clear();
        self.need.clear();
        reset(&mut self.rank, n, NONE);
        reset(&mut self.linked, n, 0);
        if opts.rare_label_order {
            let hist = &target.signature().labels;
            self.rarity.clear();
            self.rarity.extend(pattern.labels().iter().map(|&l| {
                hist.binary_search_by_key(&l, |e| e.label())
                    .map_or(0, |i| hist[i].count())
            }));
        }
        for depth in 0..n as u32 {
            let u = if opts.rare_label_order {
                self.next_rare(pattern)
            } else {
                self.next_connected()
            };
            self.rank[u as usize] = depth;
            let mut step = Step {
                vertex: u,
                label: pattern.label(u),
                min_degree: if opts.degree_check {
                    pattern.degree(u) as u32
                } else {
                    0
                },
                anchor: NONE,
                back: (self.back.len() as u32, 0),
                un_pat: 0,
                term_pat: 0,
                need: (self.need.len() as u32, 0),
            };
            for w in pattern.neighbors(u).iter().map(|&w| VertexId::from(w)) {
                if self.rank[w as usize] < depth {
                    if step.anchor == NONE {
                        step.anchor = w;
                    } else {
                        self.back.push(w);
                    }
                    continue;
                }
                step.un_pat += 1;
                step.term_pat += u32::from(self.linked[w as usize] > 0);
                if opts.neighbor_label_check {
                    let l = pattern.label(w);
                    match self.need[step.need.0 as usize..]
                        .iter_mut()
                        .find(|(nl, _)| *nl == l)
                    {
                        Some((_, c)) => *c += 1,
                        None => self.need.push((l, 1)),
                    }
                }
            }
            step.back.1 = self.back.len() as u32;
            step.need.1 = self.need.len() as u32;
            for &w in pattern.neighbors(u) {
                self.linked[w as usize] += 1;
            }
            self.plan.push(step);
        }
    }

    /// Vanilla VF2 order: the smallest-id vertex adjacent to the ordered
    /// prefix, or the smallest-id remaining vertex when a new component
    /// starts.
    fn next_connected(&self) -> VertexId {
        let n = self.rank.len();
        let unplaced = |&i: &usize| self.rank[i] == NONE;
        (0..n)
            .filter(unplaced)
            .find(|&i| self.linked[i] > 0)
            .or_else(|| (0..n).find(unplaced))
            .expect("some vertex remains") as VertexId
    }

    /// VF2+ order: the vertex with the most ordered neighbors, then the
    /// label rarest in the target (`rarity` is that label's count there),
    /// then the highest degree, then the smallest id — so the first pick
    /// is the rarest-label, highest-degree vertex, and later picks extend
    /// the connected prefix while it can be extended.
    fn next_rare(&self, pattern: &LabeledGraph) -> VertexId {
        (0..self.rank.len())
            .filter(|&i| self.rank[i] == NONE)
            .min_by_key(|&i| {
                (
                    Reverse(self.linked[i]),
                    self.rarity[i],
                    Reverse(pattern.degree(i as VertexId)),
                    i,
                )
            })
            .expect("some vertex remains") as VertexId
    }
}

/// One test's backtracking over a compiled plan.
struct Search<'a> {
    plan: &'a [Step],
    back: &'a [VertexId],
    need: &'a [(Label, u32)],
    map: &'a mut [VertexId],
    state: &'a mut [u32],
    /// The target's CSR rows (one `u16` per neighbour) and labels.
    offsets: &'a [u32],
    adjacency: &'a [u16],
    labels: &'a [Label],
    nodes: u64,
    /// Optional budget; consulted every [`CHECK_INTERVAL`] expanded nodes.
    token: Option<&'a CancelToken>,
    /// Set when the token fired; makes the recursion unwind promptly.
    interrupted: Option<Interrupt>,
}

impl<'a> Search<'a> {
    #[inline]
    fn row(&self, v: VertexId) -> &'a [u16] {
        let v = v as usize;
        &self.adjacency[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Binary search over the shorter of the two rows; both ids are
    /// target vertices, so they fit a row's `u16`.
    #[inline]
    fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        let (ra, rb) = (self.row(a), self.row(b));
        if ra.len() <= rb.len() {
            ra.binary_search(&(b as u16)).is_ok()
        } else {
            rb.binary_search(&(a as u16)).is_ok()
        }
    }

    fn search(&mut self, depth: usize) -> bool {
        let Some(&step) = self.plan.get(depth) else {
            return true;
        };
        if step.anchor == NONE {
            self.extend(depth, &step, 0..self.labels.len() as VertexId)
        } else {
            let pool = self.row(self.map[step.anchor as usize]);
            self.extend(depth, &step, pool.iter().map(|&v| VertexId::from(v)))
        }
    }

    /// Tries every candidate of `pool` for `step.vertex`, recursing on
    /// each feasible one; one search node per candidate tried.
    fn extend(&mut self, depth: usize, step: &Step, pool: impl Iterator<Item = VertexId>) -> bool {
        for v in pool {
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
            if !self.feasible(step, v) {
                continue;
            }
            self.map[step.vertex as usize] = v;
            self.assign(v);
            if self.search(depth + 1) {
                return true;
            }
            self.unassign(v);
        }
        false
    }

    fn feasible(&self, step: &Step, v: VertexId) -> bool {
        if self.labels[v as usize] != step.label || self.state[v as usize] & USED != 0 {
            return false;
        }
        let row = self.row(v);
        if (row.len() as u32) < step.min_degree {
            return false;
        }
        // rule 2
        let back = &self.back[step.back.0 as usize..step.back.1 as usize];
        if !back.iter().all(|&w| self.has_edge(v, self.map[w as usize])) {
            return false;
        }
        // rules 3–4; with no later neighbor both hold trivially
        if step.un_pat > 0 {
            let (mut un_tgt, mut term_tgt) = (0u32, 0u32);
            for &z in row {
                let s = self.state[z as usize];
                un_tgt += u32::from(s < USED);
                // unused with a used neighbor: 1 ≤ s < USED
                term_tgt += u32::from(s.wrapping_sub(1) < USED - 1);
            }
            if step.un_pat > un_tgt || step.term_pat > term_tgt {
                return false;
            }
        }
        // VF2+: every label a later neighbor of `u` needs is on at least
        // as many unused neighbors of `v`
        self.need[step.need.0 as usize..step.need.1 as usize]
            .iter()
            .all(|&(l, c)| {
                let have = row
                    .iter()
                    .filter(|&&z| self.state[z as usize] < USED && self.labels[z as usize] == l)
                    .count();
                have >= c as usize
            })
    }

    fn assign(&mut self, v: VertexId) {
        self.state[v as usize] |= USED;
        for &z in self.row(v) {
            self.state[z as usize] += 1;
        }
    }

    fn unassign(&mut self, v: VertexId) {
        self.state[v as usize] &= !USED;
        for &z in self.row(v) {
            self.state[z as usize] -= 1;
        }
    }
}

/// Vanilla VF2.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vf2;

impl Vf2 {
    const OPTS: EngineOptions = EngineOptions {
        degree_check: false,
        neighbor_label_check: false,
        rare_label_order: false,
    };
}

impl SubgraphMatcher for Vf2 {
    fn name(&self) -> &'static str {
        "VF2"
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

/// Verifies that `embedding` is a label-preserving injective homomorphism
/// `pattern → target`. Test/diagnostic helper used across the workspace.
pub fn verify_embedding(
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    embedding: &[VertexId],
) -> bool {
    if embedding.len() != pattern.vertex_count() {
        return false;
    }
    // injective, in-range, label-preserving
    let mut seen = vec![false; target.vertex_count()];
    for (u, &v) in embedding.iter().enumerate() {
        if (v as usize) >= target.vertex_count() || seen[v as usize] {
            return false;
        }
        seen[v as usize] = true;
        if pattern.label(u as VertexId) != target.label(v) {
            return false;
        }
    }
    // edge preservation
    pattern
        .edges()
        .all(|(a, b)| target.has_edge(embedding[a as usize], embedding[b as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::LabeledGraph;

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    fn triangle() -> LabeledGraph {
        g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
    }

    fn path3() -> LabeledGraph {
        g(vec![0, 0, 0], &[(0, 1), (1, 2)])
    }

    #[test]
    fn non_induced_path_in_triangle() {
        // P3 ⊆ K3 holds for *non-induced* containment.
        assert!(Vf2.contains(&path3(), &triangle()));
        // K3 ⊄ P3
        assert!(!Vf2.contains(&triangle(), &path3()));
    }

    #[test]
    fn empty_pattern_contained_everywhere() {
        let empty = LabeledGraph::new();
        assert!(Vf2.contains(&empty, &triangle()));
        assert!(Vf2.contains(&empty, &empty));
        assert_eq!(Vf2.find_embedding(&empty, &triangle()), Some(vec![]));
    }

    #[test]
    fn label_preservation() {
        let p = g(vec![1, 2], &[(0, 1)]);
        let t_match = g(vec![2, 1, 3], &[(0, 1), (1, 2)]);
        let t_mismatch = g(vec![3, 3, 3], &[(0, 1), (1, 2)]);
        assert!(Vf2.contains(&p, &t_match));
        assert!(!Vf2.contains(&p, &t_mismatch));
    }

    #[test]
    fn self_containment() {
        let t = triangle();
        assert!(Vf2.contains(&t, &t));
        let e = Vf2.find_embedding(&t, &t).unwrap();
        assert!(verify_embedding(&t, &t, &e));
    }

    #[test]
    fn disconnected_pattern() {
        // two isolated labeled vertices inside a labeled path
        let p = g(vec![1, 3], &[]);
        let t = g(vec![1, 2, 3], &[(0, 1), (1, 2)]);
        assert!(Vf2.contains(&p, &t));
        let p_missing = g(vec![1, 4], &[]);
        assert!(!Vf2.contains(&p_missing, &t));
    }

    #[test]
    fn injectivity_enforced() {
        // pattern needs two distinct label-0 vertices; target has one
        let p = g(vec![0, 0], &[]);
        let t = g(vec![0, 1], &[(0, 1)]);
        assert!(!Vf2.contains(&p, &t));
    }

    #[test]
    fn square_not_in_triangle_with_tail() {
        // C4 requires a 4-cycle; triangle+pendant has none
        let c4 = g(vec![0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let tri_tail = g(vec![0; 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert!(!Vf2.contains(&c4, &tri_tail));
        // but P4 is in it
        let p4 = g(vec![0; 4], &[(0, 1), (1, 2), (2, 3)]);
        assert!(Vf2.contains(&p4, &tri_tail));
    }

    #[test]
    fn embedding_is_valid() {
        let p = g(vec![0, 1, 0], &[(0, 1), (1, 2)]);
        let t = g(vec![1, 0, 0, 1], &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let e = Vf2.find_embedding(&p, &t).expect("embedding exists");
        assert!(verify_embedding(&p, &t, &e));
    }

    #[test]
    fn verify_embedding_rejects_bad_maps() {
        let p = path3();
        let t = triangle();
        assert!(!verify_embedding(&p, &t, &[0, 0, 1])); // not injective
        assert!(!verify_embedding(&p, &t, &[0, 1])); // wrong arity
        assert!(!verify_embedding(&p, &t, &[0, 1, 9])); // out of range
        let t2 = g(vec![0, 0, 1], &[(0, 1), (1, 2)]);
        assert!(!verify_embedding(&path3(), &t2, &[0, 1, 2])); // label clash
        let t3 = g(vec![0, 0, 0], &[(0, 1)]);
        assert!(!verify_embedding(&path3(), &t3, &[0, 1, 2])); // missing edge
    }

    #[test]
    fn stats_count_nodes() {
        let (found, stats) = Vf2.contains_with_stats(&path3(), &triangle());
        assert!(found);
        assert!(stats.nodes >= 3, "at least one node per pattern vertex");
    }

    #[test]
    fn connectivity_order_covers_components() {
        let p = g(vec![0, 0, 0, 0], &[(2, 3)]);
        let mut scratch = Vf2Scratch::default();
        scratch.compile(&p, &p, Vf2::OPTS);
        let order: Vec<_> = scratch.plan.iter().map(|s| s.vertex).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        // 0, 1 and 2 each start a component; 3 extends 2's
        let anchors: Vec<_> = scratch.plan.iter().map(|s| s.anchor).collect();
        assert_eq!(anchors, vec![NONE, NONE, NONE, 2]);
    }

    #[test]
    fn scratch_is_released_after_a_test_past_the_retention_cap() {
        let retained = || SCRATCH.with(|s| s.borrow().retained_bytes());
        assert!(Vf2.contains(&path3(), &triangle()));
        let kept = retained();
        assert!(kept > 0 && kept <= RETAINED_BYTES, "{kept} bytes kept");
        // one u32 of state per target vertex: this target alone needs
        // four times the cap
        let n = RETAINED_BYTES as u32;
        let long = g(
            vec![0; n as usize],
            &(1..n).map(|v| (v - 1, v)).collect::<Vec<_>>(),
        );
        assert!(Vf2.contains(&path3(), &long));
        assert!(retained() <= RETAINED_BYTES, "{} bytes kept", retained());
        // the next test starts from an empty scratch and still answers
        assert!(!Vf2.contains(&triangle(), &path3()));
        assert!(Vf2.contains(&path3(), &triangle()));
    }
}
