//! The Candidate Set Pruner — §6 of the paper, formulas (1)–(5), plus the
//! two §6.3 optimal cases.
//!
//! For a (subgraph) query `g` with Method M candidate set `CS_M(g)` (the
//! live dataset, or the label index's candidates):
//!
//! 1. **formula (1)** — direct hits pool their *valid* answers:
//!    `Answer_sub(g) = ⋃ CGvalid(g′) ∩ Answer(g′)`; those graphs are
//!    sub-iso test-free and enter the final answer directly;
//! 2. **formula (2)** — `CS = CS_M \ Answer_sub`;
//! 3. **formulas (4)+(5)** — each exclusion hit `g″` retains only
//!    `CS ∩ (¬CGvalid(g″) ∪ Answer(g″))`: a graph provably *not*
//!    containing `g″` (valid negative) can never contain `g ⊇ g″`;
//! 4. the survivors go to Method M (`Mverifier`); **formula (3)** unions
//!    the verified answers with `Answer_sub`.
//!
//! Optimal cases (§6.3), checked before any of the above:
//!
//! * **exact match** — an isomorphic cached query holding validity on all
//!   of `CS_M`: return its answer (restricted to `CS_M`), zero tests;
//! * **empty result** — an exclusion hit with *no valid answer* in `CS_M`
//!   and full validity on it: the final answer is provably empty, zero
//!   tests.
//!
//! The paper states both against the live dataset. Checking them against
//! `CS_M` suffices because `CS_M` is sound: every answer lies inside it,
//! so a graph outside it is never an answer and needs no validity. Under
//! the paper's live scan `CS_M` *is* the live set.
//!
//! The same algebra serves supergraph queries with the hit roles swapped
//! (see [`crate::processor`]); the bit operations are identical. Hits are
//! positions in the entry slice they were discovered over, which `prune`
//! indexes directly.

use gc_graph::BitSet;

use crate::entry::CachedQuery;
use crate::processor::{EntryRef, Hits};

/// Zero-sub-iso-test fast paths of §6.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shortcut {
    /// Optimal case 1: a fully valid isomorphic entry answered the query.
    ExactMatch(EntryRef),
    /// Optimal case 2: a fully valid exclusion hit with an empty (live)
    /// answer set proves the result empty.
    EmptyResult(EntryRef),
}

/// Pruning result for one query.
#[derive(Debug)]
pub struct PruneOutcome {
    /// Fast path taken, if any (its answer is already in `direct_answers`;
    /// `candidates` is empty).
    pub shortcut: Option<Shortcut>,
    /// Sub-iso-test-free answers (formula (1), or the §6.3 shortcut
    /// answer).
    pub direct_answers: BitSet,
    /// Remaining candidate set for Method M (formulas (2)+(5)).
    pub candidates: BitSet,
    /// Per-entry alleviated-test attribution `(entry, tests)` — each
    /// contributing entry is credited with the tests it alone could save,
    /// the statistic the PIN/PINC/HD policies rank by.
    pub attribution: Vec<(EntryRef, u64)>,
}

/// Applies §6 pruning over the `entries` the hits were discovered in.
/// `csm` is Method M's candidate set, a sound superset of the answer
/// (the index's candidates or the live dataset); the optimal cases ask
/// for full validity on it alone (see the module docs).
pub fn prune(csm: &BitSet, hits: &Hits, entries: &[CachedQuery]) -> PruneOutcome {
    // --- §6.3 optimal case 1: exact match ---
    if let Some(r) = hits.exact {
        let e = &entries[r];
        if e.fully_valid_on(csm) {
            let answer = e.answer.intersection(csm);
            return PruneOutcome {
                shortcut: Some(Shortcut::ExactMatch(r)),
                direct_answers: answer,
                candidates: BitSet::new(),
                attribution: vec![(r, csm.count_ones() as u64)],
            };
        }
    }

    // --- §6.3 optimal case 2: provably empty result ---
    for &r in &hits.exclusion {
        let e = &entries[r];
        if e.fully_valid_on(csm) && e.answer.intersection(csm).is_empty() {
            return PruneOutcome {
                shortcut: Some(Shortcut::EmptyResult(r)),
                direct_answers: BitSet::new(),
                candidates: BitSet::new(),
                attribution: vec![(r, csm.count_ones() as u64)],
            };
        }
    }

    let mut attribution: Vec<(EntryRef, u64)> = Vec::new();

    // --- formula (1): pooled valid answers of direct hits ---
    let mut direct_answers = BitSet::new();
    for &r in &hits.direct {
        let e = &entries[r];
        let mut contribution = e.valid_answers();
        contribution.intersect_with(csm);
        let saved = contribution.count_ones() as u64;
        if saved > 0 {
            attribution.push((r, saved));
        }
        direct_answers.union_with(&contribution);
    }

    // --- formula (2): CS = CS_M \ Answer_sub ---
    let mut candidates = csm.difference(&direct_answers);

    // --- formulas (4)+(5): exclusion hits shrink the survivors ---
    // Per-entry attribution measures each hit's standalone pruning power
    // against the post-formula-(2) candidate set.
    let base = candidates.clone();
    for &r in &hits.exclusion {
        let e = &entries[r];
        // tests this hit alone would save: valid negatives inside `base`
        let mut alone = base.intersection(&e.cg_valid);
        alone.difference_with(&e.answer);
        let saved = alone.count_ones() as u64;
        if saved > 0 {
            attribution.push((r, saved));
        }
        candidates.retain_super_hit(&e.cg_valid, &e.answer);
    }

    PruneOutcome {
        shortcut: None,
        direct_answers,
        candidates,
        attribution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::LabeledGraph;
    use gc_subiso::QueryKind;

    fn entry_with(answer: &[usize], valid: &[usize], span: usize) -> CachedQuery {
        let mut e = CachedQuery::new(
            LabeledGraph::from_parts(vec![0, 0], &[(0, 1)]).unwrap(),
            QueryKind::Subgraph,
            BitSet::from_indices(answer.iter().copied()),
            span,
            0,
        );
        e.cg_valid = BitSet::from_indices(valid.iter().copied());
        e
    }

    /// Reproduces Figure 3(a): CS_M = {1,2,3,4}; direct hit g′ with
    /// Answer = {2,3}, CGvalid = {2}. Expected: G2 test-free, CS = {1,3,4}.
    #[test]
    fn figure_3a_subgraph_case() {
        let entries = vec![entry_with(&[2, 3], &[2], 5)];
        let csm = BitSet::from_indices([1usize, 2, 3, 4]);
        let hits = Hits {
            direct: vec![0],
            ..Hits::default()
        };
        let out = prune(&csm, &hits, &entries);
        assert!(out.shortcut.is_none());
        assert_eq!(out.direct_answers.iter_ones().collect::<Vec<_>>(), vec![2]);
        assert_eq!(
            out.candidates.iter_ones().collect::<Vec<_>>(),
            vec![1, 3, 4]
        );
        assert_eq!(out.attribution, vec![(0, 1)]);
    }

    /// Reproduces Figure 3(b): CS_M = {1,2,3,4}; exclusion hit g″ with
    /// Answer = {2,3}, CGvalid = {2,3,4}. Expected survivors {1,2,3}
    /// (G4: valid negative → excluded; G1: stale → must be verified).
    #[test]
    fn figure_3b_supergraph_case() {
        let entries = vec![entry_with(&[2, 3], &[2, 3, 4], 5)];
        let csm = BitSet::from_indices([1usize, 2, 3, 4]);
        let hits = Hits {
            exclusion: vec![0],
            ..Hits::default()
        };
        let out = prune(&csm, &hits, &entries);
        assert!(out.shortcut.is_none());
        assert!(out.direct_answers.is_empty());
        assert_eq!(
            out.candidates.iter_ones().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(out.attribution, vec![(0, 1)]);
    }

    #[test]
    fn multiple_direct_hits_pool_answers() {
        let entries = vec![
            entry_with(&[0, 1], &[0], 4),    // valid answer {0}
            entry_with(&[1, 2], &[1, 2], 4), // valid answers {1,2}
        ];
        let csm = BitSet::from_indices(0..4);
        let hits = Hits {
            direct: vec![0, 1],
            ..Hits::default()
        };
        let out = prune(&csm, &hits, &entries);
        assert_eq!(
            out.direct_answers.iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(out.candidates.iter_ones().collect::<Vec<_>>(), vec![3]);
        assert_eq!(out.attribution.len(), 2);
    }

    #[test]
    fn exclusion_hits_intersect() {
        // hit A excludes {0} (valid negative), hit B excludes {1}
        let entries = vec![entry_with(&[], &[0], 3), entry_with(&[], &[1], 3)];
        let csm = BitSet::from_indices(0..3);
        let hits = Hits {
            exclusion: vec![0, 1],
            ..Hits::default()
        };
        let out = prune(&csm, &hits, &entries);
        assert_eq!(out.candidates.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn exact_match_shortcut_requires_full_validity() {
        // fully valid exact match → shortcut with cached answer ∩ live
        let entries = vec![entry_with(&[0, 2], &[0, 1, 2], 3)];
        let csm = BitSet::from_indices(0..3);
        let hits = Hits {
            exact: Some(0),
            direct: vec![0],
            exclusion: vec![0],
            ..Hits::default()
        };
        let out = prune(&csm, &hits, &entries);
        assert_eq!(out.shortcut, Some(Shortcut::ExactMatch(0)));
        assert_eq!(
            out.direct_answers.iter_ones().collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!(out.candidates.is_empty());
        assert_eq!(out.attribution, vec![(0, 3)]);

        // partially valid exact match → no shortcut, falls through to
        // formula pruning (here: direct contributes valid answers only)
        let entries2 = vec![entry_with(&[0, 2], &[0, 1], 3)];
        let out2 = prune(&csm, &hits, &entries2);
        assert!(out2.shortcut.is_none());
        assert_eq!(out2.direct_answers.iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn exact_match_answer_restricted_to_live() {
        // graph 1 was deleted after the entry was cached; its answer bit
        // must not leak into the shortcut answer
        let entries = vec![entry_with(&[0, 1], &[0, 1, 2], 3)];
        let live = BitSet::from_indices([0usize, 2]);
        let hits = Hits {
            exact: Some(0),
            ..Hits::default()
        };
        let out = prune(&live, &hits, &entries);
        assert_eq!(out.shortcut, Some(Shortcut::ExactMatch(0)));
        assert_eq!(out.direct_answers.iter_ones().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn empty_result_shortcut() {
        // exclusion hit with empty answer + full validity proves ∅
        let entries = vec![entry_with(&[], &[0, 1, 2], 3)];
        let csm = BitSet::from_indices(0..3);
        let hits = Hits {
            exclusion: vec![0],
            ..Hits::default()
        };
        let out = prune(&csm, &hits, &entries);
        assert_eq!(out.shortcut, Some(Shortcut::EmptyResult(0)));
        assert!(out.direct_answers.is_empty());
        assert!(out.candidates.is_empty());

        // without full validity, no shortcut
        let entries2 = vec![entry_with(&[], &[0, 1], 3)];
        let out2 = prune(&csm, &hits, &entries2);
        assert!(out2.shortcut.is_none());
        // the hit still excludes its valid negatives {0,1}
        assert_eq!(out2.candidates.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn empty_result_ignores_answers_on_deleted_graphs() {
        // entry answered {1} but graph 1 was deleted: live answers are
        // empty, so the shortcut still fires
        let entries = vec![entry_with(&[1], &[0, 1, 2], 3)];
        let live = BitSet::from_indices([0usize, 2]);
        let hits = Hits {
            exclusion: vec![0],
            ..Hits::default()
        };
        let out = prune(&live, &hits, &entries);
        assert_eq!(out.shortcut, Some(Shortcut::EmptyResult(0)));
    }

    #[test]
    fn no_hits_passthrough() {
        let entries = vec![];
        let csm = BitSet::from_indices(0..5);
        let out = prune(&csm, &Hits::default(), &entries);
        assert!(out.shortcut.is_none());
        assert!(out.direct_answers.is_empty());
        assert_eq!(out.candidates, csm);
        assert!(out.attribution.is_empty());
    }
}
