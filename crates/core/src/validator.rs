//! The Cache Validator — Algorithm 2 and its delta-repair extension, as one
//! pass.
//!
//! On each query arrival the Dataset Manager checks whether the dataset
//! changed since the cache last synchronized. If so, EVI clears cache and
//! window indiscriminately (§5.1), and every other model runs one
//! [`refresh`] over all cached entries. Its only input is one
//! [`Deltas`] classification of the incremental records: Algorithm 1's
//! operation categories for CON, net edge deltas for CON-R (the paper's §8
//! future-work item). Per entry it extends `CGvalid` with `false` for newly
//! assigned ids, then for each touched graph keeps the bit only where one
//! keep table proves the cached relation intact. Whatever the table cannot
//! keep is cleared (the paper's behavior) or, in repair mode, first offered
//! to a free signature disproof (see [`refresh`]). Repair never runs a
//! sub-iso test.
//!
//! ### Polarity and the supergraph dual
//!
//! For a **subgraph-query** entry (`Answer = {G : q ⊆ G}`), Algorithm 2's
//! safe cases are:
//!
//! * all ops on `Gi` were **UA** and the cached bit is a *positive* answer
//!   (`q ⊆ Gi` is preserved by adding edges to `Gi`);
//! * all ops on `Gi` were **UR** and the cached bit is a *negative* answer
//!   (`q ⊄ Gi` is preserved by removing edges from `Gi`).
//!
//! For a **supergraph-query** entry (`Answer = {G : G ⊆ q}`) the
//! monotonicity flips (removing edges from `Gi` preserves `Gi ⊆ q`;
//! adding edges preserves `Gi ⊄ q`), so UA/UR swap roles. The paper omits
//! this dual "for space reason"; it is required for correctness as soon as
//! supergraph queries are cached, and tests exercise it.

use gc_dataset::{Delta, Deltas, GraphStore};
use gc_subiso::filter::signature_may_contain;
use gc_subiso::QueryKind;

use crate::entry::CachedQuery;

/// Tally of one delta-repair maintenance pass — the per-refresh record
/// threaded into `QueryMetrics`, `AggregateMetrics` and `RuntimeHealth`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceOutcome {
    /// Answer bits spliced back to ground truth in place (their stored
    /// value actually changed).
    pub repairs_applied: u64,
    /// Validity bits preserved that invalidate-mode maintenance would have
    /// cleared — each one is a recomputation the next query avoids.
    pub invalidations_avoided: u64,
    /// Affected bits the disproof could not settle, so they were
    /// invalidated after all.
    pub repair_fallbacks: u64,
}

/// Algorithm 2's keep table, supergraph dual included: does a valid bit
/// whose cached answer is `answered` survive `delta` untouched?
fn keeps(delta: Delta, kind: QueryKind, answered: bool) -> bool {
    // edges appearing preserve `q ⊆ G` and `G ⊄ q`; edges vanishing the rest
    let survives_adds = match kind {
        QueryKind::Subgraph => answered,
        QueryKind::Supergraph => !answered,
    };
    match delta {
        Delta::Neutral => true,
        Delta::AddOnly => survives_adds,
        Delta::RemoveOnly => !survives_adds,
        Delta::Invalidating => false,
    }
}

/// Refreshes every entry's `CGvalid` against `deltas`, returning the
/// repair tally (all-zero when `repair` is off).
///
/// Each (entry, touched graph) pair whose bit is still valid falls in one
/// class:
///
/// * **Unaffected** — the keep table proves the bit intact; it is left
///   strictly untouched (so even a corrupted-but-kept bit stays comparable
///   across modes);
/// * with `repair` off, everything else is **invalidated** — the paper's
///   Algorithm 2;
/// * with `repair` on, everything else gets **LocalRepair**: where the
///   signature filter disproves the relation, the answer bit is set to
///   `false` in place and validity is kept. It is **invalidated** after all
///   if the graph is dead (its id never re-enters a candidate set, so
///   clearing is free) or the disproof cannot settle it
///   (`repair_fallbacks`). Every surviving answer bit with a set validity
///   bit equals ground truth, so query answers are bit-identical to
///   invalidation (gated by `experiments chaos --repair-diff`).
///
/// Repair runs no SI test: settling an undisprovable bit with one costs the
/// `churn` serving workload more maintenance time than the exact shortcuts
/// the kept bit buys back.
pub fn refresh<'a>(
    entries: impl IntoIterator<Item = &'a mut CachedQuery>,
    deltas: &Deltas,
    store: &GraphStore,
    repair: bool,
) -> MaintenanceOutcome {
    let mut outcome = MaintenanceOutcome::default();
    for entry in entries {
        // Algorithm 2 lines 4–6: newly assigned ids start invalid.
        // BitSet::extend_to allocates zero (false) bits, exactly the
        // required semantics; reads past the end are false either way.
        entry.cg_valid.extend_to(store.id_span());
        for (i, delta) in deltas.iter() {
            if !entry.cg_valid.get(i) || keeps(delta, entry.kind(), entry.answer.get(i)) {
                continue;
            }
            let Some(graph) = store.get(i).filter(|_| repair) else {
                entry.cg_valid.set(i, false);
                continue;
            };
            let (pattern, target) = match entry.kind() {
                QueryKind::Subgraph => (entry.graph(), graph),
                QueryKind::Supergraph => (graph, entry.graph()),
            };
            if signature_may_contain(pattern.signature(), target.signature()) {
                entry.cg_valid.set(i, false);
                outcome.repair_fallbacks += 1;
                continue;
            }
            if entry.answer.get(i) {
                entry.answer.set(i, false);
                outcome.repairs_applied += 1;
            }
            outcome.invalidations_avoided += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_dataset::{ChangeRecord, OpType};
    use gc_graph::{BitSet, LabeledGraph};

    fn rec(graph_id: usize, op: OpType) -> ChangeRecord {
        ChangeRecord {
            graph_id,
            op,
            edge: None,
        }
    }

    fn entry(kind: QueryKind, answer: &[usize], span: usize) -> CachedQuery {
        entry_of(path(2), kind, answer, span)
    }

    fn entry_of(
        graph: LabeledGraph,
        kind: QueryKind,
        answer: &[usize],
        span: usize,
    ) -> CachedQuery {
        CachedQuery::new(
            graph,
            kind,
            BitSet::from_indices(answer.iter().copied()),
            span,
            0,
        )
    }

    fn path(n: usize) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(vec![0; n], &edges).unwrap()
    }

    /// Invalidate-only refresh of one entry against a store of `span`
    /// graphs (invalidation reads nothing of the store but its id span).
    fn invalidate(e: &mut CachedQuery, deltas: &Deltas, span: usize) {
        let store = GraphStore::from_graphs(vec![path(2); span]);
        assert_eq!(
            refresh([e], deltas, &store, false),
            MaintenanceOutcome::default()
        );
    }

    /// Invalidate-only CON refresh.
    fn con(e: &mut CachedQuery, records: &[ChangeRecord], span: usize) {
        invalidate(e, &Deltas::by_category(records), span);
    }

    /// Repair-mode CON refresh of one entry.
    fn repair_con(
        e: &mut CachedQuery,
        records: &[ChangeRecord],
        store: &GraphStore,
    ) -> MaintenanceOutcome {
        refresh([e], &Deltas::by_category(records), store, true)
    }

    #[test]
    fn ua_exclusive_preserves_positive_subgraph_answers() {
        // paper example: answer on G2 survives UA, non-answer on G2 dies
        let mut pos = entry(QueryKind::Subgraph, &[2], 4);
        let mut neg = entry(QueryKind::Subgraph, &[], 4);
        let c = [rec(2, OpType::Ua), rec(2, OpType::Ua)];
        con(&mut pos, &c, 4);
        con(&mut neg, &c, 4);
        assert!(pos.cg_valid.get(2), "q ⊆ G2 unaffected by adding edges");
        assert!(!neg.cg_valid.get(2), "q ⊄ G2 may flip when edges appear");
        // untouched graphs keep validity
        assert!(pos.cg_valid.get(0) && pos.cg_valid.get(1) && pos.cg_valid.get(3));
    }

    #[test]
    fn ur_exclusive_preserves_negative_subgraph_answers() {
        let mut pos = entry(QueryKind::Subgraph, &[1], 3);
        let mut neg = entry(QueryKind::Subgraph, &[], 3);
        let c = [rec(1, OpType::Ur)];
        con(&mut pos, &c, 3);
        con(&mut neg, &c, 3);
        assert!(!pos.cg_valid.get(1), "q ⊆ G1 may break when edges vanish");
        assert!(neg.cg_valid.get(1), "q ⊄ G1 unaffected by removing edges");
    }

    #[test]
    fn mixed_ops_invalidate_both_polarities() {
        let mut pos = entry(QueryKind::Subgraph, &[0], 1);
        let mut neg = entry(QueryKind::Subgraph, &[], 1);
        let c = [rec(0, OpType::Ua), rec(0, OpType::Ur)];
        con(&mut pos, &c, 1);
        con(&mut neg, &c, 1);
        assert!(!pos.cg_valid.get(0));
        assert!(!neg.cg_valid.get(0));
    }

    #[test]
    fn del_invalidates_and_add_extends_with_false() {
        // timeline mirrors Figure 2: DEL G0, ADD G4 (fresh id 4)
        let mut e = entry(QueryKind::Subgraph, &[0, 2], 4);
        con(&mut e, &[rec(0, OpType::Del), rec(4, OpType::Add)], 5);
        assert!(!e.cg_valid.get(0), "deleted graph knowledge dies");
        assert!(!e.cg_valid.get(4), "new graph unknown to old query");
        assert!(e.cg_valid.get(1) && e.cg_valid.get(2) && e.cg_valid.get(3));
    }

    #[test]
    fn supergraph_duality() {
        // supergraph entry: answer bit = G ⊆ q
        let mut pos_ur = entry(QueryKind::Supergraph, &[1], 3);
        let mut neg_ur = entry(QueryKind::Supergraph, &[], 3);
        let c_ur = [rec(1, OpType::Ur)];
        con(&mut pos_ur, &c_ur, 3);
        con(&mut neg_ur, &c_ur, 3);
        assert!(pos_ur.cg_valid.get(1), "G ⊆ q survives G shrinking");
        assert!(!neg_ur.cg_valid.get(1), "G ⊄ q may flip when G shrinks");

        let mut pos_ua = entry(QueryKind::Supergraph, &[1], 3);
        let mut neg_ua = entry(QueryKind::Supergraph, &[], 3);
        let c_ua = [rec(1, OpType::Ua)];
        con(&mut pos_ua, &c_ua, 3);
        con(&mut neg_ua, &c_ua, 3);
        assert!(!pos_ua.cg_valid.get(1), "G ⊆ q may break when G grows");
        assert!(neg_ua.cg_valid.get(1), "G ⊄ q survives G growing");
    }

    #[test]
    fn already_invalid_bits_stay_invalid() {
        let mut e = entry(QueryKind::Subgraph, &[0], 2);
        e.cg_valid.set(0, false);
        // UA-exclusive + positive answer would keep it — but it's already
        // invalid (CGvalid.get(i) is part of Algorithm 2's keep condition)
        con(&mut e, &[rec(0, OpType::Ua)], 2);
        assert!(!e.cg_valid.get(0));
        assert!(e.cg_valid.get(1));
    }

    #[test]
    fn figure2_full_timeline() {
        // Reproduces the running example of Figure 2 for g′:
        // dataset {G0..G3}; g′ answers {2,3}; batch 1: ADD G4 + UR G3;
        // batch 2: DEL G0 + UA G1.
        let mut g_prime = entry(QueryKind::Subgraph, &[2, 3], 4);

        con(&mut g_prime, &[rec(4, OpType::Add), rec(3, OpType::Ur)], 5);
        // paper state at T2: CGvalid = {0,1,2} (G3 lost: positive answer + UR;
        // G4 unknown)
        assert_eq!(
            g_prime.cg_valid.iter_ones().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );

        con(&mut g_prime, &[rec(0, OpType::Del), rec(1, OpType::Ua)], 5);
        // paper state at T4 (row for g′): valid only on G2
        // (G0 deleted; G1 was a negative answer hit by UA)
        assert_eq!(g_prime.cg_valid.iter_ones().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn retro_neutral_preserves_everything() {
        // UA then UR of the same edge: Algorithm 2 invalidates, CON-R keeps
        let mut plain = entry(QueryKind::Subgraph, &[0], 2);
        let mut retro = entry(QueryKind::Subgraph, &[0], 2);
        let records = [
            ChangeRecord::edge(0, OpType::Ua, 1, 2),
            ChangeRecord::edge(0, OpType::Ur, 1, 2),
        ];
        con(&mut plain, &records, 2);
        invalidate(&mut retro, &Deltas::by_net_edge(&records), 2);
        assert!(!plain.cg_valid.get(0), "CON loses the oscillated graph");
        assert!(retro.cg_valid.get(0), "CON-R keeps it");
    }

    #[test]
    fn retro_residuals_match_polarity_rules() {
        // net add: positive subgraph answers survive, negatives don't
        let eff = Deltas::by_net_edge(&[
            ChangeRecord::edge(1, OpType::Ua, 0, 1),
            ChangeRecord::edge(1, OpType::Ua, 2, 3),
            ChangeRecord::edge(1, OpType::Ur, 2, 3),
        ]);
        let mut pos = entry(QueryKind::Subgraph, &[1], 2);
        let mut neg = entry(QueryKind::Subgraph, &[], 2);
        invalidate(&mut pos, &eff, 2);
        invalidate(&mut neg, &eff, 2);
        assert!(pos.cg_valid.get(1));
        assert!(!neg.cg_valid.get(1));
        // supergraph dual flips
        let mut sup_pos = entry(QueryKind::Supergraph, &[1], 2);
        let mut sup_neg = entry(QueryKind::Supergraph, &[], 2);
        invalidate(&mut sup_pos, &eff, 2);
        invalidate(&mut sup_neg, &eff, 2);
        assert!(!sup_pos.cg_valid.get(1));
        assert!(sup_neg.cg_valid.get(1));
    }

    #[test]
    fn retro_structural_still_invalidates() {
        let mut e = entry(QueryKind::Subgraph, &[0], 2);
        let eff = Deltas::by_net_edge(&[ChangeRecord::structural(0, OpType::Del)]);
        invalidate(&mut e, &eff, 2);
        assert!(!e.cg_valid.get(0));
        assert!(e.cg_valid.get(1));
    }

    #[test]
    fn repair_keeps_unaffected_bits_untouched() {
        // UA-exclusive + positive answer: Algorithm 2 keeps — repair mode
        // must leave the bit byte-identical even if it is (corruptly) wrong
        let store = GraphStore::from_graphs(vec![path(2), path(3)]);
        let mut e = entry(QueryKind::Subgraph, &[0, 1], 2);
        let out = repair_con(&mut e, &[rec(1, OpType::Ua)], &store);
        assert!(e.cg_valid.get(1) && e.answer.get(1));
        assert_eq!(out, MaintenanceOutcome::default(), "kept bits cost nothing");
    }

    #[test]
    fn repair_recomputes_would_be_invalidated_bits() {
        // entry: q = 2-path over store {G0: 2-path, G1: 3-path}; answer all.
        // UR on G0 + positive answer → Algorithm 2 invalidates. q ⊆ G0 still
        // holds, so no signature disproof exists: repair falls back to
        // invalidation, and the next query that needs G0 recomputes it.
        let store = GraphStore::from_graphs(vec![path(2), path(3)]);
        let mut e = entry(QueryKind::Subgraph, &[0, 1], 2);
        let c = [rec(0, OpType::Ur)];
        let mut invalidated = e.clone();
        con(&mut invalidated, &c, 2);
        let out = repair_con(&mut e, &c, &store);
        assert_eq!(e.cg_valid, invalidated.cg_valid, "same bits as invalidate");
        assert!(!e.cg_valid.get(0) && e.cg_valid.get(1));
        assert_eq!(
            out,
            MaintenanceOutcome {
                repair_fallbacks: 1,
                ..MaintenanceOutcome::default()
            }
        );
    }

    #[test]
    fn repair_splices_a_stale_bit_to_ground_truth() {
        // q = 3-path cached as answering G0 (a 2-path — actually false).
        // Mixed ops on G0 invalidate under Algorithm 2; repair disproves
        // the bit by signature and counts the splice.
        let store = GraphStore::from_graphs(vec![path(2)]);
        let mut e = entry_of(path(3), QueryKind::Subgraph, &[0], 1);
        let c = [rec(0, OpType::Ua), rec(0, OpType::Ur)];
        let out = repair_con(&mut e, &c, &store);
        assert!(e.cg_valid.get(0));
        assert!(!e.answer.get(0), "3-path ⊄ 2-path");
        assert_eq!(out.repairs_applied, 1);
        assert_eq!(out.invalidations_avoided, 1);
    }

    #[test]
    fn repair_signature_disproof_skips_the_si_test() {
        // query bigger than the dataset graph: the signature filter proves
        // q ⊄ G, so a negative bit stays valid without any recomputation
        let store = GraphStore::from_graphs(vec![path(2)]);
        let mut e = entry_of(path(5), QueryKind::Subgraph, &[], 1);
        let c = [rec(0, OpType::Ua), rec(0, OpType::Ur)];
        let out = repair_con(&mut e, &c, &store);
        assert!(e.cg_valid.get(0));
        assert!(!e.answer.get(0));
        assert_eq!(
            out,
            MaintenanceOutcome {
                invalidations_avoided: 1,
                ..MaintenanceOutcome::default()
            },
            "a disproof of a bit already false splices nothing"
        );
    }

    #[test]
    fn repair_clears_deleted_graphs_like_invalidate() {
        let store = {
            let mut s = GraphStore::from_graphs(vec![path(2), path(3)]);
            s.delete(0).unwrap();
            s
        };
        let mut e = entry(QueryKind::Subgraph, &[0, 1], 2);
        let out = repair_con(&mut e, &[rec(0, OpType::Del)], &store);
        assert!(
            !e.cg_valid.get(0),
            "dead graph knowledge dies in both modes"
        );
        assert_eq!(out, MaintenanceOutcome::default());
    }

    #[test]
    fn repair_supergraph_polarity() {
        // supergraph entry q = 3-path: the pattern is the dataset graph.
        // G0 = 2-path ⊆ q has no disproof, so its bit falls back; G1 =
        // 4-path ⊄ q is disproved, so its stale `true` is spliced out
        let store = GraphStore::from_graphs(vec![path(2), path(4)]);
        let mut e = entry_of(path(3), QueryKind::Supergraph, &[1], 2);
        let c = [
            rec(0, OpType::Ua),
            rec(0, OpType::Ur),
            rec(1, OpType::Ua),
            rec(1, OpType::Ur),
        ];
        let out = repair_con(&mut e, &c, &store);
        assert!(!e.cg_valid.get(0), "2-path ⊆ 3-path: nothing to disprove");
        assert!(e.cg_valid.get(1) && !e.answer.get(1), "4-path ⊄ 3-path");
        assert_eq!(
            out,
            MaintenanceOutcome {
                repairs_applied: 1,
                invalidations_avoided: 1,
                repair_fallbacks: 1,
            }
        );
    }

    #[test]
    fn repair_retro_neutral_stays_free() {
        let store = GraphStore::from_graphs(vec![path(3)]);
        let mut e = entry(QueryKind::Subgraph, &[0], 1);
        let eff = Deltas::by_net_edge(&[
            ChangeRecord::edge(0, OpType::Ua, 1, 2),
            ChangeRecord::edge(0, OpType::Ur, 1, 2),
        ]);
        let out = refresh([&mut e], &eff, &store, true);
        assert!(e.cg_valid.get(0), "CON-R keeps the oscillated graph");
        assert_eq!(out, MaintenanceOutcome::default(), "no repair work needed");
    }

    #[test]
    fn refresh_covers_every_entry() {
        let mut entries = [
            entry(QueryKind::Subgraph, &[0], 2),
            entry(QueryKind::Subgraph, &[], 2),
        ];
        let store = GraphStore::from_graphs(vec![path(2); 2]);
        let deltas = Deltas::by_category(&[rec(0, OpType::Del)]);
        refresh(entries.iter_mut(), &deltas, &store, false);
        assert!(!entries[0].cg_valid.get(0));
        assert!(!entries[1].cg_valid.get(0));
        assert!(entries[0].cg_valid.get(1));
    }
}
