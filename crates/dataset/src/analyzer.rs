//! The Log Analyzer — one per-graph delta classification of the incremental
//! records, the only input consistency maintenance consumes.
//!
//! A [`Delta`] says what the pending operations did to one graph, as far as
//! cached knowledge about it is concerned. [`Deltas`] holds one per touched
//! graph, sorted by id, and is built one of two ways:
//!
//! * [`Deltas::by_category`] is Algorithm 1 ("Analyzing Log for the CON
//!   Cache"). A graph whose operations were *all* UA (`tc == uac`) is
//!   [`Delta::AddOnly`], all UR is [`Delta::RemoveOnly`], and anything else
//!   is [`Delta::Invalidating`]. ADD and DEL always invalidate (correct: a
//!   deleted graph's knowledge is dead, and an added graph's id is fresh).
//! * [`Deltas::by_net_edge`] is CON-R, the paper's §8 future-work item
//!   ("further optimizing CON cache with retrospective validating
//!   mechanisms"). It folds each graph's UA/UR records into a net edge
//!   delta, so a UA followed by a UR of the **same edge** — bit-identical
//!   graph, "mixed operations" to Algorithm 1 — is [`Delta::Neutral`] and
//!   keeps every cached bit. Residual additions-only or removals-only
//!   behave like UA/UR-exclusive. It is strictly more precise: every bit
//!   CON keeps, CON-R keeps too. The price is edge endpoints in the log
//!   (see [`crate::ChangeRecord::edge`]); a UA/UR logged without them
//!   cannot be folded and invalidates.

use std::collections::{BTreeMap, HashMap};

use gc_graph::VertexId;

use crate::log::{ChangeRecord, OpType};
use crate::store::GraphId;

/// What the pending operations did to one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delta {
    /// Changes cancelled out exactly — the graph is unchanged.
    Neutral,
    /// Edge additions only (the graph is ⊇ the old one).
    AddOnly,
    /// Edge removals only (the graph is ⊆ the old one).
    RemoveOnly,
    /// Additions and removals both remain, or the graph was ADDed/DELed —
    /// no cached knowledge about it can be kept as is.
    Invalidating,
}

/// One [`Delta`] per touched graph, sorted by graph id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deltas(Vec<(GraphId, Delta)>);

impl Deltas {
    /// Algorithm 1: classify each touched graph by its operation categories.
    /// Never yields [`Delta::Neutral`].
    pub fn by_category(records: &[ChangeRecord]) -> Deltas {
        // per graph: saw a UA, saw a UR, saw an ADD/DEL
        Self::fold(
            records,
            |seen: &mut [bool; 3], r| {
                let slot = match r.op {
                    OpType::Ua => 0,
                    OpType::Ur => 1,
                    OpType::Add | OpType::Del => 2,
                };
                seen[slot] = true;
            },
            |seen| match seen {
                [true, false, false] => Delta::AddOnly,
                [false, true, false] => Delta::RemoveOnly,
                _ => Delta::Invalidating,
            },
        )
    }

    /// CON-R: classify each touched graph by its net edge delta.
    pub fn by_net_edge(records: &[ChangeRecord]) -> Deltas {
        // per graph: invalidated outright, and the signed count per edge
        // (+1 per UA, -1 per UR)
        type Net = (bool, HashMap<(VertexId, VertexId), i32>);
        Self::fold(
            records,
            |(invalid, net): &mut Net, r| match (r.op, r.edge) {
                (OpType::Ua, Some(e)) => *net.entry(e).or_insert(0) += 1,
                (OpType::Ur, Some(e)) => *net.entry(e).or_insert(0) -= 1,
                // ADD / DEL, or a UA / UR without endpoints
                _ => *invalid = true,
            },
            |(invalid, net)| {
                let adds = net.values().any(|&n| n > 0);
                let removes = net.values().any(|&n| n < 0);
                match (invalid, adds, removes) {
                    (false, false, false) => Delta::Neutral,
                    (false, true, false) => Delta::AddOnly,
                    (false, false, true) => Delta::RemoveOnly,
                    _ => Delta::Invalidating,
                }
            },
        )
    }

    /// Folds the records into per-graph state `S`, then classifies each.
    fn fold<S: Default>(
        records: &[ChangeRecord],
        mut step: impl FnMut(&mut S, &ChangeRecord),
        classify: impl Fn(S) -> Delta,
    ) -> Deltas {
        let mut per_graph: BTreeMap<GraphId, S> = BTreeMap::new();
        for r in records {
            step(per_graph.entry(r.graph_id).or_default(), r);
        }
        Deltas(
            per_graph
                .into_iter()
                .map(|(id, s)| (id, classify(s)))
                .collect(),
        )
    }

    /// The touched graphs and their deltas, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (GraphId, Delta)> + '_ {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::Delta::*;
    use super::*;

    fn rec(graph_id: GraphId, op: OpType) -> ChangeRecord {
        ChangeRecord {
            graph_id,
            op,
            edge: None,
        }
    }
    fn ua(id: GraphId, u: VertexId, v: VertexId) -> ChangeRecord {
        ChangeRecord::edge(id, OpType::Ua, u, v)
    }
    fn ur(id: GraphId, u: VertexId, v: VertexId) -> ChangeRecord {
        ChangeRecord::edge(id, OpType::Ur, u, v)
    }
    fn by_category(records: &[ChangeRecord]) -> Vec<(GraphId, Delta)> {
        Deltas::by_category(records).iter().collect()
    }
    fn by_net_edge(records: &[ChangeRecord]) -> Vec<(GraphId, Delta)> {
        Deltas::by_net_edge(records).iter().collect()
    }

    #[test]
    fn empty_log_empty_counters() {
        assert_eq!(by_category(&[]), vec![]);
    }

    #[test]
    fn counters_categorize_per_graph() {
        let records = [
            rec(1, OpType::Ua),
            rec(1, OpType::Ua),
            rec(2, OpType::Ur),
            rec(3, OpType::Add),
            rec(4, OpType::Del),
            rec(5, OpType::Ua),
            rec(5, OpType::Ur),
        ];
        // ADD/DEL and mixed UA+UR → neither exclusive
        assert_eq!(
            by_category(&records),
            vec![
                (1, AddOnly),
                (2, RemoveOnly),
                (3, Invalidating),
                (4, Invalidating),
                (5, Invalidating)
            ]
        );
        // even when the mixed ops cancel out, Algorithm 1 cannot tell
        assert_eq!(
            by_category(&[ua(6, 0, 1), ur(6, 0, 1)]),
            vec![(6, Invalidating)]
        );
    }

    #[test]
    fn ua_then_del_is_not_exclusive() {
        let records = [rec(9, OpType::Ua), rec(9, OpType::Del)];
        assert_eq!(by_category(&records), vec![(9, Invalidating)]);
    }

    #[test]
    fn touched_lists_each_graph_once() {
        let records = [
            rec(7, OpType::Ua),
            rec(1, OpType::Ua),
            rec(1, OpType::Ur),
            rec(2, OpType::Add),
        ];
        for d in [by_category(&records), by_net_edge(&records)] {
            let touched: Vec<_> = d.iter().map(|&(id, _)| id).collect();
            assert_eq!(touched, vec![1, 2, 7], "ascending, one entry per graph");
        }
    }

    #[test]
    fn empty_log() {
        assert_eq!(by_net_edge(&[]), vec![]);
    }

    #[test]
    fn cancelling_ops_are_neutral() {
        // UA(0,1) then UR(0,1) — and the reverse order, with swapped
        // endpoint notation — both net out
        assert_eq!(by_net_edge(&[ua(3, 0, 1), ur(3, 1, 0)]), vec![(3, Neutral)]);
        assert_eq!(by_net_edge(&[ur(3, 5, 2), ua(3, 2, 5)]), vec![(3, Neutral)]);
    }

    #[test]
    fn residual_directions() {
        // add two edges, remove one of them → AddOnly
        let d = by_net_edge(&[ua(1, 0, 1), ua(1, 2, 3), ur(1, 0, 1)]);
        assert_eq!(d, vec![(1, AddOnly)]);
        // remove two, re-add one → RemoveOnly
        let d2 = by_net_edge(&[ur(1, 0, 1), ur(1, 2, 3), ua(1, 0, 1)]);
        assert_eq!(d2, vec![(1, RemoveOnly)]);
        // one net add + one net remove → Invalidating
        let d3 = by_net_edge(&[ua(1, 0, 1), ur(1, 2, 3)]);
        assert_eq!(d3, vec![(1, Invalidating)]);
    }

    #[test]
    fn structural_ops_invalidate_regardless() {
        let del = ChangeRecord::structural(2, OpType::Del);
        assert_eq!(
            by_net_edge(&[ua(2, 0, 1), ur(2, 0, 1), del]),
            vec![(2, Invalidating)]
        );
        let add = ChangeRecord::structural(9, OpType::Add);
        assert_eq!(by_net_edge(&[add]), vec![(9, Invalidating)]);
    }

    #[test]
    fn endpointless_edge_records_are_conservative() {
        // a UA without endpoints (e.g. from a legacy log) cannot be folded
        assert_eq!(by_net_edge(&[rec(5, OpType::Ua)]), vec![(5, Invalidating)]);
    }

    #[test]
    fn multiple_graphs_tracked_independently() {
        let d = by_net_edge(&[ua(1, 0, 1), ur(1, 0, 1), ua(2, 0, 1)]);
        assert_eq!(d, vec![(1, Neutral), (2, AddOnly)]);
    }

    #[test]
    fn oscillation_beyond_one_round_trip() {
        // UA, UR, UA, UR of the same edge nets to neutral
        let recs = [ua(0, 1, 2), ur(0, 1, 2), ua(0, 1, 2), ur(0, 1, 2)];
        assert_eq!(by_net_edge(&recs), vec![(0, Neutral)]);
        // odd number of flips leaves a residue
        assert_eq!(by_net_edge(&recs[..3]), vec![(0, AddOnly)]);
    }
}
