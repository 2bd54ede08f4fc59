//! GC+sub / GC+super processors — hit discovery against cached queries.
//!
//! When query `g` arrives, GC+ probes every cached query (cache *and*
//! window: one [`Entries`](crate::entries::Entries) slice) for
//! subgraph/supergraph relations, producing:
//!
//! * **direct hits** — entries whose valid answers inject straight into
//!   `g`'s answer set (subgraph query: cached `g′` with `g ⊆ g′`, the
//!   `Result_sub` of formula (1); supergraph query: the dual `g′ ⊆ g`);
//! * **exclusion hits** — entries whose valid *non*-answers prove graphs
//!   out of `g`'s candidate set (subgraph query: cached `g″ ⊆ g`, the
//!   `Result_super` of formulas (4)/(5); supergraph query: the dual);
//! * an **exact match** — an entry isomorphic to `g` (§6.3 optimal case 1:
//!   one containment direction + equal vertex/edge counts suffices, since
//!   an injective edge-preserving map between equal-size graphs with equal
//!   edge counts is an isomorphism).
//!
//! A probe is decided by identity when it can be: if an entry has the
//! query's signature and the query arrived verbatim (equal labels and
//! CSR, so the identity map is an isomorphism), `query ⊆ entry` holds
//! without a search. Only the matcher call is skipped. The probe is
//! charged to the budget token and counted in [`Hits::probes`] exactly
//! like the search it replaces, so hit lists, budgets and counts are the
//! same either way. An isomorphic query with another vertex numbering
//! takes the search.
//!
//! Only entries of the *same query kind* are usable: a subgraph-query
//! entry stores `{G : q ⊆ G}` knowledge, which says nothing useful about
//! a supergraph query's `{G : G ⊆ q}` — and vice versa.
//!
//! Probes are cheap: cached queries are small (the window+cache hold at
//! most ~120 of them), signature domination (the query's signature read
//! once per discovery, each entry's once per probe) eliminates most pairs
//! before a probe is charged, and a charged probe
//! that identity does not decide goes through [`filter::decide`]: Method
//! M's local pruning over the two graphs' per-vertex profile tables
//! (without the path words Method M's scan adds after its first searched
//! negative), then the matcher. Local pruning settles about half of those
//! probes without a search, and like the identity probe it is charged
//! and counted as the search it replaces. An entry's table is built once,
//! on the entry's first probe or, for an admitted query, before admission
//! (the entry inherits it through `clone()`). The probe loop is sequential on the
//! request's thread, in slice order — cache entries first, then window
//! entries; concurrency comes from serving requests side by side, not
//! from splitting one. The order is observable: the exact twin is the
//! first one found, and a budget token refuses the probes at the end of
//! the walk.

use gc_graph::{GraphSignature, LabeledGraph};
use gc_subiso::filter::{self, Outcome};
use gc_subiso::{CancelToken, QueryKind, SubgraphMatcher};

use crate::entry::{same_signature, CachedQuery};

/// A hit's position in the entry slice it was discovered over. Hit lists
/// stay valid until the next admission, which only happens after pruning
/// completes.
pub type EntryRef = usize;

/// The outcome of hit discovery for one query.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Hits {
    /// Entries contributing sub-iso-test-free answers.
    pub direct: Vec<EntryRef>,
    /// Entries excluding graphs from the candidate set.
    pub exclusion: Vec<EntryRef>,
    /// An entry isomorphic to the query, if discovered.
    pub exact: Option<EntryRef>,
    /// Number of containment probes decided during discovery
    /// (instrumentation), by an SI search or, for a verbatim twin, by
    /// identity. Each is charged to the budget token either way.
    pub probes: u64,
}

/// The outcome of probing one entry, independent of every other entry.
#[derive(Debug, Clone, Copy, Default)]
struct ProbeOutcome {
    query_in_entry: bool,
    entry_in_query: bool,
    same_sig: bool,
    probes: u64,
}

/// One SI probe, optionally under a budget. `None` means the budget is
/// exhausted and the probe was skipped/abandoned — the entry is simply not
/// used as a hit, which is always sound (missed hits only cost tests, they
/// never change the answer). Probes charge the token's test counter: the
/// budget covers *all* SI work a query triggers. After the charge,
/// `identical` (the caller has seen `pattern == target`) decides the
/// probe; anything else goes to [`filter::decide`], local pruning's
/// profile tables first (never its path words: see [`filter`]), under the
/// token or, without one, an unlimited one.
fn budgeted_contains(
    matcher: &dyn SubgraphMatcher,
    pattern: &LabeledGraph,
    target: &LabeledGraph,
    token: Option<&CancelToken>,
    identical: bool,
) -> Option<bool> {
    let token = match token {
        Some(tok) => {
            tok.charge_test().ok()?;
            tok
        }
        None => CancelToken::unlimited_ref(),
    };
    if identical {
        return Some(true);
    }
    filter::decide(matcher, pattern, target, token, false)
        .map(|outcome| outcome == Outcome::Positive)
        .ok()
}

/// Probes one entry (kind-matched) for both containment directions, the
/// query's signature `query_sig` read once by the caller and the entry's
/// once here; each direction is screened by signature domination before
/// it is charged. Quarantined entries are skipped entirely: their
/// knowledge is under suspicion until the consistency auditor clears them.
fn probe_entry(
    query: &LabeledGraph,
    query_sig: &GraphSignature,
    kind: QueryKind,
    entry: &CachedQuery,
    matcher: &dyn SubgraphMatcher,
    token: Option<&CancelToken>,
) -> ProbeOutcome {
    if entry.kind != kind || entry.quarantined {
        return ProbeOutcome::default();
    }
    let entry_sig = entry.graph.signature();
    let mut out = ProbeOutcome {
        same_sig: same_signature(&entry.graph, entry_sig, query, query_sig),
        ..ProbeOutcome::default()
    };

    // query ⊆ entry ?  (a verbatim twin contains the query by identity)
    let identical = out.same_sig && entry.graph == *query;
    out.query_in_entry = entry_sig.dominates(query_sig)
        && match budgeted_contains(matcher, query, &entry.graph, token, identical) {
            Some(found) => {
                out.probes += 1;
                found
            }
            None => false,
        };
    // entry ⊆ query ?  (an exact match needs only one SI probe: equal
    // signatures + one direction imply isomorphism)
    out.entry_in_query = if out.same_sig && out.query_in_entry {
        true
    } else {
        query_sig.dominates(entry_sig)
            && match budgeted_contains(matcher, &entry.graph, query, token, false) {
                Some(found) => {
                    out.probes += 1;
                    found
                }
                None => false,
            }
    };
    out
}

/// Folds one probe outcome into the hit lists. Direction names follow the
/// *subgraph*-query case; for supergraph queries the roles of the two
/// containment directions swap.
fn fold_outcome(hits: &mut Hits, kind: QueryKind, r: EntryRef, out: ProbeOutcome) {
    hits.probes += out.probes;
    if out.query_in_entry && out.entry_in_query && out.same_sig && hits.exact.is_none() {
        hits.exact = Some(r);
    }
    match kind {
        QueryKind::Subgraph => {
            if out.query_in_entry {
                hits.direct.push(r);
            }
            if out.entry_in_query {
                hits.exclusion.push(r);
            }
        }
        QueryKind::Supergraph => {
            if out.entry_in_query {
                hits.direct.push(r);
            }
            if out.query_in_entry {
                hits.exclusion.push(r);
            }
        }
    }
}

/// Runs GC+sub and GC+super discovery over `entries` (cache then window)
/// under an optional [`CancelToken`]. An exhausted budget makes remaining
/// probes no-ops: the hits found so far are all real (probing is sound
/// under interruption — a missed hit weakens pruning but never the
/// answer), so discovery needs no degraded tag of its own.
pub fn discover_hits(
    query: &LabeledGraph,
    kind: QueryKind,
    entries: &[CachedQuery],
    matcher: &dyn SubgraphMatcher,
    token: Option<&CancelToken>,
) -> Hits {
    let mut hits = Hits::default();
    let query_sig = query.signature();
    for (r, e) in entries.iter().enumerate() {
        let out = probe_entry(query, query_sig, kind, e, matcher, token);
        fold_outcome(&mut hits, kind, r, out);
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{BitSet, LabeledGraph, VertexId};
    use gc_subiso::{Algorithm, Interrupt, MatchStats};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn g(labels: Vec<u16>, edges: &[(u32, u32)]) -> LabeledGraph {
        LabeledGraph::from_parts(labels, edges).unwrap()
    }

    fn entry(graph: LabeledGraph, kind: QueryKind) -> CachedQuery {
        CachedQuery::new(graph, kind, BitSet::new(), 4, 0)
    }

    #[test]
    fn subgraph_query_directions() {
        // cached: triangle (direct for edge query), edge (exclusion for
        // triangle query)
        let triangle = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let edge = g(vec![0, 0], &[(0, 1)]);
        let entries = vec![
            entry(triangle.clone(), QueryKind::Subgraph),
            entry(edge.clone(), QueryKind::Subgraph),
        ];
        let m = Algorithm::Vf2Plus.matcher();

        // query = edge: contained in both cached queries → two direct hits;
        // also the cached edge is ⊆ query → exclusion + exact.
        let hits = discover_hits(&edge, QueryKind::Subgraph, &entries, m, None);
        assert_eq!(hits.direct.len(), 2);
        assert_eq!(hits.exclusion.len(), 1);
        assert_eq!(hits.exact, Some(1));

        // query = path3: triangle is NOT ⊆ path3, edge is ⊆ path3
        let p3 = g(vec![0, 0, 0], &[(0, 1), (1, 2)]);
        let hits = discover_hits(&p3, QueryKind::Subgraph, &entries, m, None);
        assert_eq!(hits.direct, vec![0]); // p3 ⊆ triangle
        assert_eq!(hits.exclusion, vec![1]); // edge ⊆ p3
        assert!(hits.exact.is_none());
    }

    #[test]
    fn supergraph_query_directions_swap() {
        let triangle = g(vec![0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let edge = g(vec![0, 0], &[(0, 1)]);
        let entries = vec![
            entry(triangle.clone(), QueryKind::Supergraph),
            entry(edge.clone(), QueryKind::Supergraph),
        ];
        let m = Algorithm::Vf2Plus.matcher();

        // supergraph query = triangle: cached edge ⊆ triangle → direct
        // (everything contained in the edge is contained in the triangle
        // ... no wait: direct means answers of edge inject into triangle's
        // answers, which is correct: G ⊆ edge ⊆ triangle)
        let hits = discover_hits(&triangle, QueryKind::Supergraph, &entries, m, None);
        assert!(hits.direct.contains(&1));
        // the cached triangle is iso to the query: exact + both lists
        assert_eq!(hits.exact, Some(0));
        assert!(hits.direct.contains(&0));
        assert!(hits.exclusion.contains(&0));

        // supergraph query = edge: triangle ⊇ query → exclusion
        let hits = discover_hits(&edge, QueryKind::Supergraph, &entries, m, None);
        assert!(hits.exclusion.contains(&0));
    }

    #[test]
    fn kind_mismatch_is_ignored() {
        let edge = g(vec![0, 0], &[(0, 1)]);
        let entries = vec![entry(edge.clone(), QueryKind::Supergraph)];
        let m = Algorithm::Vf2Plus.matcher();
        let hits = discover_hits(&edge, QueryKind::Subgraph, &entries, m, None);
        assert!(hits.direct.is_empty());
        assert!(hits.exclusion.is_empty());
        assert!(hits.exact.is_none());
    }

    #[test]
    fn quick_filters_avoid_probes() {
        // label-disjoint entry: no SI probe should run
        let alien = g(vec![9, 9], &[(0, 1)]);
        let entries = vec![entry(alien, QueryKind::Subgraph)];
        let m = Algorithm::Vf2Plus.matcher();
        let q = g(vec![0, 0], &[(0, 1)]);
        let hits = discover_hits(&q, QueryKind::Subgraph, &entries, m, None);
        assert_eq!(hits.probes, 0);
        assert!(hits.direct.is_empty() && hits.exclusion.is_empty());
    }

    #[test]
    fn quarantined_entries_contribute_no_hits() {
        let edge = g(vec![0, 0], &[(0, 1)]);
        let mut quarantined = entry(edge.clone(), QueryKind::Subgraph);
        quarantined.quarantined = true;
        let entries = vec![quarantined];
        let m = Algorithm::Vf2Plus.matcher();
        let hits = discover_hits(&edge, QueryKind::Subgraph, &entries, m, None);
        assert!(hits.direct.is_empty());
        assert!(hits.exclusion.is_empty());
        assert!(hits.exact.is_none());
        assert_eq!(hits.probes, 0, "no SI work on suspect knowledge");
    }

    #[test]
    fn exhausted_budget_skips_probes_soundly() {
        let edge = g(vec![0, 0], &[(0, 1)]);
        let entries = vec![entry(edge.clone(), QueryKind::Subgraph)];
        let m = Algorithm::Vf2Plus.matcher();
        let token = CancelToken::unlimited();
        token.cancel();
        let hits = discover_hits(&edge, QueryKind::Subgraph, &entries, m, Some(&token));
        assert!(hits.direct.is_empty() && hits.exact.is_none());
        assert_eq!(hits.probes, 0);
        // a live token reproduces the unbudgeted result
        let live = CancelToken::unlimited();
        let budgeted = discover_hits(&edge, QueryKind::Subgraph, &entries, m, Some(&live));
        let plain = discover_hits(&edge, QueryKind::Subgraph, &entries, m, None);
        assert_eq!(budgeted, plain);
    }

    #[test]
    fn exact_match_costs_one_probe() {
        let edge = g(vec![0, 0], &[(0, 1)]);
        let entries = vec![entry(edge.clone(), QueryKind::Subgraph)];
        let m = Algorithm::Vf2Plus.matcher();
        let hits = discover_hits(&edge, QueryKind::Subgraph, &entries, m, None);
        assert_eq!(hits.exact, Some(0));
        assert_eq!(
            hits.probes, 1,
            "signature equality short-circuits the reverse probe"
        );
    }

    /// VF2+ that counts how often it is asked.
    #[derive(Default)]
    struct CountingVf2Plus(AtomicU64);

    impl CountingVf2Plus {
        fn calls(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }

        fn vf2plus(&self) -> &'static dyn SubgraphMatcher {
            self.0.fetch_add(1, Ordering::Relaxed);
            Algorithm::Vf2Plus.matcher()
        }
    }

    impl SubgraphMatcher for CountingVf2Plus {
        fn name(&self) -> &'static str {
            "counting VF2+"
        }

        fn contains_with_stats(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
        ) -> (bool, MatchStats) {
            self.vf2plus().contains_with_stats(pattern, target)
        }

        fn contains_budgeted(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
            token: &CancelToken,
        ) -> Result<bool, Interrupt> {
            self.vf2plus().contains_budgeted(pattern, target, token)
        }

        fn find_embedding(
            &self,
            pattern: &LabeledGraph,
            target: &LabeledGraph,
        ) -> Option<Vec<VertexId>> {
            self.vf2plus().find_embedding(pattern, target)
        }
    }

    /// A labeled path `0-1-2` and the same path numbered backwards: equal
    /// signatures, unequal CSR.
    fn path_and_reversed() -> (LabeledGraph, LabeledGraph) {
        (
            g(vec![0, 1, 2], &[(0, 1), (1, 2)]),
            g(vec![2, 1, 0], &[(0, 1), (1, 2)]),
        )
    }

    #[test]
    fn verbatim_twin_is_decided_without_the_matcher() {
        let (path, _) = path_and_reversed();
        let entries = vec![entry(path.clone(), QueryKind::Subgraph)];
        let m = CountingVf2Plus::default();
        let hits = discover_hits(&path, QueryKind::Subgraph, &entries, &m, None);
        assert_eq!(hits.exact, Some(0));
        assert_eq!(hits.probes, 1, "an identity-decided probe still counts");
        assert_eq!(m.calls(), 0);
    }

    #[test]
    fn permuted_twin_takes_one_search() {
        let (path, reversed) = path_and_reversed();
        assert_ne!(path, reversed);
        let entries = vec![entry(path, QueryKind::Subgraph)];
        let m = CountingVf2Plus::default();
        let hits = discover_hits(&reversed, QueryKind::Subgraph, &entries, &m, None);
        assert_eq!(hits.exact, Some(0));
        assert_eq!(hits.probes, 1);
        assert_eq!(m.calls(), 1);
    }

    #[test]
    fn cancelled_token_refuses_the_identity_probe() {
        let (path, _) = path_and_reversed();
        let entries = vec![entry(path.clone(), QueryKind::Subgraph)];
        let m = CountingVf2Plus::default();
        let token = CancelToken::unlimited();
        token.cancel();
        let hits = discover_hits(&path, QueryKind::Subgraph, &entries, &m, Some(&token));
        assert_eq!(hits, Hits::default(), "a refused probe is no hit");
        assert_eq!(m.calls(), 0);
    }

    #[test]
    fn identity_probe_uses_up_the_test_cap_like_a_search() {
        let (path, reversed) = path_and_reversed();
        // after the twin, an entry the query is contained in: a direct hit
        // whenever its probe is allowed to run
        let longer = g(vec![0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]);
        let entries = vec![
            entry(path.clone(), QueryKind::Subgraph),
            entry(longer, QueryKind::Subgraph),
        ];
        let m = CountingVf2Plus::default();
        let free = discover_hits(&path, QueryKind::Subgraph, &entries, &m, None);
        assert_eq!(free.direct, vec![0, 1]);

        let capped = |query: &LabeledGraph| {
            let token = CancelToken::new(None, Some(1));
            discover_hits(query, QueryKind::Subgraph, &entries, &m, Some(&token))
        };
        let before = m.calls();
        let verbatim = capped(&path);
        assert_eq!(
            m.calls(),
            before,
            "the twin took the cap, the next probe was refused"
        );
        assert_eq!(verbatim.exact, Some(0));
        assert_eq!(verbatim.direct, vec![0]);
        assert_eq!(verbatim.probes, 1);
        // a search for the same twin spends the cap the same way
        assert_eq!(capped(&reversed), verbatim);
        assert_eq!(m.calls(), before + 1);
    }
}
