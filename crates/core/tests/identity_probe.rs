//! Differential for the identity-decided hit probe: a query that arrives
//! verbatim as a cached entry's graph has its `query ⊆ entry` probe
//! decided by a graph compare, while a vertex-permuted copy of the same
//! query takes the VF2+ search. Permuting is therefore the "fast path
//! off" switch: over seeded entry tables (both query kinds, some entries
//! quarantined) and queries drawn from the entries, from their
//! subgraphs and from fresh graphs, `discover_hits` must return identical
//! `Hits` for a query and its permuted copy, probe count included, with
//! and without a test cap on the budget token.

use gc_core::entry::CachedQuery;
use gc_core::processor::{discover_hits, Hits};
use gc_graph::generate::{bfs_extract, permute, random_connected_graph};
use gc_graph::{BitSet, LabeledGraph};
use gc_subiso::{Algorithm, CancelToken, QueryKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(rng: &mut StdRng) -> LabeledGraph {
    let n = rng.random_range(2..8usize);
    let extra = rng.random_range(0..3usize);
    random_connected_graph(rng, n, extra, |r| r.random_range(0..3u16))
}

fn random_kind(rng: &mut StdRng) -> QueryKind {
    if rng.random_bool(0.5) {
        QueryKind::Subgraph
    } else {
        QueryKind::Supergraph
    }
}

/// One seeded entry table and twenty queries against it. Returns how
/// many queries differed from their permuted copy and still found their
/// exact twin: the cases where the two paths really diverged.
fn run(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries: Vec<CachedQuery> = (0..rng.random_range(1..12usize))
        .map(|i| {
            let mut e = CachedQuery::new(
                random_graph(&mut rng),
                random_kind(&mut rng),
                BitSet::new(),
                4,
                i as u64,
            );
            e.quarantined = rng.random_bool(0.2);
            e
        })
        .collect();

    let matcher = Algorithm::Vf2Plus.matcher();
    let mut diverged = 0;
    for step in 0..20 {
        let src = &entries[rng.random_range(0..entries.len())].graph;
        let query = match rng.random_range(0..4u32) {
            0 | 1 => src.clone(),
            2 => {
                let start = rng.random_range(0..src.vertex_count() as u32);
                let want = rng.random_range(1..=src.edge_count().max(1));
                bfs_extract(&mut rng, src, start, want).unwrap_or_else(|| src.clone())
            }
            _ => random_graph(&mut rng),
        };
        let permuted = permute(&mut rng, &query);
        let kind = random_kind(&mut rng);
        let cap = rng.random_bool(0.3).then(|| rng.random_range(0..6u64));
        let discover = |q: &LabeledGraph| -> Hits {
            let token = cap.map(|c| CancelToken::new(None, Some(c)));
            discover_hits(q, kind, &entries, matcher, token.as_ref())
        };
        let verbatim = discover(&query);
        assert_eq!(
            verbatim,
            discover(&permuted),
            "seed {seed} step {step} {kind:?} cap {cap:?}\nquery {query:?}\npermuted {permuted:?}"
        );
        if permuted != query && verbatim.exact.is_some() {
            diverged += 1;
        }
    }
    diverged
}

/// Non-vacuity: on fixed seeds, many queries differ from their permuted
/// copy and still find their twin, so the identity path and the search
/// were both exercised on the same twins.
#[test]
fn permuted_twins_are_found_on_fixed_seeds() {
    let diverged: u64 = (0..16).map(run).sum();
    assert!(diverged >= 40, "only {diverged} diverging exact hits");
}

proptest! {
    #[test]
    fn verbatim_and_permuted_queries_get_identical_hits(seed in 0u64..1_000_000) {
        run(seed);
    }
}
