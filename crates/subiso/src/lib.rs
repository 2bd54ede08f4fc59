//! Non-induced subgraph isomorphism for GraphCache+.
//!
//! The paper evaluates GC+ over three well-established SI methods:
//!
//! * **VF2** — the classic Cordella et al. algorithm ([`vf2`]), used
//!   extensively inside filter-then-verify systems;
//! * **VF2+** — the modified VF2 shipped with CT-Index ([`vf2plus`]):
//!   rare-label-first static variable ordering plus degree/neighborhood
//!   candidate pruning;
//! * **GraphQL (GQL)** — He & Singh's algorithm ([`graphql`]): per-vertex
//!   candidate sets from neighborhood profiles, iterative global refinement
//!   by bipartite semi-perfect matching, then candidate-driven search.
//!
//! All three solve the *decision* problem for **non-induced** subgraph
//! isomorphism on undirected vertex-labeled graphs (paper §3): pattern
//! `P ⊆ T` iff there is an injection `φ : V(P) → V(T)` with
//! `(u,v) ∈ E(P) ⇒ (φ(u),φ(v)) ∈ E(T)` and `l(u) = l(φ(u))`.
//!
//! [`MethodM`] wraps any of them into the paper's "Method M": a
//! sequential scan of a candidate set of dataset graphs, counting one
//! sub-iso test per candidate — the quantity behind Figure 5. A **signature
//! pre-filter** ([`filter::signature_may_contain`]) sits inside the scan
//! (see [`method`] for the full design): it decides candidates by O(1)
//! domination checks over the CSR graphs' cached
//! [`gc_graph::GraphSignature`]s before any matcher runs, reported as
//! `prefilter_skips`.
//!
//! A deliberately naive [`bruteforce`] matcher exists purely as a testing
//! oracle; the three production algorithms are cross-validated against it
//! by property tests.

pub mod bipartite;
pub mod bruteforce;
pub mod cancel;
pub mod filter;
pub mod graphql;
pub mod method;
pub mod vf2;
pub mod vf2plus;

pub use cancel::{CancelToken, Interrupt};
pub use method::{MethodAnswer, MethodM, QueryKind};

use gc_graph::{LabeledGraph, VertexId};

/// Statistics of a single sub-iso test — search-tree nodes expanded.
/// Deterministic, used by tests to compare algorithm pruning power.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of (pattern-vertex, candidate) pairs tried.
    pub nodes: u64,
}

/// A decision procedure for non-induced subgraph isomorphism.
pub trait SubgraphMatcher: Send + Sync {
    /// Algorithm name as reported in experiment tables.
    fn name(&self) -> &'static str;

    /// Does `pattern ⊆ target` (non-induced, label-preserving)? Also
    /// reports search statistics.
    fn contains_with_stats(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> (bool, MatchStats);

    /// Does `pattern ⊆ target`?
    fn contains(&self, pattern: &LabeledGraph, target: &LabeledGraph) -> bool {
        self.contains_with_stats(pattern, target).0
    }

    /// Budgeted decision: like [`contains`](Self::contains), but consults
    /// `token` at search checkpoints and unwinds with an [`Interrupt`] when
    /// the budget is exhausted. The default implementation checks the token
    /// once up front and then runs to completion — engines with a search
    /// loop override it with true mid-search cancellation.
    fn contains_budgeted(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
        token: &CancelToken,
    ) -> Result<bool, Interrupt> {
        token.check()?;
        Ok(self.contains(pattern, target))
    }

    /// Finds one embedding `φ` (pattern vertex id → target vertex id), if
    /// any exists.
    fn find_embedding(
        &self,
        pattern: &LabeledGraph,
        target: &LabeledGraph,
    ) -> Option<Vec<VertexId>>;
}

/// The three SI algorithms of the paper's evaluation, as a plain enum so
/// configurations stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Vanilla VF2 (Cordella et al. 2004).
    Vf2,
    /// VF2+ — CT-Index's modified VF2 (Klein et al. 2011).
    Vf2Plus,
    /// GraphQL (He & Singh 2008), per Lee et al.'s in-depth comparison.
    GraphQl,
}

impl Algorithm {
    /// All algorithms, in the order the paper's figures list them.
    pub const ALL: [Algorithm; 3] = [Algorithm::Vf2, Algorithm::Vf2Plus, Algorithm::GraphQl];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Vf2 => "VF2",
            Algorithm::Vf2Plus => "VF2+",
            Algorithm::GraphQl => "GQL",
        }
    }

    /// Returns the matcher implementation.
    pub fn matcher(self) -> &'static dyn SubgraphMatcher {
        match self {
            Algorithm::Vf2 => &vf2::Vf2,
            Algorithm::Vf2Plus => &vf2plus::Vf2Plus,
            Algorithm::GraphQl => &graphql::GraphQl::DEFAULT,
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "vf2" => Ok(Algorithm::Vf2),
            "vf2+" | "vf2plus" => Ok(Algorithm::Vf2Plus),
            "gql" | "graphql" => Ok(Algorithm::GraphQl),
            other => Err(format!(
                "unknown SI algorithm '{other}' (expected VF2, VF2+ or GQL)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_and_parse() {
        assert_eq!(Algorithm::Vf2.name(), "VF2");
        assert_eq!(Algorithm::Vf2Plus.to_string(), "VF2+");
        assert_eq!("gql".parse::<Algorithm>().unwrap(), Algorithm::GraphQl);
        assert_eq!("VF2+".parse::<Algorithm>().unwrap(), Algorithm::Vf2Plus);
        assert!("nope".parse::<Algorithm>().is_err());
    }

    #[test]
    fn matchers_are_addressable() {
        for a in Algorithm::ALL {
            assert_eq!(a.matcher().name(), a.name());
        }
    }
}
