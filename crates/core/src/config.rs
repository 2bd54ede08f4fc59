//! GC+ configuration.
//!
//! Defaults follow the paper's experimental setup (§7.1): cache capacity
//! 100, window capacity 20, the HD (hybrid) replacement policy, and the
//! CON consistency model. Method M defaults to VF2 (the paper's
//! most-studied base method); the internal matcher used to probe cached
//! queries for hits is VF2+ (cheap on ≤ 21-edge query graphs).

use gc_subiso::{Algorithm, MethodM};

use crate::fault::QueryBudget;

/// The GC+ cache-consistency models: the paper's two (§5) plus the
/// retrospective extension it sketches as future work (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheModel {
    /// Evict the entire cache whenever the dataset changed (§5.1).
    Evi,
    /// Keep per-dataset-graph validity bits refreshed by Algorithms 1 & 2
    /// (§5.2), retaining all provably unaffected knowledge.
    Con,
    /// CON with *retrospective* validation: per-graph net edge deltas
    /// instead of operation-category counters, so changes that cancel out
    /// preserve validity (the paper's §8 future-work item).
    ConRetro,
}

impl CacheModel {
    /// Paper display name ("CON-R" for the retrospective extension).
    pub fn name(self) -> &'static str {
        match self {
            CacheModel::Evi => "EVI",
            CacheModel::Con => "CON",
            CacheModel::ConRetro => "CON-R",
        }
    }
}

impl std::fmt::Display for CacheModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cache replacement policies. PIN/PINC/HD are the GC/GC+ exclusive
/// policies of §7.1; LRU/LFU are the classical baselines GC compared
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Evict the least recently used entry.
    Lru,
    /// Evict the least frequently hit entry.
    Lfu,
    /// Score = R, the number of sub-iso tests the entry alleviated.
    Pin,
    /// Score = C-weighted R: estimated query-time saved (cost heuristic
    /// from the paper's ref \[25\]).
    Pinc,
    /// HD: if the (squared) coefficient of variation of the R distribution
    /// exceeds 1, use PIN's scoring, else PINC's (§7.1).
    Hybrid,
}

impl Policy {
    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lru => "LRU",
            Policy::Lfu => "LFU",
            Policy::Pin => "PIN",
            Policy::Pinc => "PINC",
            Policy::Hybrid => "HD",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where the candidate set `CS_M` handed to Method M comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CandidateSource {
    /// The updatable postings-bitset index ([`gc_dataset::LabelIndex`]):
    /// per-label candidate bitsets intersected across the query's label
    /// multiset, with the signature pre-filter folded in so one pass
    /// yields the final candidate set. Maintained incrementally under
    /// ADD/DEL/UA/UR — never rebuilt on the update path. The default.
    LabelIndex,
    /// The whole live dataset, scanned per query with Method M's
    /// per-candidate signature pre-filter — the paper's SI-method
    /// setting, kept for comparable timings and as the audit witness.
    LiveScan,
}

impl CandidateSource {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            CandidateSource::LabelIndex => "index",
            CandidateSource::LiveScan => "scan",
        }
    }
}

impl std::fmt::Display for CandidateSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the CON maintenance pass treats a cached entry whose relation
/// towards a touched dataset graph can no longer be proven intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintenanceMode {
    /// Delta-repair: classify every (entry, touched graph) as Unaffected
    /// (Algorithm 2 keeps the bit), LocalRepair (a signature disproof
    /// settles the answer bit as `false` and validity is *kept*), or
    /// Invalidate (fallback when nothing disproves the relation: validity
    /// bit cleared exactly as in the paper). Runs no SI test. The default.
    Repair,
    /// The paper's behavior: clear the validity bit and let the next query
    /// that needs the graph recompute it (kept by [`GcConfig::paper`]).
    Invalidate,
}

impl MaintenanceMode {
    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            MaintenanceMode::Repair => "repair",
            MaintenanceMode::Invalidate => "invalidate",
        }
    }
}

impl std::fmt::Display for MaintenanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full GC+ configuration.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Upper limit on the cache store (paper default: 100 queries).
    pub cache_capacity: usize,
    /// Upper limit on the window store (paper default: 20 queries).
    pub window_capacity: usize,
    /// Consistency model (EVI, CON or CON-R).
    pub model: CacheModel,
    /// Replacement policy.
    pub policy: Policy,
    /// The external SI method GC+ expedites.
    pub method: MethodM,
    /// SI algorithm used *internally* to discover subgraph/supergraph
    /// relations between the incoming query and cached queries.
    pub internal_matcher: Algorithm,
    /// Where `CS_M` comes from: the postings-bitset label index (the
    /// default since the index graduated from ablation arm to
    /// architecture) or a full live-dataset scan (the paper-faithful
    /// setting, kept by [`GcConfig::paper`]).
    pub candidate_source: CandidateSource,
    /// How CON maintenance treats entries a delta may have affected:
    /// delta-repair in place (the default) or paper-faithful invalidation
    /// (kept by [`GcConfig::paper`]).
    pub maintenance: MaintenanceMode,
    /// Ignored — hit probing is sequential; removed once `benchmark/` stops
    /// naming it.
    pub probe_parallelism: usize,
    /// Default per-request execution budget (wall-clock deadline / sub-iso
    /// test cap) a serving deployment hands to `CacheService::new`; the
    /// cache front-ends take theirs per `execute` call and never read it.
    /// Unlimited by default — the paper's measurement setting.
    pub budget: QueryBudget,
    /// Shard count for [`crate::ShardedGraphCache`]-based deployments
    /// (clamped to ≥ 1). Single-shard by default.
    pub shards: usize,
    /// Per-shard in-flight request cap for the networked service; requests
    /// beyond this depth are shed with an explicit `Overloaded` response.
    pub max_inflight: usize,
    /// Client-side retry attempts (beyond the first try) for idempotent
    /// operations on transport errors or explicit `Retryable` responses.
    pub retry_max: u32,
    /// Record per-query latency histograms (telemetry). Per-shard
    /// hit/miss/eviction/shed counters are *always* on — they are single
    /// relaxed atomic adds — but histogram recording is gated here so the
    /// paper's measurement setting stays byte-for-byte untouched.
    pub metrics: bool,
    /// Record per-stage pipeline trace spans (pre-filter, candidate scan,
    /// verify, hit probe, admission, audit). Implies extra `Instant::now`
    /// calls on the query hot path; off by default for the same reason.
    pub trace: bool,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            cache_capacity: 100,
            window_capacity: 20,
            model: CacheModel::Con,
            policy: Policy::Hybrid,
            method: MethodM::new(Algorithm::Vf2),
            internal_matcher: Algorithm::Vf2Plus,
            candidate_source: CandidateSource::LabelIndex,
            maintenance: MaintenanceMode::Repair,
            probe_parallelism: 1,
            budget: QueryBudget::UNLIMITED,
            shards: 1,
            max_inflight: 64,
            retry_max: 3,
            metrics: false,
            trace: false,
        }
    }
}

impl GcConfig {
    /// Paper defaults with the given Method M algorithm and model. Beyond
    /// those two, it differs from [`GcConfig::default`] only in candidate
    /// source and maintenance: `CS_M` is the paper-faithful full
    /// live-dataset scan and CON maintenance invalidates instead of
    /// repairing — the paper's measurement setting, so experiment results
    /// stay comparable against the published tables.
    pub fn paper(method: Algorithm, model: CacheModel) -> Self {
        GcConfig {
            model,
            method: MethodM::new(method),
            candidate_source: CandidateSource::LiveScan,
            maintenance: MaintenanceMode::Invalidate,
            ..GcConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GcConfig::default();
        assert_eq!(c.cache_capacity, 100);
        assert_eq!(c.window_capacity, 20);
        assert_eq!(c.model, CacheModel::Con);
        assert_eq!(c.policy, Policy::Hybrid);
        assert!(c.budget.is_unlimited(), "no deadline unless asked for");
        assert!(c.method.prefilter, "Method M pre-filter defaults on");
        assert_eq!(
            c.candidate_source,
            CandidateSource::LabelIndex,
            "the postings index is the standing candidate source"
        );
        assert_eq!(c.maintenance, MaintenanceMode::Repair, "repair is default");
        assert_eq!(c.shards, 1);
        assert_eq!(c.max_inflight, 64);
        assert_eq!(c.retry_max, 3);
        assert!(!c.metrics, "histograms must be opt-in");
        assert!(!c.trace, "spans must be opt-in");
    }

    #[test]
    fn names() {
        assert_eq!(CacheModel::Evi.to_string(), "EVI");
        assert_eq!(CacheModel::Con.to_string(), "CON");
        assert_eq!(Policy::Hybrid.to_string(), "HD");
        assert_eq!(Policy::Pinc.name(), "PINC");
        assert_eq!(CandidateSource::LabelIndex.to_string(), "index");
        assert_eq!(CandidateSource::LiveScan.to_string(), "scan");
        assert_eq!(MaintenanceMode::Repair.to_string(), "repair");
        assert_eq!(MaintenanceMode::Invalidate.to_string(), "invalidate");
    }

    #[test]
    fn paper_constructor() {
        let c = GcConfig::paper(Algorithm::GraphQl, CacheModel::Evi);
        assert_eq!(c.method.algorithm, Algorithm::GraphQl);
        assert_eq!(c.model, CacheModel::Evi);
        assert_eq!(c.cache_capacity, 100);
        assert_eq!(
            c.candidate_source,
            CandidateSource::LiveScan,
            "paper timings use the paper's full scan"
        );
        assert_eq!(c.maintenance, MaintenanceMode::Invalidate);
    }
}
