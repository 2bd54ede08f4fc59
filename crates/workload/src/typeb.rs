//! Type B workloads — with no-answer queries (paper §7.1).
//!
//! > "For each of the query sizes, we first create two query pools: a
//! > 10,000-query pool with queries with non-empty answer sets against the
//! > initial dataset, and a second 3,000-query pool with no match in any
//! > untreated dataset graph (i.e., empty result set). Queries for the
//! > first pool are extracted from dataset graphs by uniformly selecting a
//! > start node across all nodes in all dataset graphs, and then
//! > performing a random walk till the required query graph size is
//! > reached. Generation of no-answer queries has one extra step: we
//! > continuously relabel the nodes in the query with randomly selected
//! > labels from the dataset, until the resulting query has a non-empty
//! > candidate set but an empty answer set against the dataset graphs.
//! > Once the query pools are filled up, we generate workloads by first
//! > flipping a biased coin to choose between the two pools (with the
//! > 'no-answer' pool selected with probability 0%, 20% or 50%), then
//! > randomly (Zipf) selecting a query from the chosen pool."
//!
//! *Candidate set* here is the filter-stage proxy: dataset graphs whose
//! size and label multiset dominate the query's (the same necessary
//! conditions every FTV filter implies), so a no-answer query still forces
//! real sub-iso work — that is precisely what makes the 20%/50% workloads
//! harder for Method M and more rewarding for the §6.3 empty-answer
//! optimal case.

use gc_graph::{LabeledGraph, Zipf};
use gc_subiso::{Algorithm, QueryKind, SubgraphMatcher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Workload, PAPER_QUERY_SIZES, PAPER_ZIPF_ALPHA};

/// Configuration for [`generate_type_b`].
#[derive(Debug, Clone)]
pub struct TypeBConfig {
    /// Number of queries in the workload (paper: 10,000).
    pub num_queries: usize,
    /// Positive-pool size per query size (paper: 10,000).
    pub positive_pool: usize,
    /// No-answer-pool size per query size (paper: 3,000).
    pub noanswer_pool: usize,
    /// Probability of drawing from the no-answer pool (0.0 / 0.2 / 0.5).
    pub noanswer_prob: f64,
    /// Query sizes in edges (paper: 4/8/12/16/20).
    pub sizes: Vec<usize>,
    /// Zipf skew for pool selection (paper: 1.4).
    pub zipf_alpha: f64,
    /// RNG seed.
    pub seed: u64,
    /// Bound on relabeling attempts per no-answer query before a fresh
    /// walk is drawn.
    pub max_relabel_attempts: usize,
}

impl TypeBConfig {
    /// Paper-shaped configuration with scaled pool sizes. `noanswer_prob`
    /// ∈ {0.0, 0.2, 0.5} gives the "0%", "20%", "50%" categories.
    pub fn scaled(
        num_queries: usize,
        positive_pool: usize,
        noanswer_pool: usize,
        noanswer_prob: f64,
        seed: u64,
    ) -> Self {
        TypeBConfig {
            num_queries,
            positive_pool,
            noanswer_pool,
            noanswer_prob,
            sizes: PAPER_QUERY_SIZES.to_vec(),
            zipf_alpha: PAPER_ZIPF_ALPHA,
            seed,
            max_relabel_attempts: 200,
        }
    }

    /// Workload label as in the paper's figures ("0%", "20%", "50%").
    pub fn name(&self) -> String {
        format!("{}%", (self.noanswer_prob * 100.0).round() as u32)
    }
}

/// Necessary-condition candidate check used during no-answer generation:
/// `true` iff some dataset graph could pass an FTV filter for this query.
fn has_candidates(query: &LabeledGraph, dataset: &[LabeledGraph]) -> bool {
    dataset.iter().any(|g| {
        query.vertex_count() <= g.vertex_count()
            && query.edge_count() <= g.edge_count()
            && g.signature().labels_dominate(query.signature())
    })
}

/// `true` iff the query matches no dataset graph (empty answer set).
fn has_empty_answer(
    query: &LabeledGraph,
    dataset: &[LabeledGraph],
    matcher: &dyn SubgraphMatcher,
) -> bool {
    !dataset.iter().any(|g| matcher.contains(query, g))
}

struct NodeIndex {
    /// Prefix sums of vertex counts, for uniform node selection "across
    /// all nodes in all dataset graphs".
    prefix: Vec<usize>,
    total: usize,
}

impl NodeIndex {
    fn new(dataset: &[LabeledGraph]) -> Self {
        let mut prefix = Vec::with_capacity(dataset.len());
        let mut acc = 0usize;
        for g in dataset {
            prefix.push(acc);
            acc += g.vertex_count();
        }
        NodeIndex { prefix, total: acc }
    }

    /// Uniformly selects `(graph index, node id)` over all nodes.
    fn sample(&self, rng: &mut StdRng) -> (usize, u32) {
        let k = rng.random_range(0..self.total);
        let gi = match self.prefix.binary_search(&k) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        ((gi), (k - self.prefix[gi]) as u32)
    }
}

/// Draws one positive-pool query of exactly `size` edges.
fn draw_positive(
    dataset: &[LabeledGraph],
    index: &NodeIndex,
    size: usize,
    rng: &mut StdRng,
) -> LabeledGraph {
    loop {
        let (gi, node) = index.sample(rng);
        if let Some(q) = gc_graph::generate::random_walk_extract(rng, &dataset[gi], node, size) {
            return q;
        }
    }
}

/// Global label pool of the dataset (frequency-weighted, as "randomly
/// selected labels from the dataset" implies).
fn label_pool(dataset: &[LabeledGraph]) -> Vec<u16> {
    dataset
        .iter()
        .flat_map(|g| g.labels().iter().copied())
        .collect()
}

/// Generates a Type B workload against the initial dataset.
///
/// Pool construction dominates the cost (each no-answer candidate must be
/// verified to have an empty answer set by real sub-iso tests); pools are
/// per query size, exactly as the paper describes.
pub fn generate_type_b(dataset: &[LabeledGraph], cfg: &TypeBConfig) -> Workload {
    assert!(!dataset.is_empty(), "Type B needs a non-empty dataset");
    assert!(
        (0.0..=1.0).contains(&cfg.noanswer_prob),
        "no-answer probability must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let index = NodeIndex::new(dataset);
    let labels = label_pool(dataset);
    let matcher = Algorithm::Vf2Plus.matcher();

    // --- pool construction, per size ---
    let mut positive_pools: Vec<Vec<LabeledGraph>> = Vec::with_capacity(cfg.sizes.len());
    let mut noanswer_pools: Vec<Vec<LabeledGraph>> = Vec::with_capacity(cfg.sizes.len());
    for &size in &cfg.sizes {
        let mut pos = Vec::with_capacity(cfg.positive_pool);
        while pos.len() < cfg.positive_pool {
            pos.push(draw_positive(dataset, &index, size, &mut rng));
        }
        let mut neg = Vec::with_capacity(cfg.noanswer_pool);
        'outer: while neg.len() < cfg.noanswer_pool {
            // fresh walk, then relabel until no-answer with candidates
            let base = draw_positive(dataset, &index, size, &mut rng);
            for _ in 0..cfg.max_relabel_attempts {
                let mut q = base.clone();
                let relabeled: Vec<u16> = (0..q.vertex_count())
                    .map(|_| labels[rng.random_range(0..labels.len())])
                    .collect();
                // rebuild with new labels (vertex labels are immutable on
                // LabeledGraph by design; reconstruct instead)
                let edges: Vec<_> = q.edges().collect();
                q = LabeledGraph::from_parts(relabeled, &edges)
                    .expect("edges come from a valid graph");
                if has_candidates(&q, dataset) && has_empty_answer(&q, dataset, matcher) {
                    neg.push(q);
                    continue 'outer;
                }
            }
            // fall through: draw a fresh base walk and retry
        }
        positive_pools.push(pos);
        noanswer_pools.push(neg);
    }

    // --- workload assembly ---
    let pos_zipf = Zipf::new(cfg.positive_pool.max(1), cfg.zipf_alpha);
    let neg_zipf = Zipf::new(cfg.noanswer_pool.max(1), cfg.zipf_alpha);
    let mut queries = Vec::with_capacity(cfg.num_queries);
    for _ in 0..cfg.num_queries {
        let size_idx = rng.random_range(0..cfg.sizes.len());
        let use_noanswer = cfg.noanswer_prob > 0.0 && rng.random::<f64>() < cfg.noanswer_prob;
        let q = if use_noanswer && !noanswer_pools[size_idx].is_empty() {
            let k = neg_zipf
                .sample(&mut rng)
                .min(noanswer_pools[size_idx].len() - 1);
            noanswer_pools[size_idx][k].clone()
        } else {
            let k = pos_zipf
                .sample(&mut rng)
                .min(positive_pools[size_idx].len() - 1);
            positive_pools[size_idx][k].clone()
        };
        queries.push(q);
    }

    Workload {
        name: cfg.name(),
        queries,
        kind: QueryKind::Subgraph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::generate::random_connected_graph;

    fn dataset(count: usize, seed: u64) -> Vec<LabeledGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n = rng.random_range(15..30usize);
                random_connected_graph(&mut rng, n, 6, |r| r.random_range(0..6u16))
            })
            .collect()
    }

    fn small_cfg(prob: f64, seed: u64) -> TypeBConfig {
        TypeBConfig {
            num_queries: 40,
            positive_pool: 10,
            noanswer_pool: 5,
            noanswer_prob: prob,
            sizes: vec![4, 8],
            zipf_alpha: PAPER_ZIPF_ALPHA,
            seed,
            max_relabel_attempts: 300,
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(small_cfg(0.0, 0).name(), "0%");
        assert_eq!(small_cfg(0.2, 0).name(), "20%");
        assert_eq!(small_cfg(0.5, 0).name(), "50%");
    }

    #[test]
    fn zero_percent_workload_all_positive() {
        let data = dataset(8, 1);
        let w = generate_type_b(&data, &small_cfg(0.0, 2));
        assert_eq!(w.len(), 40);
        let m = Algorithm::Vf2.matcher();
        for q in &w.queries {
            assert!(data.iter().any(|g| m.contains(q, g)));
        }
    }

    #[test]
    fn fifty_percent_contains_noanswer_queries() {
        let data = dataset(8, 3);
        let w = generate_type_b(&data, &small_cfg(0.5, 4));
        let m = Algorithm::Vf2.matcher();
        let empties = w
            .queries
            .iter()
            .filter(|q| !data.iter().any(|g| m.contains(q, g)))
            .count();
        // 40 queries at p=0.5: ~20 expected, demand at least a handful
        assert!(empties >= 8, "got {empties} no-answer queries");
        // every no-answer query still has FTV candidates
        for q in &w.queries {
            assert!(has_candidates(q, &data));
        }
    }

    #[test]
    fn pool_reuse_causes_repetition() {
        let data = dataset(8, 5);
        let w = generate_type_b(&data, &small_cfg(0.2, 6));
        // 40 draws from pools of ≤ 10+5 per size → repetitions must occur
        assert!(w.distinct_queries() < w.len());
    }

    #[test]
    fn determinism() {
        let data = dataset(6, 7);
        let a = generate_type_b(&data, &small_cfg(0.2, 8));
        let b = generate_type_b(&data, &small_cfg(0.2, 8));
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn node_index_uniform_over_all_nodes() {
        let data = dataset(5, 9);
        let idx = NodeIndex::new(&data);
        let total: usize = data.iter().map(|g| g.vertex_count()).sum();
        assert_eq!(idx.total, total);
        let mut rng = StdRng::seed_from_u64(10);
        let mut per_graph = vec![0usize; data.len()];
        for _ in 0..5000 {
            let (gi, node) = idx.sample(&mut rng);
            assert!((node as usize) < data[gi].vertex_count());
            per_graph[gi] += 1;
        }
        // frequency proportional to vertex count (loose check)
        for (gi, g) in data.iter().enumerate() {
            let expected = 5000.0 * g.vertex_count() as f64 / total as f64;
            assert!(
                (per_graph[gi] as f64 - expected).abs() < expected * 0.5 + 20.0,
                "graph {gi}: {} vs {expected}",
                per_graph[gi]
            );
        }
    }
}
