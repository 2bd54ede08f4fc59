//! Type A workloads (paper §7.1).
//!
//! > "first, a source graph is randomly selected from dataset graphs;
//! > then, a node is selected randomly in the said graph; finally, a query
//! > size is selected uniformly at random from given sizes and a BFS is
//! > performed starting from the selected node. […] For the first two
//! > random selections above, we have used two different distributions;
//! > namely, Uniform (U) and Zipf (Z) […]. Ultimately, we had three
//! > categories of Type A workloads: 'UU', 'ZU' and 'ZZ'."
//!
//! Because every Type A query is a BFS-extracted subgraph of a dataset
//! graph (labels preserved), each has a non-empty answer set against the
//! initial dataset — its source graph at minimum.

use gc_graph::{LabeledGraph, Zipf};
use gc_subiso::QueryKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Workload, PAPER_QUERY_SIZES, PAPER_ZIPF_ALPHA};

/// Selection distribution for source graphs / start nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Uniform over the domain.
    Uniform,
    /// Zipf with the given α; rank 0 (the most likely) is index 0.
    Zipf(f64),
}

impl Dist {
    fn sampler(self, n: usize) -> DistSampler {
        match self {
            Dist::Uniform => DistSampler::Uniform(n),
            Dist::Zipf(alpha) => DistSampler::Zipf(Zipf::new(n, alpha)),
        }
    }

    /// Paper letter code: U or Z.
    pub fn letter(self) -> char {
        match self {
            Dist::Uniform => 'U',
            Dist::Zipf(_) => 'Z',
        }
    }
}

enum DistSampler {
    Uniform(usize),
    Zipf(Zipf),
}

impl DistSampler {
    fn sample(&self, rng: &mut StdRng) -> usize {
        match self {
            DistSampler::Uniform(n) => rng.random_range(0..*n),
            DistSampler::Zipf(z) => z.sample(rng),
        }
    }
}

/// Configuration for [`generate_type_a`].
#[derive(Debug, Clone)]
pub struct TypeAConfig {
    /// Number of queries (paper: 10,000).
    pub num_queries: usize,
    /// Distribution used to pick the source graph (first letter).
    pub graph_dist: Dist,
    /// Distribution used to pick the start node (second letter).
    pub node_dist: Dist,
    /// Query sizes in edges, chosen uniformly (paper: 4/8/12/16/20).
    pub sizes: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl TypeAConfig {
    /// The paper's UU workload.
    pub fn uu(num_queries: usize, seed: u64) -> Self {
        Self::with_dists(num_queries, Dist::Uniform, Dist::Uniform, seed)
    }

    /// The paper's ZU workload (Zipf graphs, uniform nodes).
    pub fn zu(num_queries: usize, seed: u64) -> Self {
        Self::with_dists(
            num_queries,
            Dist::Zipf(PAPER_ZIPF_ALPHA),
            Dist::Uniform,
            seed,
        )
    }

    /// The paper's ZZ workload (Zipf graphs, Zipf nodes).
    pub fn zz(num_queries: usize, seed: u64) -> Self {
        Self::with_dists(
            num_queries,
            Dist::Zipf(PAPER_ZIPF_ALPHA),
            Dist::Zipf(PAPER_ZIPF_ALPHA),
            seed,
        )
    }

    fn with_dists(num_queries: usize, graph_dist: Dist, node_dist: Dist, seed: u64) -> Self {
        TypeAConfig {
            num_queries,
            graph_dist,
            node_dist,
            sizes: PAPER_QUERY_SIZES.to_vec(),
            seed,
        }
    }

    /// Workload label ("UU"/"ZU"/"ZZ").
    pub fn name(&self) -> String {
        format!("{}{}", self.graph_dist.letter(), self.node_dist.letter())
    }
}

/// Generates a Type A workload against the initial dataset.
///
/// Draws whose BFS cannot reach the requested size (tiny source graph) are
/// retried with fresh draws; after a bounded number of attempts the target
/// size falls back to the largest extractable size so generation always
/// terminates.
pub fn generate_type_a(dataset: &[LabeledGraph], cfg: &TypeAConfig) -> Workload {
    assert!(!dataset.is_empty(), "Type A needs a non-empty dataset");
    assert!(
        !cfg.sizes.is_empty(),
        "Type A needs at least one query size"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let graph_sampler = cfg.graph_dist.sampler(dataset.len());

    let mut queries = Vec::with_capacity(cfg.num_queries);
    while queries.len() < cfg.num_queries {
        let mut produced = None;
        for _attempt in 0..32 {
            let gi = graph_sampler.sample(&mut rng);
            let source = &dataset[gi];
            if source.vertex_count() == 0 || source.edge_count() == 0 {
                continue;
            }
            let node_sampler = cfg.node_dist.sampler(source.vertex_count());
            let start = node_sampler.sample(&mut rng) as u32;
            let size = cfg.sizes[rng.random_range(0..cfg.sizes.len())];
            if let Some(q) = gc_graph::generate::bfs_extract(&mut rng, source, start, size) {
                produced = Some(q);
                break;
            }
        }
        let q = produced.unwrap_or_else(|| {
            // fallback: extract whatever the largest graph can give
            let (gi, _) = dataset
                .iter()
                .enumerate()
                .max_by_key(|(_, g)| g.edge_count())
                .expect("non-empty dataset");
            let size = dataset[gi].edge_count().min(cfg.sizes[0]).max(1);
            gc_graph::generate::bfs_extract(&mut rng, &dataset[gi], 0, size)
                .expect("largest graph supports smallest size")
        });
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
    use gc_subiso::Algorithm;

    fn dataset(count: usize, seed: u64) -> Vec<LabeledGraph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let n = rng.random_range(20..40usize);
                random_connected_graph(&mut rng, n, 8, |r| r.random_range(0..5u16))
            })
            .collect()
    }

    #[test]
    fn names_match_paper_codes() {
        assert_eq!(TypeAConfig::uu(1, 0).name(), "UU");
        assert_eq!(TypeAConfig::zu(1, 0).name(), "ZU");
        assert_eq!(TypeAConfig::zz(1, 0).name(), "ZZ");
    }

    #[test]
    fn queries_have_paper_sizes_and_are_connected() {
        let data = dataset(20, 1);
        let w = generate_type_a(&data, &TypeAConfig::uu(50, 2));
        assert_eq!(w.len(), 50);
        for q in &w.queries {
            assert!(
                PAPER_QUERY_SIZES.contains(&q.edge_count()),
                "{}",
                q.edge_count()
            );
            assert!(q.is_connected());
        }
    }

    #[test]
    fn queries_have_nonempty_answers() {
        let data = dataset(10, 3);
        let w = generate_type_a(&data, &TypeAConfig::zz(20, 4));
        let m = Algorithm::Vf2Plus.matcher();
        for q in &w.queries {
            assert!(
                data.iter().any(|g| m.contains(q, g)),
                "Type A query must match at least one dataset graph"
            );
        }
    }

    #[test]
    fn zipf_graph_selection_skews_sources() {
        // With Zipf graph selection, queries should predominantly come from
        // low-index graphs. We can't observe the source directly, but label
        // the first graph uniquely and count queries using that label.
        let mut data = dataset(50, 5);
        // graph 0 gets an exclusive label 99
        let path: Vec<_> = (1..30).map(|i| (i - 1, i)).collect();
        data[0] = LabeledGraph::from_parts(vec![99; 30], &path).unwrap();
        let wz = generate_type_a(&data, &TypeAConfig::zz(300, 6));
        let wu = generate_type_a(&data, &TypeAConfig::uu(300, 6));
        let count_99 = |w: &Workload| {
            w.queries
                .iter()
                .filter(|q| q.labels().contains(&99))
                .count()
        };
        assert!(
            count_99(&wz) > 3 * count_99(&wu).max(1),
            "Zipf: {} vs Uniform: {}",
            count_99(&wz),
            count_99(&wu)
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let data = dataset(10, 7);
        let a = generate_type_a(&data, &TypeAConfig::zu(30, 8));
        let b = generate_type_a(&data, &TypeAConfig::zu(30, 8));
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn tiny_dataset_falls_back_gracefully() {
        // dataset whose graphs can't host 20-edge queries
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<LabeledGraph> = (0..3)
            .map(|_| random_connected_graph(&mut rng, 4, 1, |r| r.random_range(0..2u16)))
            .collect();
        let w = generate_type_a(&data, &TypeAConfig::uu(10, 10));
        assert_eq!(w.len(), 10);
        for q in &w.queries {
            assert!(q.edge_count() >= 1);
        }
    }
}
