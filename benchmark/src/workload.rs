//! The four workloads: a fixed population (dataset + query pools) and the
//! seeded op streams drawn over it.
//!
//! Two rules keep runs comparable (see README, "Why the numbers repeat"):
//!
//! * **The population is constant, the seed draws the traffic.** Under
//!   Zipf(1.4) the rank-1 query carries ~a third of all requests, so a
//!   seed-dependent pool would make `query_p50_us` the latency of whichever
//!   query happened to land on rank 1. `--seed` therefore decides the order
//!   of requests, which edges the updates touch, and which answers the
//!   oracle re-computes — not which graphs and queries exist.
//! * **Every pass holds the same multiset of queries.** The per-pass counts
//!   are the distribution's expected counts (largest-remainder rounding),
//!   shuffled afresh per pass, so passes differ in order and cache state
//!   but not in content, and the best-quartile estimator compares like
//!   with like.

use std::collections::HashSet;

use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::{ChangeOp, GraphStore};
use gc_graph::{canonical_form, LabeledGraph, Zipf};
use gc_subiso::QueryKind;
use gc_workload::{generate_type_a, TypeAConfig, PAPER_ZIPF_ALPHA};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Measured passes per run.
pub const PASSES: usize = 7;

/// Seed of the constant population (dataset and pools).
pub const POPULATION_SEED: u64 = 2017;

/// Dataset graphs at full scale (the paper's AIDS shape, scaled 1:10).
pub const DATASET_GRAPHS: usize = 4000;

/// Answers re-computed by the cache-less oracle per run.
pub const ORACLE_SAMPLES: usize = 240;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    /// Zipf over the ranks of a pool of this many distinct queries, with
    /// the paper's skew; every pass sends the same multiset.
    Zipf(usize),
    /// No query is sent twice in a run: the pool is cut into one block
    /// for the warm-up and one per pass, and the seed orders each block.
    Distinct,
}

/// One workload's frozen shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub conns: usize,
    pub shards: usize,
    pub draw: Draw,
    /// Every n-th pool query is a supergraph query (0 = none).
    pub super_every: usize,
    /// Share of each connection's ops that are UA/UR. Only connection 0
    /// may send updates, so the dataset history is one sequence.
    pub update_share: [f64; 2],
    /// Ops per pass and connection at `--seconds 10`, frozen by
    /// calibration (README) so that a pass is ≥ 1,000 queries and takes
    /// ≈ 0.7 s at reference host speed.
    pub ops_per_pass_10s: usize,
    /// Unmeasured ops per connection before pass 1.
    pub warmup_ops: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "hot_zipf",
        why: "1 conn, read-only Zipf over 160 queries: working set fits the cache, so wire, codec, service and hit-probe cost dominate; kernel work should not move it",
        conns: 1,
        shards: 1,
        draw: Draw::Zipf(160),
        super_every: 0,
        update_share: [0.0, 0.0],
        ops_per_pass_10s: 15000,
        warmup_ops: 3000,
    },
    Spec {
        name: "cold_uniform",
        why: "1 conn, read-only, no query sent twice, 20% supergraph: working set >> cache, so index, verify, admission and eviction dominate; wire work should not move it",
        conns: 1,
        shards: 1,
        draw: Draw::Distinct,
        super_every: 5,
        update_share: [0.0, 0.0],
        ops_per_pass_10s: 1800,
        warmup_ops: 2400,
    },
    Spec {
        name: "churn",
        why: "hot_zipf's queries with 20% of ops replaced by UA/UR on hot graphs: validator repair, index sync and log replay run beside reads; a read gain that taxes maintenance shows here",
        conns: 1,
        shards: 1,
        draw: Draw::Zipf(160),
        super_every: 0,
        update_share: [0.2, 0.0],
        ops_per_pass_10s: 14000,
        warmup_ops: 3000,
    },
    Spec {
        name: "shards_2c",
        why: "2 conns on 2 shards, Zipf queries, conn 0 adds 5% UA/UR: the only concurrent workload, so the service mutex, in-flight gate and router fan-out show here and nowhere else",
        conns: 2,
        shards: 2,
        draw: Draw::Zipf(160),
        super_every: 0,
        update_share: [0.05, 0.0],
        ops_per_pass_10s: 4500,
        warmup_ops: 6000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Run sizes derived from the frozen spec, `--seconds` and `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub graphs: usize,
    /// Per connection.
    pub ops_per_pass: usize,
    /// Per connection.
    pub warmup_ops: usize,
    pub oracle_samples: usize,
}

impl Scale {
    pub fn of(spec: &Spec, seconds: u64, quick: bool) -> Scale {
        if quick {
            // small enough that four workloads finish in seconds, large
            // enough that the cache fills, evicts and repairs
            return Scale {
                graphs: 600,
                ops_per_pass: 400,
                warmup_ops: 400,
                oracle_samples: 40,
            };
        }
        Scale {
            graphs: DATASET_GRAPHS,
            // linear in --seconds so one frozen number serves any length
            ops_per_pass: (spec.ops_per_pass_10s * seconds as usize / 10).max(200),
            warmup_ops: spec.warmup_ops,
            oracle_samples: ORACLE_SAMPLES,
        }
    }
}

/// The constant population.
pub struct Population {
    pub dataset: Vec<LabeledGraph>,
    pub pool: Vec<(LabeledGraph, QueryKind)>,
}

pub fn dataset(graphs: usize) -> Vec<LabeledGraph> {
    synthetic_aids(&AidsConfig::scaled(graphs, POPULATION_SEED))
}

impl Population {
    /// `passes` only matters to [`Draw::Distinct`], whose pool grows with
    /// the run; a shorter run's pool is a prefix of a longer run's.
    pub fn build(spec: &Spec, scale: &Scale, passes: usize) -> Population {
        let dataset = dataset(scale.graphs);
        let want = match spec.draw {
            Draw::Distinct => scale.warmup_ops + passes * scale.ops_per_pass,
            Draw::Zipf(n) => n,
        };
        // Type A extraction (BFS from a dataset graph at the paper's sizes
        // 4..20 edges). The Zipf pools draw their source graphs Zipf too
        // (paper "ZU"), which concentrates queries on the low-id graphs the
        // updates also favour; the uniform pool is the paper's "UU".
        let mut seen = HashSet::new();
        let mut pool = Vec::with_capacity(want);
        let mut batch = 0u64;
        while pool.len() < want {
            let seed = POPULATION_SEED + 1 + batch;
            let cfg = match spec.draw {
                Draw::Zipf(_) => TypeAConfig::zu(want * 2, seed),
                Draw::Distinct => TypeAConfig::uu(want * 2, seed),
            };
            for q in generate_type_a(&dataset, &cfg).queries {
                if pool.len() < want && seen.insert(canonical_form(&q)) {
                    let kind = if spec.super_every > 0 && pool.len() % spec.super_every == 0 {
                        QueryKind::Supergraph
                    } else {
                        QueryKind::Subgraph
                    };
                    pool.push((q, kind));
                }
            }
            batch += 1;
            assert!(batch < 64, "dataset too small for {want} distinct queries");
        }
        Population { dataset, pool }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Index into the population's pool.
    Query(u32),
    Ua {
        id: u64,
        u: u32,
        v: u32,
    },
    Ur {
        id: u64,
        u: u32,
        v: u32,
    },
}

impl Op {
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Query(_))
    }

    pub fn change(&self) -> Option<ChangeOp> {
        match *self {
            Op::Query(_) => None,
            Op::Ua { id, u, v } => Some(ChangeOp::Ua {
                id: id as usize,
                u,
                v,
            }),
            Op::Ur { id, u, v } => Some(ChangeOp::Ur {
                id: id as usize,
                u,
                v,
            }),
        }
    }
}

/// Applies an update op to a plain store (the generator's replica).
pub fn apply_to_store(store: &mut GraphStore, op: &Op) {
    let result = match *op {
        Op::Query(_) => Ok(()),
        Op::Ua { id, u, v } => store.add_edge(id as usize, u, v),
        Op::Ur { id, u, v } => store.remove_edge(id as usize, u, v),
    };
    result.expect("generated updates are valid on the replica");
}

/// Updates among `ops` ops of connection `conn`: an even number, because
/// they come in pairs (see [`zipf_block`]).
fn update_ops(spec: &Spec, ops: usize, conn: usize) -> usize {
    2 * (spec.update_share[conn] * ops as f64 / 2.0).round() as usize
}

/// One block of a Zipf workload's stream, unshuffled: `ops` slots holding
/// the expected count of every query and, among the updates, an even count
/// of touches of every graph. Each touch toggles the graph's edge, so an
/// even count leaves the dataset as the block found it: whatever order
/// the seed puts the slots in, every block starts on the population's
/// graphs and no seed runs its passes on a dataset of its own.
fn zipf_block(spec: &Spec, pop: &Population, ops: usize, conn: usize) -> Vec<Slot> {
    let n_upd = update_ops(spec, ops, conn);
    let mut block = Vec::with_capacity(ops);
    for (k, &c) in stratified_counts(pop.pool.len(), ops - n_upd)
        .iter()
        .enumerate()
    {
        block.extend(std::iter::repeat_n(Slot::Query(k as u32), c));
    }
    // updates favour the low-id graphs, as the pools do
    for (g, &c) in stratified_counts(pop.dataset.len(), n_upd / 2)
        .iter()
        .enumerate()
    {
        block.extend(std::iter::repeat_n(Slot::Update(g as u32), 2 * c));
    }
    block
}

/// Expected counts of each of `pool` Zipf ranks among `n` draws, rounded
/// by largest remainder so they sum to exactly `n`.
fn stratified_counts(pool: usize, n: usize) -> Vec<usize> {
    let z = Zipf::new(pool, PAPER_ZIPF_ALPHA);
    let pmf: Vec<f64> = (0..pool).map(|k| z.pmf(k)).collect();
    let mut counts: Vec<usize> = pmf
        .iter()
        .map(|p| (p * n as f64).floor() as usize)
        .collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    // stable sort: equal remainders keep rank order, so ties go to the
    // more popular query and the result does not depend on the platform
    by_remainder.sort_by(|&a, &b| {
        let ra = pmf[a] * n as f64 - counts[a] as f64;
        let rb = pmf[b] * n as f64 - counts[b] as f64;
        rb.total_cmp(&ra)
    });
    let assigned: usize = counts.iter().sum();
    for &k in by_remainder.iter().cycle().take(n - assigned) {
        counts[k] += 1;
    }
    counts
}

/// The seeded op streams of one run: per connection, `warmup_ops`
/// unmeasured ops followed by [`PASSES`] passes of `ops_per_pass` ops.
pub struct Streams {
    pub conns: Vec<Vec<Op>>,
    pub warmup_ops: usize,
    pub ops_per_pass: usize,
    pub passes: usize,
    /// Positions in connection 0's stream whose answers the oracle checks.
    pub oracle_positions: Vec<usize>,
}

#[derive(Clone, Copy)]
enum Slot {
    /// Index into the pool.
    Query(u32),
    /// Graph whose edge is toggled.
    Update(u32),
}

impl Streams {
    pub fn generate(
        spec: &Spec,
        scale: &Scale,
        pop: &Population,
        seed: u64,
        passes: usize,
    ) -> Streams {
        assert_eq!(spec.update_share[1], 0.0, "only connection 0 may update");
        let mut conns = Vec::with_capacity(spec.conns);
        for conn in 0..spec.conns {
            let mut rng =
                StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(conn as u64));
            let mut slots = Vec::with_capacity(scale.warmup_ops + passes * scale.ops_per_pass);
            match spec.draw {
                Draw::Zipf(_) => {
                    let mut warm = zipf_block(spec, pop, scale.warmup_ops, conn);
                    warm.shuffle(&mut rng);
                    slots.extend(warm);
                    let template = zipf_block(spec, pop, scale.ops_per_pass, conn);
                    for _ in 0..passes {
                        let mut pass = template.clone();
                        pass.shuffle(&mut rng);
                        slots.extend(pass);
                    }
                }
                Draw::Distinct => {
                    assert!(
                        spec.update_share[0] == 0.0 && spec.conns == 1,
                        "Distinct is read-only, 1 conn"
                    );
                    // the warm-up block keeps the population's order: what
                    // the cache learns first decides what it retains, and a
                    // shared start keeps the seeds' trajectories together
                    let warm = scale.warmup_ops as u32;
                    slots.extend((0..warm).map(Slot::Query));
                    for pass in 0..passes as u32 {
                        let from = warm + pass * scale.ops_per_pass as u32;
                        let mut block: Vec<Slot> = (from..from + scale.ops_per_pass as u32)
                            .map(Slot::Query)
                            .collect();
                        block.shuffle(&mut rng);
                        slots.extend(block);
                    }
                }
            }

            let mut updates = UpdateGen::new(&pop.dataset);
            conns.push(
                slots
                    .into_iter()
                    .map(|slot| match slot {
                        Slot::Query(k) => Op::Query(k),
                        Slot::Update(g) => updates.toggle(g as usize),
                    })
                    .collect::<Vec<Op>>(),
            );
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x0AC1E);
        let mut positions: Vec<usize> = (0..conns[0].len())
            .filter(|&i| conns[0][i].is_query())
            .collect();
        positions.shuffle(&mut rng);
        positions.truncate(scale.oracle_samples);
        positions.sort_unstable();

        Streams {
            conns,
            warmup_ops: scale.warmup_ops,
            ops_per_pass: scale.ops_per_pass,
            passes,
            oracle_positions: positions,
        }
    }

    /// Ops one connection sends, warm-up included.
    pub fn len_per_conn(&self) -> usize {
        self.warmup_ops + self.passes * self.ops_per_pass
    }

    /// All connections' ops in the round-robin order the in-process ladder
    /// levels replay them: `(connection, position in its stream)`.
    pub fn interleaved(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len_per_conn()).flat_map(move |i| (0..self.conns.len()).map(move |c| (c, i)))
    }
}

/// UA/UR on Zipf-selected graphs. Every touch of a graph toggles one fixed
/// edge of it: the first touch removes it (UR), the next puts it back
/// (UA). So every op is valid on the live dataset, the dataset stays
/// within one edge per graph of the population however long the run, and
/// which edge a graph loses belongs to the constant population: the seed
/// decides only where in the stream the touches fall.
struct UpdateGen {
    edge: Vec<(u32, u32)>,
    removed: Vec<bool>,
}

impl UpdateGen {
    fn new(dataset: &[LabeledGraph]) -> Self {
        let edge = dataset
            .iter()
            .enumerate()
            .map(|(id, g)| {
                let pick = (id as u64 ^ POPULATION_SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
                g.edges()
                    .nth(pick as usize % g.edge_count().max(1))
                    .unwrap_or((0, 0))
            })
            .collect();
        UpdateGen {
            edge,
            removed: vec![false; dataset.len()],
        }
    }

    fn toggle(&mut self, id: usize) -> Op {
        let (u, v) = self.edge[id];
        assert!(u != v, "graph {id} has no edge to toggle");
        self.removed[id] = !self.removed[id];
        if self.removed[id] {
            Op::Ur {
                id: id as u64,
                u,
                v,
            }
        } else {
            Op::Ua {
                id: id as u64,
                u,
                v,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_counts_sum_and_follow_rank() {
        let c = stratified_counts(500, 6000);
        assert_eq!(c.iter().sum::<usize>(), 6000);
        assert!(c.windows(2).all(|w| w[0] >= w[1]), "monotone in rank");
        assert!(c[0] > 1500, "rank 1 carries about a third: {}", c[0]);
    }

    #[test]
    fn streams_repeat_per_seed_and_passes_share_content() {
        let spec = spec("churn").unwrap();
        let scale = Scale::of(spec, 10, true);
        let pop = Population::build(spec, &scale, PASSES);
        let a = Streams::generate(spec, &scale, &pop, 7, PASSES);
        let b = Streams::generate(spec, &scale, &pop, 7, PASSES);
        let c = Streams::generate(spec, &scale, &pop, 8, PASSES);
        assert_eq!(a.conns, b.conns);
        assert_ne!(a.conns, c.conns);
        assert_eq!(a.conns[0].len(), a.len_per_conn());
        let pass = |p: usize| {
            let from = a.warmup_ops + p * a.ops_per_pass;
            let mut q: Vec<u32> = a.conns[0][from..from + a.ops_per_pass]
                .iter()
                .filter_map(|op| match op {
                    Op::Query(k) => Some(*k),
                    _ => None,
                })
                .collect();
            q.sort_unstable();
            q
        };
        assert_eq!(pass(0), pass(PASSES - 1), "same query multiset per pass");
        let updates = a.ops_per_pass - pass(0).len();
        assert_eq!(updates, update_ops(spec, a.ops_per_pass, 0));
        assert_eq!(updates, (0.2 * a.ops_per_pass as f64).round() as usize);
    }

    #[test]
    fn distinct_streams_never_repeat_a_query_and_share_their_warmup() {
        let spec = spec("cold_uniform").unwrap();
        let scale = Scale::of(spec, 10, true);
        let pop = Population::build(spec, &scale, PASSES);
        let a = Streams::generate(spec, &scale, &pop, 1, PASSES);
        let b = Streams::generate(spec, &scale, &pop, 2, PASSES);
        let mut seen: Vec<Op> = a.conns[0].clone();
        seen.sort_by_key(|op| match op {
            Op::Query(k) => *k,
            _ => unreachable!("read-only"),
        });
        seen.dedup();
        assert_eq!(seen.len(), a.len_per_conn(), "no query is sent twice");
        assert_eq!(a.conns[0][..a.warmup_ops], b.conns[0][..b.warmup_ops]);
        assert_ne!(a.conns[0][a.warmup_ops..], b.conns[0][b.warmup_ops..]);
        // a shorter run sends a prefix of the same pool
        let short = Population::build(spec, &scale, 1);
        assert_eq!(short.pool[..], pop.pool[..short.pool.len()]);
        let supers = pop
            .pool
            .iter()
            .filter(|(_, k)| *k == QueryKind::Supergraph)
            .count();
        assert_eq!(
            supers,
            pop.pool.len().div_ceil(5),
            "every fifth query is a supergraph query"
        );
    }

    #[test]
    fn generated_updates_replay_and_every_block_restores_the_dataset() {
        let spec = spec("churn").unwrap();
        let scale = Scale::of(spec, 10, true);
        let pop = Population::build(spec, &scale, PASSES);
        let s = Streams::generate(spec, &scale, &pop, 3, PASSES);
        let mut store = GraphStore::from_graphs(pop.dataset.clone());
        let edges = |store: &GraphStore| -> Vec<usize> {
            (0..pop.dataset.len())
                .map(|id| store.get(id).expect("no deletes").edge_count())
                .collect()
        };
        let population = edges(&store);
        for (i, op) in s.conns[0].iter().enumerate() {
            let at_block_start =
                i >= s.warmup_ops && (i - s.warmup_ops).is_multiple_of(s.ops_per_pass);
            if at_block_start {
                assert_eq!(edges(&store), population, "op {i} starts a pass");
            }
            apply_to_store(&mut store, op); // panics on an invalid update
        }
        assert_eq!(edges(&store), population, "after the last pass");
    }
}
