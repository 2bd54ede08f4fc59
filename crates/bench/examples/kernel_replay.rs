//! Kernel replay: Method M's verify step alone, on the serving benchmark's
//! `cold_uniform` population.
//!
//! The dataset is 4,000 synthetic AIDS graphs (seed 2017) and the queries
//! are the first 3,000 distinct UU Type A extractions over it, every fifth
//! a supergraph query, as the benchmark builds them. Each query's
//! candidates come from a `LabelIndex` lookup made once, before any
//! timing, and Method M runs over them with its signature pre-filter off
//! (the index already applied it), so what is timed is local pruning plus
//! the matcher on one thread. Per engine it prints the tests run, how many
//! local pruning's profile tables decided, how many its path words decided
//! (the tier a scan turns on after its first searched negative), the
//! answers, the negatives the matcher had to search, and ns per test over
//! the fastest of 7 rounds (engines alternate within a round). It counts
//! what the path words would reject with the gate open from the first
//! pair, too. Then it splits VF2's time by outcome (each outcome's pairs
//! decided as the scan decides them: profile tables, path words,
//! positives, searched negatives) and times building the profile tables
//! and the path words of fresh copies of the queries, which a request
//! builds before its first pair, and the path words of fresh copies of the
//! dataset graphs, which each graph builds once, when a gated scan first
//! meets it. Last it times the `LabelIndex` lookups themselves, the
//! layer in front of the kernel: ns per query, per query kind, and shows
//! what the subgraph lookup's threshold postings are asked: how often
//! each label count is read, and how many queries go above the cap and
//! so through the per-id refine. It times `canonical_form` over every
//! extraction the pool's deduplication canonicalized: the extractions,
//! the distinct classes among them (the pool) and ns per form, the cost of
//! keying a query by its canonical form. Beside that line, on standard
//! error so that `scripts/kernel_counts.sh` (which reads standard output)
//! never sees them, it times building the population itself, best of 7:
//! `synthetic_aids` in ns per graph and one batch of UU Type A extractions
//! over it in ns per query, the set-up a benchmark run pays before its
//! first request; and the split that set-up no longer pays: the ns of a
//! graph's first `signature()` read, per dataset graph and per query, and
//! of `from_parts` building a query without one. It ends with the dataset
//! side's byte
//! ledger once every graph has built every feature: per feature (CSR,
//! signature, profile table, path words) the store's bytes and the mean
//! per graph, and the label index's, and the inline size of a
//! `LabeledGraph` and of its `GraphSignature`. Every line but the timings
//! repeats exactly.
//!
//! ```text
//! cargo run --release -p gc_bench --example kernel_replay
//! ```

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::{ChangeLog, GraphStore, LabelIndex};
use gc_graph::{canonical_form, BitSet, GraphSignature, Label, LabeledGraph, VertexId};
use gc_subiso::filter::{self, paths_may_contain, profile_may_contain};
use gc_subiso::{Algorithm, CancelToken, MethodM, QueryKind};
use gc_workload::{generate_type_a, TypeAConfig};

const POPULATION_SEED: u64 = 2017;
const GRAPHS: usize = 4000;
const QUERIES: usize = 3000;
const SUPER_EVERY: usize = 5;
const ROUNDS: usize = 7;
const LOOKUPS: [QueryKind; 2] = [QueryKind::Subgraph, QueryKind::Supergraph];

/// A graph's labels and edge list, as `from_parts` takes them.
type Parts = (Vec<Label>, Vec<(VertexId, VertexId)>);

fn parts(g: &LabeledGraph) -> Parts {
    (g.labels().to_vec(), g.edges().collect())
}

/// Best-of-rounds ns of a first `signature()` read over fresh copies of
/// the dataset graphs and of the queries, and of `from_parts` building
/// the query copies, which reads no signature.
fn signature_split(dataset: &[LabeledGraph], queries: &[Parts]) -> (u64, u64, u64) {
    let graphs: Vec<Parts> = dataset.iter().map(parts).collect();
    let fresh = |all: Vec<Parts>| -> Vec<LabeledGraph> {
        all.into_iter()
            .map(|(labels, edges)| LabeledGraph::from_parts(labels, &edges).unwrap())
            .collect()
    };
    let (mut best_graphs, mut best_queries, mut best_parts) = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..ROUNDS {
        let built = fresh(graphs.clone());
        time(&mut best_graphs, || {
            built.iter().for_each(|g| {
                black_box(g.signature());
            })
        });
        let inputs = queries.to_vec();
        let mut built = Vec::new();
        time(&mut best_parts, || built = fresh(inputs));
        time(&mut best_queries, || {
            built.iter().for_each(|q| {
                black_box(q.signature());
            })
        });
    }
    (best_graphs, best_queries, best_parts)
}

/// The first `QUERIES` distinct UU extractions, in pool order, and every
/// extraction canonicalized to find them.
fn pool(dataset: &[LabeledGraph]) -> (Vec<(LabeledGraph, QueryKind)>, Vec<LabeledGraph>) {
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(QUERIES);
    let mut drawn = Vec::new();
    for batch in 0.. {
        let cfg = TypeAConfig::uu(QUERIES * 2, POPULATION_SEED + 1 + batch);
        for q in generate_type_a(dataset, &cfg).queries {
            if pool.len() == QUERIES {
                return (pool, drawn);
            }
            drawn.push(q.clone());
            if seen.insert(canonical_form(&q)) {
                let kind = if pool.len() % SUPER_EVERY == 0 {
                    QueryKind::Supergraph
                } else {
                    QueryKind::Subgraph
                };
                pool.push((q, kind));
            }
        }
    }
    unreachable!("the batch loop only ends by returning")
}

/// A pair's outcome in the verify step.
#[derive(Clone, Copy)]
enum Outcome {
    /// Local pruning's profile tables rejected it; no matcher ran.
    Pruned,
    /// The gate was open and the path words rejected it; no matcher ran.
    PathPruned,
    /// Contained: the matcher searched and found an embedding.
    Positive,
    /// Not contained, and the matcher had to search to say so.
    SearchedNegative,
}

const OUTCOMES: [(Outcome, &str); 4] = [
    (Outcome::Pruned, "local pruning"),
    (Outcome::PathPruned, "path words"),
    (Outcome::Positive, "positives"),
    (Outcome::SearchedNegative, "searched negatives"),
];

/// Best-of-rounds nanoseconds of `f`'s last call, kept in `best`.
fn time(best: &mut u64, f: impl FnOnce()) {
    let start = Instant::now();
    f();
    *best = (*best).min(start.elapsed().as_nanos() as u64);
}

/// Best-of-rounds ns to synthesize the dataset and to draw one batch of
/// UU extractions over it, with the batch's size.
fn population(dataset: &[LabeledGraph]) -> (u64, u64, usize) {
    let batch = TypeAConfig::uu(QUERIES * 2, POPULATION_SEED + 1);
    let (mut best_aids, mut best_extract) = (u64::MAX, u64::MAX);
    for _ in 0..ROUNDS {
        time(&mut best_aids, || {
            black_box(synthetic_aids(&AidsConfig::scaled(GRAPHS, POPULATION_SEED)));
        });
        time(&mut best_extract, || {
            black_box(generate_type_a(dataset, &batch));
        });
    }
    (best_aids, best_extract, batch.num_queries)
}

fn main() {
    let dataset = synthetic_aids(&AidsConfig::scaled(GRAPHS, POPULATION_SEED));
    let (pool, drawn) = pool(&dataset);
    let (best_aids, best_extract, extractions) = population(&dataset);
    let query_parts: Vec<Parts> = pool.iter().map(|(q, _)| parts(q)).collect();
    let (sig_graphs, sig_queries, best_parts) = signature_split(&dataset, &query_parts);
    let store = GraphStore::from_graphs(dataset);
    let index = LabelIndex::build(&store, &ChangeLog::new());
    let work: Vec<(&LabeledGraph, QueryKind, BitSet)> = pool
        .iter()
        .map(|(q, kind)| (q, *kind, index.candidates(q, *kind)))
        .collect();

    // one untimed pass: sorts every pair by outcome as the scan decides
    // it, per query one candidate set per outcome and the id of its first
    // searched negative, after which the path words run; counts what they
    // would reject with the gate open from the first pair; and builds
    // every profile table and path-word set the timed rounds read
    let vf2 = Algorithm::Vf2.matcher();
    let mut split: Vec<([BitSet; 4], Option<usize>)> = Vec::with_capacity(work.len());
    let mut per_outcome = [0u64; 4];
    let mut ungated = 0u64;
    for (q, kind, cands) in &work {
        let mut sets = [BitSet::new(), BitSet::new(), BitSet::new(), BitSet::new()];
        let mut opened = None;
        for id in cands.iter_ones() {
            let g = store.get(id).expect("candidates are live");
            let (pattern, target) = match kind {
                QueryKind::Subgraph => (*q, g),
                QueryKind::Supergraph => (g, *q),
            };
            let outcome = if !profile_may_contain(pattern, target) {
                Outcome::Pruned
            } else {
                let paths = paths_may_contain(pattern, target);
                ungated += u64::from(!paths);
                if opened.is_some() && !paths {
                    Outcome::PathPruned
                } else if vf2.contains(pattern, target) {
                    Outcome::Positive
                } else {
                    opened.get_or_insert(id);
                    Outcome::SearchedNegative
                }
            };
            sets[outcome as usize].set(id, true);
            per_outcome[outcome as usize] += 1;
        }
        split.push((sets, opened));
    }
    let pruned = per_outcome[Outcome::Pruned as usize];
    let path_pruned = per_outcome[Outcome::PathPruned as usize];
    let fresh = |g: &LabeledGraph| {
        LabeledGraph::from_parts(g.labels().to_vec(), &g.edges().collect::<Vec<_>>())
            .expect("a stored graph is a valid graph")
    };
    let wordless_queries = work
        .iter()
        .filter(|(q, ..)| q.path_words().is_none())
        .count();
    let wordless_graphs = store
        .iter_live()
        .filter(|(_, g)| g.path_words().is_none())
        .count();

    let engines = Algorithm::ALL;
    let mut best = [u64::MAX; Algorithm::ALL.len()];
    let mut counts = [(0u64, 0u64); Algorithm::ALL.len()];
    let mut best_split = [u64::MAX; 4];
    let mut best_tables = u64::MAX;
    let mut best_words = [u64::MAX; 2];
    let mut best_lookup = [u64::MAX; 2];
    let mut best_canon = u64::MAX;
    for _ in 0..ROUNDS {
        for (e, algo) in engines.iter().enumerate() {
            let method = MethodM::new(*algo).with_prefilter(false);
            let (mut tests, mut answers) = (0u64, 0u64);
            time(&mut best[e], || {
                for (q, kind, cands) in &work {
                    let r = method.run(q, *kind, &store, cands);
                    tests += r.tests;
                    answers += r.answer.count_ones() as u64;
                }
            });
            counts[e] = (tests, answers);
        }
        // VF2's time by outcome: each outcome's pairs, decided with the
        // path words on where the scan had them on
        let token = CancelToken::unlimited_ref();
        for (outcome, _) in OUTCOMES {
            time(&mut best_split[outcome as usize], || {
                for ((q, kind, _), (sets, opened)) in work.iter().zip(&split) {
                    for id in sets[outcome as usize].iter_ones() {
                        let g = store.get(id).expect("candidates are live");
                        let (pattern, target) = match kind {
                            QueryKind::Subgraph => (*q, g),
                            QueryKind::Supergraph => (g, *q),
                        };
                        let paths = opened.is_some_and(|first| id > first);
                        black_box(filter::decide(vf2, pattern, target, token, paths)).ok();
                    }
                }
            });
        }
        // what a fresh request pays before its first pair: its own table,
        // and once its scan has searched a negative, its path words
        let queries: Vec<LabeledGraph> = work.iter().map(|(q, ..)| fresh(q)).collect();
        time(&mut best_tables, || {
            for q in &queries {
                black_box(q.profiles());
            }
        });
        time(&mut best_words[0], || {
            for q in &queries {
                black_box(q.path_words());
            }
        });
        // what a dataset graph pays once, the first time a gated scan
        // reads its path words
        let graphs: Vec<LabeledGraph> = store.iter_live().map(|(_, g)| fresh(g)).collect();
        time(&mut best_words[1], || {
            for g in &graphs {
                black_box(g.path_words());
            }
        });
        // what deduplicating the pool pays per extraction
        time(&mut best_canon, || {
            for q in &drawn {
                black_box(canonical_form(q));
            }
        });
        for (k, kind) in LOOKUPS.iter().enumerate() {
            time(&mut best_lookup[k], || {
                for (q, _, _) in work.iter().filter(|(_, of, _)| of == kind) {
                    black_box(index.candidates(q, *kind));
                }
            });
        }
    }

    println!(
        "kernel replay: {} graphs, {} queries (every {SUPER_EVERY}th supergraph), best of {ROUNDS} rounds",
        store.live_count(),
        work.len()
    );
    for (e, algo) in engines.iter().enumerate() {
        let (tests, answers) = counts[e];
        println!(
            "{:<5} tests {tests:>7}  local pruning {pruned:>7}  path words {path_pruned:>6}  answers {answers:>6}  searched negatives {:>6}  {:>8.1} ns/test",
            algo.to_string(),
            tests - pruned - path_pruned - answers,
            best[e] as f64 / tests as f64
        );
    }
    println!(
        "path words          {path_pruned:>7} pairs gated  {ungated:>7} pairs ungated (the gate open from the first pair)"
    );
    for (outcome, name) in OUTCOMES {
        let (pairs, ns) = (per_outcome[outcome as usize], best_split[outcome as usize]);
        println!(
            "VF2 {name:<18} {pairs:>7} pairs  {:>7.1} ms  {:>8.1} ns/pair",
            ns as f64 / 1e6,
            ns as f64 / pairs as f64
        );
    }
    println!(
        "query table build   {:>7} tables {:>7.1} ms  {:>8.1} ns/table",
        work.len(),
        best_tables as f64 / 1e6,
        best_tables as f64 / work.len() as f64
    );
    for ((name, count, none), ns) in [
        ("query", work.len(), wordless_queries),
        ("graph", store.live_count(), wordless_graphs),
    ]
    .into_iter()
    .zip(best_words)
    {
        println!(
            "{name} words build   {count:>7} sets   {:>7.1} ms  {:>8.1} ns/set  ({none} past the step cap)",
            ns as f64 / 1e6,
            ns as f64 / count as f64
        );
    }
    for (kind, ns) in LOOKUPS.iter().zip(best_lookup) {
        let queries = work.iter().filter(|(_, of, _)| of == kind).count();
        println!(
            "index lookup {:<10} {queries:>5} queries {:>6.2} ms  {:>8.1} ns/query",
            kind.name(),
            ns as f64 / 1e6,
            ns as f64 / queries as f64
        );
    }
    println!(
        "canonical form      {:>7} extractions {:>5} classes {:>6.2} ms  {:>8.1} ns/form",
        drawn.len(),
        pool.len(),
        best_canon as f64 / 1e6,
        best_canon as f64 / drawn.len() as f64
    );
    eprintln!(
        "population aids     {GRAPHS:>7} graphs {:>11.2} ms  {:>8.1} ns/graph",
        best_aids as f64 / 1e6,
        best_aids as f64 / GRAPHS as f64
    );
    eprintln!(
        "population type A   {extractions:>7} extractions {:>6.2} ms  {:>8.1} ns/query",
        best_extract as f64 / 1e6,
        best_extract as f64 / extractions as f64
    );
    eprintln!(
        "population signature {:>6.1} ns/graph  {:>6.1} ns/query  from_parts {:>6.1} ns/query",
        sig_graphs as f64 / GRAPHS as f64,
        sig_queries as f64 / QUERIES as f64,
        best_parts as f64 / QUERIES as f64
    );
    cap_reads(&work);
    ledger(&store, &index);
}

/// The dataset side's bytes once every graph has built every feature, then
/// the inline bytes of one graph and of its signature, which every graph
/// pays before any buffer.
fn ledger(store: &GraphStore, index: &LabelIndex) {
    for (_, g) in store.iter_live() {
        black_box((g.profiles(), g.path_words()));
    }
    let bytes = store.memory_bytes();
    let graphs = store.live_count() as f64;
    for (name, total) in [
        ("csr", bytes.csr),
        ("signature", bytes.signature),
        ("profiles", bytes.profiles),
        ("path words", bytes.paths),
        ("store", bytes.total()),
        ("label index", index.memory_bytes()),
        ("dataset side", bytes.total() + index.memory_bytes()),
    ] {
        println!(
            "bytes {name:<12} {total:>9} B  {:>7.1} B/graph",
            total as f64 / graphs
        );
    }
    println!(
        "bytes inline       LabeledGraph {} B  GraphSignature {} B",
        size_of::<LabeledGraph>(),
        size_of::<GraphSignature>()
    );
}

/// The label counts the subgraph lookup's queries read, each with how
/// often, and the queries with a count above the cap.
fn cap_reads(work: &[(&LabeledGraph, QueryKind, BitSet)]) {
    let subgraph: Vec<_> = work
        .iter()
        .filter(|(_, kind, _)| *kind == QueryKind::Subgraph)
        .map(|(q, ..)| q.signature())
        .collect();
    let cap = LabelIndex::LABEL_CAP;
    let mut reads = std::collections::BTreeMap::<u32, u64>::new();
    let mut over = 0;
    for sig in &subgraph {
        over += usize::from(sig.labels.iter().any(|e| e.count() > cap));
        for e in &sig.labels {
            *reads.entry(e.count()).or_default() += 1;
        }
    }
    let reads: Vec<String> = reads.iter().map(|(v, n)| format!("{v}:{n}")).collect();
    println!(
        "cap label count {cap:>2}  {over:>4} of {} subgraph queries above  reads {}",
        subgraph.len(),
        reads.join(" ")
    );
}
