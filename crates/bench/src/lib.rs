//! Experiment harness reproducing the GC+ paper's evaluation (§7).
//!
//! Every figure of the paper maps to a harness entry point:
//!
//! * **Figure 4** — query-time speedups of EVI/CON over {VF2, VF2+, GQL}
//!   across Type A (ZZ/ZU/UU) and Type B (0%/20%/50%) workloads →
//!   [`run_fig4`];
//! * **Figure 5** — speedups in number of sub-iso tests (Method-M
//!   independent) → [`run_fig5`];
//! * **Figure 6** — average query time and overhead per query for VF2 vs
//!   EVI vs CON, with the CON-specific validation share → [`run_fig6`];
//! * **§7.2 insights** — exact-match/zero-test/sub-super hit statistics
//!   for ZU vs UU → [`run_insights`].
//!
//! Scale is configurable: [`Scale::small`] for CI-speed smoke numbers,
//! [`Scale::medium`] (the default for EXPERIMENTS.md), and
//! [`Scale::paper`] (40,000 graphs × 10,000 queries × 2,000 change ops —
//! hours of compute, exactly the published setup). All randomness is
//! seeded; identical configurations replay identical experiments.

pub mod chaos;
pub mod netchaos;
pub mod report;

use gc_core::{baseline_execute, CacheModel, CandidateSource, GcConfig, GraphCachePlus};
use gc_dataset::aids::{synthetic_aids, AidsConfig};
use gc_dataset::{ChangePlan, ChangePlanConfig, PlanExecutor};
use gc_graph::LabeledGraph;
use gc_subiso::{Algorithm, MethodM};
use gc_workload::{generate_type_a, generate_type_b, TypeAConfig, TypeBConfig, Workload};

pub use chaos::{run_diff, ChaosConfig, DiffCell, DiffMode, DiffReport};
pub use netchaos::{run_net_chaos, NetChaosConfig, NetChaosReport, StormTally};
pub use report::Table;

/// Runs `f` with the default panic hook silenced — injected faults are
/// *supposed* to panic, and dozens of backtrace banners would drown the
/// report. The hook is global, so the previous one is restored afterwards.
pub(crate) fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(prev);
    result
}

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Initial dataset size (paper: 40,000).
    pub dataset_graphs: usize,
    /// Queries per workload (paper: 10,000).
    pub num_queries: usize,
    /// Type B positive pool per query size (paper: 10,000).
    pub positive_pool: usize,
    /// Type B no-answer pool per query size (paper: 3,000).
    pub noanswer_pool: usize,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Smoke scale — seconds end-to-end; shapes hold loosely.
    pub fn small() -> Scale {
        Scale {
            dataset_graphs: 150,
            num_queries: 150,
            positive_pool: 60,
            noanswer_pool: 20,
            seed: 0xAEDB,
        }
    }

    /// Default reporting scale — minutes end-to-end; shapes hold.
    pub fn medium() -> Scale {
        Scale {
            dataset_graphs: 1_000,
            num_queries: 800,
            positive_pool: 300,
            noanswer_pool: 100,
            seed: 0xAEDB,
        }
    }

    /// The published setup (hours of compute on a laptop).
    pub fn paper() -> Scale {
        Scale {
            dataset_graphs: 40_000,
            num_queries: 10_000,
            positive_pool: 10_000,
            noanswer_pool: 3_000,
            seed: 0xAEDB,
        }
    }

    /// Parses "small" / "medium" / "paper".
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "small" => Ok(Scale::small()),
            "medium" => Ok(Scale::medium()),
            "paper" => Ok(Scale::paper()),
            other => Err(format!("unknown scale '{other}' (small|medium|paper)")),
        }
    }
}

/// Builds the synthetic AIDS dataset for a scale.
pub fn build_dataset(scale: &Scale) -> Vec<LabeledGraph> {
    synthetic_aids(&AidsConfig::scaled(scale.dataset_graphs, scale.seed))
}

/// The six paper workloads, in figure order: ZZ, ZU, UU, 0%, 20%, 50%.
pub fn build_all_workloads(dataset: &[LabeledGraph], scale: &Scale) -> Vec<Workload> {
    let mut out = build_type_a_workloads(dataset, scale);
    out.extend(build_type_b_workloads(dataset, scale));
    out
}

/// Type A workloads: ZZ, ZU, UU.
pub fn build_type_a_workloads(dataset: &[LabeledGraph], scale: &Scale) -> Vec<Workload> {
    let n = scale.num_queries;
    vec![
        generate_type_a(dataset, &TypeAConfig::zz(n, scale.seed + 1)),
        generate_type_a(dataset, &TypeAConfig::zu(n, scale.seed + 2)),
        generate_type_a(dataset, &TypeAConfig::uu(n, scale.seed + 3)),
    ]
}

/// Type B workloads: 0%, 20%, 50%.
pub fn build_type_b_workloads(dataset: &[LabeledGraph], scale: &Scale) -> Vec<Workload> {
    [0.0, 0.2, 0.5]
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            generate_type_b(
                dataset,
                &TypeBConfig::scaled(
                    scale.num_queries,
                    scale.positive_pool,
                    scale.noanswer_pool,
                    p,
                    scale.seed + 10 + i as u64,
                ),
            )
        })
        .collect()
}

/// The change plan used by every cell of a given scale (identical across
/// cells so comparisons are apples-to-apples).
pub fn build_plan(scale: &Scale) -> ChangePlan {
    if scale.num_queries >= 10_000 {
        ChangePlan::generate(&ChangePlanConfig::paper_aids())
    } else {
        ChangePlan::generate(&ChangePlanConfig::scaled(
            scale.num_queries,
            scale.seed + 99,
        ))
    }
}

/// Measured aggregates of one (workload × configuration) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Average query time, milliseconds.
    pub avg_query_ms: f64,
    /// Average cache-maintenance overhead per query, milliseconds.
    pub avg_overhead_ms: f64,
    /// CON-specific validation share of overhead (0 for EVI/baseline).
    pub validation_share: f64,
    /// Average sub-iso tests per query.
    pub avg_tests: f64,
    /// Full aggregate metrics (insight counters etc.).
    pub aggregate: gc_core::AggregateMetrics,
}

/// Runs one cell: the `workload` against the dataset under churn, either
/// through GC+ (`model = Some(..)`) or cache-less Method M (`None`).
///
/// Per the paper, one window's worth of queries (20) warms the system
/// before measurement starts.
pub fn run_cell(
    dataset: &[LabeledGraph],
    workload: &Workload,
    plan: &ChangePlan,
    algorithm: Algorithm,
    model: Option<CacheModel>,
) -> CellResult {
    let warmup = 20.min(workload.len() / 10);
    match model {
        Some(model) => {
            let config = GcConfig {
                model,
                method: MethodM::new(algorithm),
                ..GcConfig::default()
            };
            let mut gc = GraphCachePlus::new(config, dataset.to_vec());
            let mut exec = PlanExecutor::new(plan.clone(), dataset.to_vec(), 7);
            for (i, q) in workload.queries.iter().enumerate() {
                gc.with_dataset(|store, log| exec.apply_due(i, store, log));
                gc.execute(q, workload.kind);
                if i + 1 == warmup {
                    gc.reset_metrics();
                }
            }
            let agg = gc.aggregate_metrics().clone();
            CellResult {
                avg_query_ms: agg.avg_query_time_ms(),
                avg_overhead_ms: agg.avg_overhead_ms(),
                validation_share: agg.validation_share_of_overhead(),
                avg_tests: agg.avg_tests(),
                aggregate: agg,
            }
        }
        None => {
            let mut store = gc_dataset::GraphStore::from_graphs(dataset.to_vec());
            let mut log = gc_dataset::ChangeLog::new();
            let mut exec = PlanExecutor::new(plan.clone(), dataset.to_vec(), 7);
            let method = MethodM::new(algorithm);
            let mut agg = gc_core::AggregateMetrics::default();
            for (i, q) in workload.queries.iter().enumerate() {
                exec.apply_due(i, &mut store, &mut log);
                let out = baseline_execute(&store, &method, q, workload.kind);
                if i >= warmup {
                    agg.record(&out.metrics);
                }
            }
            CellResult {
                avg_query_ms: agg.avg_query_time_ms(),
                avg_overhead_ms: 0.0,
                validation_share: 0.0,
                avg_tests: agg.avg_tests(),
                aggregate: agg,
            }
        }
    }
}

/// One row of Figure 4: query-time speedups of EVI and CON over a base
/// method for one workload.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Method M name (VF2 / VF2+ / GQL).
    pub method: &'static str,
    /// Workload name (ZZ / ZU / UU / 0% / 20% / 50%).
    pub workload: String,
    /// Baseline average query time (ms).
    pub base_ms: f64,
    /// EVI speedup (×).
    pub evi_speedup: f64,
    /// CON speedup (×).
    pub con_speedup: f64,
}

/// Figure 4: runs every (method × workload) cell for the given workloads.
pub fn run_fig4(
    dataset: &[LabeledGraph],
    workloads: &[Workload],
    plan: &ChangePlan,
    methods: &[Algorithm],
) -> Vec<Fig4Row> {
    let mut rows = Vec::new();
    for &method in methods {
        for w in workloads {
            let base = run_cell(dataset, w, plan, method, None);
            let evi = run_cell(dataset, w, plan, method, Some(CacheModel::Evi));
            let con = run_cell(dataset, w, plan, method, Some(CacheModel::Con));
            rows.push(Fig4Row {
                method: method.name(),
                workload: w.name.clone(),
                base_ms: base.avg_query_ms,
                evi_speedup: gc_core::metrics::speedup(base.avg_query_ms, evi.avg_query_ms),
                con_speedup: gc_core::metrics::speedup(base.avg_query_ms, con.avg_query_ms),
            });
        }
    }
    rows
}

/// One row of Figure 5: sub-iso-test-count speedups for one workload
/// (Method-M independent — computed with one canonical method).
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Workload name.
    pub workload: String,
    /// Baseline average tests per query.
    pub base_tests: f64,
    /// EVI speedup in tests (×).
    pub evi_speedup: f64,
    /// CON speedup in tests (×).
    pub con_speedup: f64,
}

/// Figure 5: test-count speedups per workload.
pub fn run_fig5(
    dataset: &[LabeledGraph],
    workloads: &[Workload],
    plan: &ChangePlan,
) -> Vec<Fig5Row> {
    // test counts are Method-M independent; VF2+ is the cheapest runner
    let method = Algorithm::Vf2Plus;
    workloads
        .iter()
        .map(|w| {
            let base = run_cell(dataset, w, plan, method, None);
            let evi = run_cell(dataset, w, plan, method, Some(CacheModel::Evi));
            let con = run_cell(dataset, w, plan, method, Some(CacheModel::Con));
            Fig5Row {
                workload: w.name.clone(),
                base_tests: base.avg_tests,
                evi_speedup: gc_core::metrics::speedup(base.avg_tests, evi.avg_tests),
                con_speedup: gc_core::metrics::speedup(base.avg_tests, con.avg_tests),
            }
        })
        .collect()
}

/// One row of Figure 6: per-query time breakdown for one workload under
/// the VF2 base method.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Workload name.
    pub workload: String,
    /// Baseline VF2 average query time (ms).
    pub vf2_ms: f64,
    /// EVI average query time (ms).
    pub evi_ms: f64,
    /// EVI average overhead (ms).
    pub evi_overhead_ms: f64,
    /// CON average query time (ms).
    pub con_ms: f64,
    /// CON average overhead (ms).
    pub con_overhead_ms: f64,
    /// CON-specific (Algorithms 1+2) share of CON overhead.
    pub con_validation_share: f64,
}

/// Figure 6: time/overhead breakdown per workload (VF2 as Method M, as in
/// the paper's figure).
pub fn run_fig6(
    dataset: &[LabeledGraph],
    workloads: &[Workload],
    plan: &ChangePlan,
) -> Vec<Fig6Row> {
    workloads
        .iter()
        .map(|w| {
            let base = run_cell(dataset, w, plan, Algorithm::Vf2, None);
            let evi = run_cell(dataset, w, plan, Algorithm::Vf2, Some(CacheModel::Evi));
            let con = run_cell(dataset, w, plan, Algorithm::Vf2, Some(CacheModel::Con));
            Fig6Row {
                workload: w.name.clone(),
                vf2_ms: base.avg_query_ms,
                evi_ms: evi.avg_query_ms,
                evi_overhead_ms: evi.avg_overhead_ms,
                con_ms: con.avg_query_ms,
                con_overhead_ms: con.avg_overhead_ms,
                con_validation_share: con.validation_share,
            }
        })
        .collect()
}

/// §7.2 insight counters for one workload under CON.
#[derive(Debug, Clone)]
pub struct InsightRow {
    /// Workload name.
    pub workload: String,
    /// Queries with an isomorphic cached twin.
    pub exact_match_queries: u64,
    /// Optimal-case-1 firings (exact match → zero tests).
    pub exact_shortcuts: u64,
    /// Optimal-case-2 firings (provably empty answer).
    pub empty_shortcuts: u64,
    /// Zero-sub-iso-test queries.
    pub zero_test_queries: u64,
    /// Direct (sub-style) hits used.
    pub direct_hits: u64,
    /// Exclusion (super-style) hits used.
    pub exclusion_hits: u64,
}

/// §7.2 insights: hit-type statistics under CON (paper compares ZU vs UU).
pub fn run_insights(
    dataset: &[LabeledGraph],
    workloads: &[Workload],
    plan: &ChangePlan,
) -> Vec<InsightRow> {
    workloads
        .iter()
        .map(|w| {
            let con = run_cell(dataset, w, plan, Algorithm::Vf2Plus, Some(CacheModel::Con));
            let a = &con.aggregate;
            InsightRow {
                workload: w.name.clone(),
                exact_match_queries: a.exact_match_queries,
                exact_shortcuts: a.exact_shortcuts,
                empty_shortcuts: a.empty_shortcuts,
                zero_test_queries: a.zero_test_queries,
                direct_hits: a.direct_hits,
                exclusion_hits: a.exclusion_hits,
            }
        })
        .collect()
}

/// One row of the model ablation: EVI vs CON vs CON-R (the §8
/// retrospective extension) under either the paper's change plan or an
/// *oscillating* churn pattern (edge flipped and restored — the scenario
/// CON-R targets).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Cache model name.
    pub model: &'static str,
    /// Average sub-iso tests per query.
    pub avg_tests: f64,
    /// Average query time (ms).
    pub avg_query_ms: f64,
}

/// Runs the model ablation on one workload. With `oscillating = true`,
/// every 5th query is preceded by a UR+UA pair on the same edge (net
/// neutral); otherwise the provided change plan drives churn.
pub fn run_model_ablation(
    dataset: &[LabeledGraph],
    workload: &Workload,
    plan: &ChangePlan,
    oscillating: bool,
) -> Vec<AblationRow> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    [CacheModel::Evi, CacheModel::Con, CacheModel::ConRetro]
        .into_iter()
        .map(|model| {
            let config = GcConfig {
                model,
                method: MethodM::new(Algorithm::Vf2Plus),
                ..GcConfig::default()
            };
            let mut gc = GraphCachePlus::new(config, dataset.to_vec());
            let mut exec = PlanExecutor::new(plan.clone(), dataset.to_vec(), 7);
            let mut rng = StdRng::seed_from_u64(0xC0);
            for (i, q) in workload.queries.iter().enumerate() {
                if oscillating {
                    // every 5th query: a *batch* of net-neutral edge flips
                    // (UR+UA of the same edge on ~2.5% of the dataset) —
                    // Algorithm 2 sees mixed ops and invalidates them all;
                    // the retrospective analyzer proves them unchanged
                    if i % 5 == 4 {
                        let live: Vec<usize> = gc.store().iter_live().map(|(id, _)| id).collect();
                        for _ in 0..live.len() / 40 {
                            let id = live[rng.random_range(0..live.len())];
                            let g = match gc.store().get(id) {
                                Some(g) => g.clone(),
                                None => continue,
                            };
                            let first_edge = g.edges().next();
                            if let Some((u, v)) = first_edge {
                                gc.apply(gc_dataset::ChangeOp::Ur { id, u, v })
                                    .expect("edge");
                                gc.apply(gc_dataset::ChangeOp::Ua { id, u, v })
                                    .expect("slot");
                            }
                        }
                    }
                } else {
                    gc.with_dataset(|store, log| exec.apply_due(i, store, log));
                }
                gc.execute(q, workload.kind);
            }
            let agg = gc.aggregate_metrics();
            AblationRow {
                model: model.name(),
                avg_tests: agg.avg_tests(),
                avg_query_ms: agg.avg_query_time_ms(),
            }
        })
        .collect()
}

/// One row of the FTV ablation: candidate-set source comparison.
#[derive(Debug, Clone)]
pub struct FtvRow {
    /// Configuration name.
    pub config: &'static str,
    /// Average sub-iso tests per query.
    pub avg_tests: f64,
    /// Average query time (ms).
    pub avg_query_ms: f64,
}

/// Compares the candidate-set sources: full-scan Method M, the updatable
/// FTV label/size filter alone, and GC+ (CON) stacked on each.
pub fn run_ftv_ablation(
    dataset: &[LabeledGraph],
    workload: &Workload,
    plan: &ChangePlan,
) -> Vec<FtvRow> {
    let method = MethodM::new(Algorithm::Vf2Plus);
    let mut rows = Vec::new();

    // cache-less full scan
    let base = run_cell(dataset, workload, plan, Algorithm::Vf2Plus, None);
    rows.push(FtvRow {
        config: "Method M (full scan)",
        avg_tests: base.avg_tests,
        avg_query_ms: base.avg_query_ms,
    });

    // cache-less postings index: built once, maintained incrementally
    // across the whole churning run (never rebuilt per query or per run)
    {
        let mut store = gc_dataset::GraphStore::from_graphs(dataset.to_vec());
        let mut log = gc_dataset::ChangeLog::new();
        let mut index = gc_dataset::LabelIndex::build(&store, &log);
        let mut exec = PlanExecutor::new(plan.clone(), dataset.to_vec(), 7);
        let mut agg = gc_core::AggregateMetrics::default();
        for (i, q) in workload.queries.iter().enumerate() {
            exec.apply_due(i, &mut store, &mut log);
            let out = gc_core::runtime::ftv_baseline_execute(
                &store,
                &log,
                &mut index,
                &method,
                q,
                workload.kind,
            );
            agg.record(&out.metrics);
        }
        assert!(
            log.is_empty() || index.records_replayed() == log.len() as u64,
            "the shared index must absorb churn incrementally, not by rebuild"
        );
        rows.push(FtvRow {
            config: "FTV filter (no cache)",
            avg_tests: agg.avg_tests(),
            avg_query_ms: agg.avg_query_time_ms(),
        });
    }

    // GC+ over each candidate source
    for (name, source) in [
        ("GC+/CON (full scan)", CandidateSource::LiveScan),
        ("GC+/CON (FTV filter)", CandidateSource::LabelIndex),
    ] {
        let config = GcConfig {
            method,
            candidate_source: source,
            ..GcConfig::default()
        };
        let mut gc = GraphCachePlus::new(config, dataset.to_vec());
        let mut exec = PlanExecutor::new(plan.clone(), dataset.to_vec(), 7);
        for (i, q) in workload.queries.iter().enumerate() {
            gc.with_dataset(|store, log| exec.apply_due(i, store, log));
            gc.execute(q, workload.kind);
        }
        if source == CandidateSource::LabelIndex {
            let idx = gc.label_index().expect("index-backed config");
            assert!(
                gc.log_len() == 0 || idx.records_replayed() > 0,
                "GC+'s index must be maintained by log replay under churn"
            );
        }
        let agg = gc.aggregate_metrics();
        rows.push(FtvRow {
            config: name,
            avg_tests: agg.avg_tests(),
            avg_query_ms: agg.avg_query_time_ms(),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            dataset_graphs: 40,
            num_queries: 60,
            positive_pool: 15,
            noanswer_pool: 5,
            seed: 3,
        }
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("small").unwrap().dataset_graphs, 150);
        assert_eq!(Scale::parse("paper").unwrap().num_queries, 10_000);
        assert!(Scale::parse("big").is_err());
    }

    #[test]
    fn cells_are_consistent_across_models() {
        let scale = tiny_scale();
        let dataset = build_dataset(&scale);
        let plan = build_plan(&scale);
        let w = &build_type_a_workloads(&dataset, &scale)[0];
        let base = run_cell(&dataset, w, &plan, Algorithm::Vf2Plus, None);
        let con = run_cell(
            &dataset,
            w,
            &plan,
            Algorithm::Vf2Plus,
            Some(CacheModel::Con),
        );
        // CON must run no more tests than the baseline on average
        assert!(con.avg_tests <= base.avg_tests + 1e-9);
        assert!(base.avg_tests > 0.0);
        assert_eq!(base.validation_share, 0.0);
    }

    #[test]
    fn fig5_speedups_at_least_one() {
        let scale = tiny_scale();
        let dataset = build_dataset(&scale);
        let plan = build_plan(&scale);
        let workloads = build_type_a_workloads(&dataset, &scale);
        let rows = run_fig5(&dataset, &workloads[..1], &plan);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].con_speedup >= rows[0].evi_speedup * 0.5);
        assert!(
            rows[0].con_speedup >= 1.0,
            "CON saves tests: {}",
            rows[0].con_speedup
        );
    }

    #[test]
    fn ablation_orders_models_correctly() {
        let scale = tiny_scale();
        let dataset = build_dataset(&scale);
        let plan = build_plan(&scale);
        let w = &build_type_a_workloads(&dataset, &scale)[0];
        // oscillating churn: CON-R must save at least as many tests as CON
        let rows = run_model_ablation(&dataset, w, &plan, true);
        assert_eq!(rows.len(), 3);
        let tests: Vec<f64> = rows.iter().map(|r| r.avg_tests).collect();
        assert!(
            tests[2] <= tests[1] + 1e-9,
            "CON-R ({}) vs CON ({})",
            tests[2],
            tests[1]
        );
        assert!(
            tests[1] <= tests[0] + 1e-9,
            "CON ({}) vs EVI ({})",
            tests[1],
            tests[0]
        );
    }

    #[test]
    fn ftv_ablation_filter_reduces_tests() {
        let scale = tiny_scale();
        let dataset = build_dataset(&scale);
        let plan = build_plan(&scale);
        let w = &build_type_a_workloads(&dataset, &scale)[0];
        let rows = run_ftv_ablation(&dataset, w, &plan);
        assert_eq!(rows.len(), 4);
        // filter alone runs fewer tests than full scan; GC+ over the
        // filter runs fewest
        assert!(rows[1].avg_tests <= rows[0].avg_tests);
        assert!(rows[3].avg_tests <= rows[1].avg_tests + 1e-9);
        assert!(rows[3].avg_tests <= rows[2].avg_tests + 1e-9);
    }

    #[test]
    fn prefilter_skips_surface_on_the_aids_workload() {
        // acceptance gate: Method M must report prefilter_skips > 0 when a
        // paper workload runs over the synthetic AIDS dataset
        let scale = tiny_scale();
        let dataset = build_dataset(&scale);
        let plan = build_plan(&scale);
        let w = &build_type_a_workloads(&dataset, &scale)[0];
        let base = run_cell(&dataset, w, &plan, Algorithm::Vf2, None);
        assert!(
            base.aggregate.total_prefilter_skips > 0,
            "signature pre-filter never fired on {} queries",
            base.aggregate.queries
        );
        // the pre-filter decides candidates, it does not change answers —
        // cross-check one GC+ cell for consistency with the baseline count
        let con = run_cell(&dataset, w, &plan, Algorithm::Vf2, Some(CacheModel::Con));
        assert!(con.avg_tests <= base.avg_tests + 1e-9);
    }

    #[test]
    fn workload_names_in_figure_order() {
        let scale = tiny_scale();
        let dataset = build_dataset(&scale);
        let names: Vec<String> = build_all_workloads(&dataset, &scale)
            .into_iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(names, vec!["ZZ", "ZU", "UU", "0%", "20%", "50%"]);
    }
}
