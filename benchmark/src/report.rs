//! Metric names and units — the binary's half of the contract that
//! `BENCHMARK.json` states — plus the result line and the calibration run.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;
use crate::stats::{median, quartiles, spread_share, Better};
use crate::workload::SPECS;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a client of the service sees; printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    higher("throughput_rps", "1/s"),
    lower("query_p50_us", "us"),
    lower("cpu_us_per_op", "us"),
    lower("peak_rss_mb", "MiB"),
];

/// What single layers do; printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 60] = [
    lower("protocol.req_encode_ns", "ns"),
    lower("protocol.req_decode_ns", "ns"),
    lower("protocol.rsp_encode_ns", "ns"),
    lower("protocol.rsp_decode_ns", "ns"),
    lower("protocol.req_bytes", "B"),
    lower("protocol.rsp_bytes", "B"),
    lower("server.wire_us", "us"),
    lower("server.wire_share", "share"),
    lower("server.ping_us", "us"),
    lower("server.raw_cpu_us_per_op", "us"),
    lower("client.query_p99_us", "us"),
    higher("client.raw_throughput_rps", "1/s"),
    lower("client.raw_query_p50_us", "us"),
    lower("client.raw_query_p99_us", "us"),
    lower("client.retries", "count"),
    lower("client.update_p50_us", "us"),
    higher("client.mean_inflight", "count"),
    lower("service.handle_query_us", "us"),
    lower("service.handle_update_us", "us"),
    lower("service.self_us", "us"),
    lower("service.contention_us", "us"),
    lower("service.shed", "count"),
    lower("sharded.execute_us", "us"),
    lower("sharded.apply_us", "us"),
    lower("sharded.router_self_us", "us"),
    higher("sharded.hit_share", "share"),
    lower("sharded.evictions", "count"),
    lower("system.execute_us", "us"),
    lower("system.hit_probe_ns", "ns"),
    lower("system.prefilter_ns", "ns"),
    lower("system.candidate_scan_ns", "ns"),
    lower("system.verify_ns", "ns"),
    lower("system.admission_ns", "ns"),
    lower("system.repair_ns", "ns"),
    lower("system.tests_per_query", "count"),
    lower("system.candidates_per_query", "count"),
    higher("system.tests_saved_share", "share"),
    higher("system.exact_shortcut_share", "share"),
    higher("system.zero_test_share", "share"),
    higher("system.repairs_applied", "count"),
    higher("system.invalidations_avoided", "count"),
    lower("system.repair_fallbacks", "count"),
    higher("system.speedup_vs_baseline_x", "x"),
    higher("system.speedup_tests_x", "x"),
    lower("index.build_ms", "ms"),
    lower("index.lookup_ns", "ns"),
    lower("index.sync_ns", "ns"),
    lower("index.syncs", "count"),
    lower("index.bytes", "B"),
    lower("subiso.baseline_us", "us"),
    lower("subiso.baseline_tests_per_query", "count"),
    lower("subiso.ns_per_test", "ns"),
    lower("trace.overhead_share", "share"),
    higher("trace.coverage_share", "share"),
    lower("bench.pass_spread_share", "share"),
    lower("bench.host_slowness", "x"),
    lower("bench.boundary_disagreements", "count"),
    lower("bench.shape_violations", "count"),
    higher("bench.oracle_checked", "count"),
    lower("bench.oracle_wrong", "count"),
];

/// The last line of standard output: exactly the keys the pipeline reads.
pub fn result_line(
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics = defs.iter().map(|d| {
        let value = *values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        (
            d.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

/// One finished invocation of this binary on one workload.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}",
            out.status.code()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().ok_or("no result line")?)?;
    let detail = Json::parse(lines.next().ok_or("no detail line")?)?;
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics")?;
    let mut values: BTreeMap<String, f64> = metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    // the detail line's numbers: host slowness, the raw twins of the
    // timing metrics, the demoted p99
    let detail = detail
        .get("detail")
        .and_then(Json::as_obj)
        .ok_or("no detail")?;
    for (key, value) in detail {
        if let Some(number) = value.as_f64() {
            values.insert(key.clone(), number);
        }
    }
    Ok(values)
}

/// Rows the calibration table keeps beside the end-to-end metrics, read
/// from the detail line: the p99 that calibration demoted to the per-layer
/// list (the table is the evidence), and how slow the host was during each
/// set, so the table records the conditions it was measured under.
const CALIBRATED_ONLY: [MetricDef; 2] = [lower("query_p99_us", "us"), lower("host_slowness", "x")];

/// Full runs per calibration set.
const CALIBRATION_RUNS: usize = 5;

/// `gc_benchmark calibrate`: two interleaved sets of [`CALIBRATION_RUNS`]
/// full runs per workload, every run on another seed as the pipeline does
/// it, printed as the markdown table README.md keeps (its last column: the
/// spread of the same runs before normalisation). A bound must be at least
/// max(5%, 2 × the between-set difference, 3 × the spread).
pub fn calibrate(seconds: u64) -> Result<(), String> {
    let runs = CALIBRATION_RUNS;
    println!("| workload | metric | set A median [q1, q3] | set B median [q1, q3] | spread of all runs | B vs A | raw spread |");
    println!("|---|---|---|---|---|---|---|");
    for spec in &SPECS {
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        for k in 0..2 * runs {
            // A, B, A, B, ... so drift of the host lands on both sets
            sets[k % 2].push(run_once(spec.name, 1 + k as u64, seconds)?);
            eprintln!("calibrate: {} run {}/{}", spec.name, k + 1, 2 * runs);
        }
        for def in END_TO_END.iter().chain(&CALIBRATED_ONLY) {
            let of = |set: &[BTreeMap<String, f64>]| -> Vec<f64> {
                set.iter().map(|r| r[def.name]).collect()
            };
            let (a, b) = (of(&sets[0]), of(&sets[1]));
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let cell = |v: &[f64]| {
                let [q1, _, q3] = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
            };
            // positive = set B is worse
            let sign = if def.better == Better::Lower {
                1.0
            } else {
                -1.0
            };
            let worse = sign * (median(&b) - median(&a)) / median(&a);
            // the same runs as the clock read them, where the run says
            let raw: Vec<f64> = sets
                .iter()
                .flatten()
                .filter_map(|r| r.get(&format!("raw_{}", def.name)).copied())
                .collect();
            let raw_spread = if raw.is_empty() {
                String::new()
            } else {
                format!("{:.2}%", 100.0 * spread_share(&raw))
            };
            println!(
                "| {} | {} ({}) | {} | {} | {:.2}% | {:+.2}% | {} |",
                spec.name,
                def.name,
                def.unit,
                cell(&a),
                cell(&b),
                100.0 * spread_share(&all),
                100.0 * worse,
                raw_spread
            );
        }
    }
    Ok(())
}
