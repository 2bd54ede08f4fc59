//! End-to-end smoke test of the `gc_benchmark` binary at `--quick` scale:
//! the run is correct, repeats exactly where it promises to, and prints
//! the metrics `BENCHMARK.json` declares — no drift between file and
//! binary.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use gc_benchmark::json::Json;
use gc_benchmark::workload::SPECS;

/// One workload's two output lines.
struct Printed {
    detail: Json,
    result: Json,
}

impl Printed {
    fn metrics(&self) -> BTreeMap<String, (f64, String)> {
        self.result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("result line has metrics")
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).expect("value");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), (value, unit.to_string()))
            })
            .collect()
    }

    fn detail_str(&self, key: &str) -> String {
        self.detail
            .get("detail")
            .and_then(|d| d.get(key))
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("detail.{key}"))
            .to_string()
    }
}

/// Runs the binary over all four workloads and pairs up its output lines.
fn run(extra: &[&str]) -> Vec<Printed> {
    let out = Command::new(env!("CARGO_BIN_EXE_gc_benchmark"))
        .args([
            "--quick",
            "--seed",
            "5",
            "--out",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .args(extra)
        .output()
        .expect("run gc_benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).expect("json line"))
        .collect();
    assert_eq!(
        lines.len(),
        2 * SPECS.len(),
        "a detail and a result line per workload"
    );
    lines
        .chunks(2)
        .map(|pair| Printed {
            detail: pair[0].clone(),
            result: pair[1].clone(),
        })
        .collect()
}

fn declared(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let file = Json::parse(&text).expect("BENCHMARK.json parses");
    file.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has {section}"))
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            // metrics are declared with their unit, workloads with their why
            let said = m
                .get("unit")
                .or(m.get("why"))
                .and_then(Json::as_str)
                .expect("unit or why");
            (name.to_string(), said.to_string())
        })
        .collect()
}

fn assert_correct(p: &Printed) {
    assert_eq!(p.result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(p.result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(
        p.result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    let keys: Vec<&str> = p
        .result
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn end_to_end_run_is_correct_repeatable_and_matches_the_declaration() {
    let (a, b) = (run(&["--trace", "0"]), run(&["--trace", "0"]));
    let want = declared("end_to_end");
    let specs: BTreeMap<String, String> = SPECS
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(
        declared("workloads"),
        specs,
        "workloads declared == workloads the binary runs"
    );
    let printed: Vec<String> = a.iter().map(|p| p.detail_str("workload")).collect();
    assert_eq!(
        printed,
        SPECS.map(|s| s.name.to_string()),
        "all four run, in order"
    );
    for (x, y) in a.iter().zip(&b) {
        assert_correct(x);
        assert_correct(y);
        let name = x.detail_str("workload");
        // connection 0's queries see exactly its own updates, so its
        // answers repeat even on the two-connection workload
        assert_eq!(
            x.detail_str("answers_fnv"),
            y.detail_str("answers_fnv"),
            "{name}"
        );
        assert_eq!(
            x.detail.get("detail").unwrap().get("oracle_wrong"),
            Some(&Json::Num(0.0))
        );
        let got: BTreeMap<String, String> = x
            .metrics()
            .into_iter()
            .map(|(k, (_, unit))| (k, unit))
            .collect();
        assert_eq!(
            got, want,
            "{name}: printed metrics == BENCHMARK.json end_to_end"
        );
    }
}

#[test]
fn traced_run_is_correct_and_its_counts_repeat_exactly() {
    /// Per-layer metrics that are counts of what the program did: the
    /// quantities a later change may claim on as counts.
    const COUNTS: [&str; 18] = [
        "protocol.req_bytes",
        "protocol.rsp_bytes",
        "client.retries",
        "service.shed",
        "sharded.hit_share",
        "sharded.evictions",
        "system.tests_per_query",
        "system.candidates_per_query",
        "system.tests_saved_share",
        "system.exact_shortcut_share",
        "system.zero_test_share",
        "system.repairs_applied",
        "system.invalidations_avoided",
        "system.repair_fallbacks",
        "system.speedup_tests_x",
        "index.syncs",
        "index.bytes",
        "subiso.baseline_tests_per_query",
    ];
    let (a, b) = (run(&["--trace", "1"]), run(&["--trace", "1"]));
    let want = declared("per_layer");
    for (x, y) in a.iter().zip(&b) {
        assert_correct(x);
        let name = x.detail_str("workload");
        let (mx, my) = (x.metrics(), y.metrics());
        let got: BTreeMap<String, String> = mx
            .iter()
            .map(|(k, (_, unit))| (k.clone(), unit.clone()))
            .collect();
        assert_eq!(
            got, want,
            "{name}: printed metrics == BENCHMARK.json per_layer"
        );
        assert_eq!(mx["bench.boundary_disagreements"].0, 0.0, "{name}");
        assert_eq!(mx["bench.oracle_wrong"].0, 0.0, "{name}");
        assert!(mx["bench.oracle_checked"].0 > 0.0, "{name}");
        assert_eq!(
            x.detail_str("answers_fnv"),
            y.detail_str("answers_fnv"),
            "{name}"
        );
        let spec = SPECS
            .iter()
            .find(|s| s.name == name)
            .expect("known workload");
        if spec.conns == 1 {
            for count in COUNTS {
                assert_eq!(
                    mx[count].0, my[count].0,
                    "{name}: {count} must repeat exactly"
                );
            }
        }
        let trace =
            std::fs::read_to_string(x.detail_str("trace_file")).expect("trace file written");
        let trace = Json::parse(&trace).expect("trace file parses");
        assert!(!trace
            .get("spans")
            .and_then(Json::as_arr)
            .expect("spans")
            .is_empty());
    }
}

/// Options of the `serve` and `calibrate` subcommands are not silently
/// accepted and ignored by the main command.
#[test]
fn options_of_other_subcommands_are_rejected() {
    for args in [
        &["--shards", "4"][..],
        &["--graphs", "100"],
        &["--runs", "3"],
        &["calibrate", "--seconds", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gc_benchmark"))
            .args(args)
            .output()
            .expect("run gc_benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no result line");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}

/// All four workloads traced at full scale on two seeds (minutes, so not
/// part of the default test run): `cargo test --release -- --ignored`. A
/// workload that lost its shape makes the run incorrect, like a wrong
/// answer does.
#[test]
#[ignore]
fn workload_shapes_hold_at_full_scale() {
    for seed in ["1", "2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_gc_benchmark"))
            .args([
                "--trace",
                "1",
                "--seed",
                seed,
                "--out",
                env!("CARGO_TARGET_TMPDIR"),
            ])
            .output()
            .expect("run gc_benchmark");
        assert!(
            out.status.success(),
            "seed {seed}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
