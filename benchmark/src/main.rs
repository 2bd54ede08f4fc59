//! `gc_benchmark` command line (see README.md for one command per use).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use gc_benchmark::json::Json;
use gc_benchmark::report::{calibrate, result_line, END_TO_END, PER_LAYER};
use gc_benchmark::stats::median;
use gc_benchmark::workload::{Scale, Spec, PASSES, SPECS};
use gc_benchmark::{child, ladder, loopback, workload};

/// `--seconds` when not given; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: u64 = 15;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const USAGE: &str = "usage:
  gc_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out DIR]
  gc_benchmark calibrate
workloads: hot_zipf cold_uniform churn shards_2c (all four when --workload is absent)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn num<T: std::str::FromStr>(name: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or(format!("{name} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{name}: invalid value '{raw}'"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(num("--workload", it.next())?),
            "--seed" => a.seed = num("--seed", it.next())?,
            "--seconds" => a.seconds = num::<u64>("--seconds", it.next())?.clamp(1, 60),
            "--out" => a.out = Some(PathBuf::from(num::<String>("--out", it.next())?)),
            "--quick" => a.quick = true,
            // the pipeline passes 0 or 1; by hand the bare flag is enough
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(a)
}

/// `serve --graphs N --shards N`: only the benchmark itself starts it.
fn parse_serve(args: &[String]) -> Result<(usize, usize), String> {
    match args {
        [g, graphs, s, shards] if g == "--graphs" && s == "--shards" => Ok((
            num("--graphs", Some(graphs))?,
            num("--shards", Some(shards))?,
        )),
        _ => Err("serve --graphs N --shards N".into()),
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// The end-to-end run: tracing off, `SETUP_REPEATS` set-ups, the measured
/// passes on the last one, then the oracle.
fn run_end_to_end(spec: &Spec, scale: &Scale, args: &Args) -> Result<bool, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut setups_raw = Vec::with_capacity(SETUP_REPEATS);
    let mut ready = loopback::setup(spec, scale, args.seed, PASSES, false)?;
    setups.push(ready.setup_s());
    setups_raw.push(ready.setup_raw_s);
    while setups.len() < SETUP_REPEATS {
        drop(ready); // stops that server before the next one starts
        ready = loopback::setup(spec, scale, args.seed, PASSES, false)?;
        setups.push(ready.setup_s());
        setups_raw.push(ready.setup_raw_s);
    }
    let (run, server) = loopback::measure(ready)?;
    drop(server);
    let summary = run.summary();
    let oracle = loopback::oracle_check(&run.pop, &run.streams, &run.logs[0].sampled);
    let correct = summary.failed == 0 && oracle.wrong == 0;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("setup_s", median(&setups));
    m.insert("throughput_rps", summary.throughput_rps);
    m.insert("query_p50_us", summary.query_p50_us);
    m.insert("cpu_us_per_op", summary.cpu_us_per_op);
    m.insert("peak_rss_mb", run.peak_rss_kib as f64 / 1024.0);

    let detail = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("ops_per_pass", Json::Num(scale.ops_per_pass as f64)),
        ("warmup_ops", Json::Num(scale.warmup_ops as f64)),
        ("connections", Json::Num(spec.conns as f64)),
        ("placement", Json::Str(run.placement.describe())),
        ("passes", Json::Num(PASSES as f64)),
        (
            "answers_fnv",
            Json::Str(format!("{:016x}", summary.answers_fnv)),
        ),
        ("oracle_checked", Json::Num(oracle.checked as f64)),
        ("oracle_wrong", Json::Num(oracle.wrong as f64)),
        ("client_retries", Json::Num(summary.retries as f64)),
        ("query_p99_us", Json::Num(summary.query_p99_us)),
        ("update_p50_us", Json::Num(summary.update_p50_us)),
        ("mean_inflight", Json::Num(summary.mean_inflight)),
        (
            "bench.pass_spread_share",
            Json::Num(summary.pass_spread_share),
        ),
        ("host_slowness", Json::Num(summary.host_slowness)),
        ("raw_setup_s", Json::Num(median(&setups_raw))),
        ("raw_throughput_rps", Json::Num(summary.raw_throughput_rps)),
        ("raw_query_p50_us", Json::Num(summary.raw_query_p50_us)),
        ("raw_query_p99_us", Json::Num(summary.raw_query_p99_us)),
        ("raw_cpu_us_per_op", Json::Num(summary.raw_cpu_us_per_op)),
        ("per_pass_slowness", nums(&summary.per_pass_slowness)),
        ("per_pass_rps", nums(&summary.per_pass_rps)),
        ("per_pass_query_p50_us", nums(&summary.per_pass_p50_us)),
        ("per_pass_query_p99_us", nums(&summary.per_pass_p99_us)),
        ("per_pass_cpu_us_per_op", nums(&summary.per_pass_cpu_us)),
        ("setup_s_each", nums(&setups)),
    ]);
    println!("{}", Json::obj([("detail", detail)]).render());
    println!(
        "{}",
        result_line(&END_TO_END, &m, correct, summary.attempted, summary.failed)
    );
    Ok(correct)
}

/// The traced run: the boundary ladder and the per-layer metrics.
fn run_traced(spec: &Spec, scale: &Scale, args: &Args) -> Result<bool, String> {
    let out_dir = match &args.out {
        Some(dir) => dir.clone(),
        // next to the executable: inside the build directory, which the
        // checkout already ignores
        None => std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .ok_or("cannot locate the executable's directory")?,
    };
    // `--quick` streams are too short for the workload shapes to settle
    let t = ladder::run(spec, scale, args.seed, &out_dir, !args.quick)?;
    let correct = t.failed == 0
        && t.oracle_wrong == 0
        && t.metrics["bench.boundary_disagreements"] == 0.0
        && t.shape_violations.is_empty();
    for v in &t.shape_violations {
        eprintln!("shape guard: {v}");
    }
    let detail = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("ops_per_pass", Json::Num(scale.ops_per_pass as f64)),
        ("answers_fnv", Json::Str(format!("{:016x}", t.answers_fnv))),
        ("placement", Json::Str(t.placement.clone())),
        ("trace_file", Json::Str(t.trace_file.display().to_string())),
        (
            "shape_violations",
            Json::Arr(t.shape_violations.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", Json::obj([("detail", detail)]).render());
    println!(
        "{}",
        result_line(&PER_LAYER, &t.metrics, correct, t.attempted, t.failed)
    );
    Ok(correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("serve") => {
            let (graphs, shards) = parse_serve(&args[1..])?;
            child::serve_main(graphs, shards).map_err(|e| format!("serve: {e}"))?;
            Ok(true)
        }
        Some("calibrate") if args.len() == 1 => {
            calibrate(DEFAULT_SECONDS)?;
            Ok(true)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            let a = parse(args)?;
            let specs: Vec<&Spec> =
                match &a.workload {
                    Some(name) => vec![workload::spec(name)
                        .ok_or(format!("unknown workload '{name}'\n{USAGE}"))?],
                    None => SPECS.iter().collect(),
                };
            let mut all_correct = true;
            for spec in specs {
                let scale = Scale::of(spec, a.seconds, a.quick);
                all_correct &= if a.trace {
                    run_traced(spec, &scale, &a)?
                } else {
                    run_end_to_end(spec, &scale, &a)?
                };
            }
            Ok(all_correct)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // returning (not `process::exit`) lets every guard drop: no server
    // child outlives this process
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("gc_benchmark: run was not correct (failed ops, wrong answers, boundary disagreements or a workload that lost its shape)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("gc_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
