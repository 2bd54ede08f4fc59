//! Experiment runner — regenerates every figure of the GC+ paper.
//!
//! ```text
//! experiments <repro|chaos> [--scale small|medium|paper] [--out PATH]
//!
//! commands:
//!   repro   the synthetic-AIDS statistics against the published moments,
//!           then Figures 4 (Type A and B), 5 and 6, the §7.2 hit-type
//!           statistics and the ablations (EVI vs CON vs CON-R, full scan
//!           vs the label index), every one a projection of one table of
//!           cells that each run once, with GC+ under GcConfig::paper() and
//!           GcConfig::default() side by side. Writes the cells' counts and
//!           the paper's shape claims per arm to REPRO.json (--out PATH
//!           redirects it)
//!   chaos   differential fault-injection suite: replays every
//!           workload on a subject and an oracle side by side under a
//!           deterministic fault plan and exits non-zero if they
//!           diverge. The pair is:
//!             (default)      faulted GC+ under a deadline vs a
//!                            fault-free oracle -> CHAOS_report.json
//!             --index-diff   postings-index CS_M vs paper full scan,
//!                            both faulted -> CHAOS_indexdiff.json
//!             --repair-diff  delta repair vs invalidate-only, both
//!                            faulted -> CHAOS_repairdiff.json
//!           --net drives the real loopback TCP server instead: a
//!           Zipf storm of concurrent clients under dropped
//!           connections, delayed frames, a stalled shard and a
//!           twice-panicking shard (failover + audited rejoin), and
//!           also writes METRICS_report.json;
//!           --out PATH redirects the artifact
//! ```

use std::time::Instant;

use gc_bench::report::{f2, health_json, pct, Table};
use gc_bench::{build_all_workloads, build_dataset, build_plan, DiffMode, Repro, Scale};
use gc_core::HealthSnapshot;
use gc_graph::stats::DatasetStats;
use gc_telemetry::{HistogramSnapshot, StageSpans};

fn usage() -> ! {
    eprintln!(
        "usage: experiments <repro|chaos> [--scale small|medium|paper] [--out PATH] \
         (chaos only: [--net] [--index-diff] [--repair-diff])"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    if !["repro", "chaos"].contains(&command.as_str()) {
        eprintln!("unknown command '{command}'");
        usage();
    }
    let mut scale = Scale::medium();
    let mut net = false;
    let mut index_diff = false;
    let mut repair_diff = false;
    let mut out_path: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| usage());
                scale = Scale::parse(v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--net" => net = true,
            "--index-diff" => index_diff = true,
            "--repair-diff" => repair_diff = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).unwrap_or_else(|| usage()).clone());
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
        i += 1;
    }
    if command == "repro" {
        repro(scale, out_path.as_deref().unwrap_or("REPRO.json"));
        return;
    }
    let (mode, artefact) = match (index_diff, repair_diff) {
        (true, _) => (DiffMode::IndexDiff, "CHAOS_indexdiff.json"),
        (false, true) => (DiffMode::RepairDiff, "CHAOS_repairdiff.json"),
        (false, false) => (DiffMode::Chaos, "CHAOS_report.json"),
    };
    let out_path = out_path.unwrap_or_else(|| artefact.to_string());
    if net {
        net_chaos(scale, &out_path);
    } else {
        chaos(mode, scale, &out_path);
    }
}

/// Runs every cell once, prints the dataset table and every projection,
/// and writes the counts and claims to `out_path`.
fn repro(scale: Scale, out_path: &str) {
    let t0 = Instant::now();
    println!(
        "# GC+ experiments — scale: {} graphs, {} queries\n",
        scale.dataset_graphs, scale.num_queries
    );
    let dataset = build_dataset(&scale);
    let plan = build_plan(&scale);
    let workloads = build_all_workloads(&dataset, &scale);
    println!(
        "dataset and workloads built in {:.1}s; change plan: {} ops\n",
        t0.elapsed().as_secs_f64(),
        plan.total_ops()
    );
    println!(
        "### Synthetic AIDS dataset (paper: ⌀45 vertices σ22 max 245; ⌀47 edges σ23 max 250)\n"
    );
    println!("{}\n", DatasetStats::compute(&dataset));
    let repro = Repro::run(&dataset, &workloads, &plan);
    for t in repro.tables() {
        println!("{}", t.render());
    }
    println!("{} cells, each run once", repro.cells.len());
    for c in repro.claims() {
        let verdict = if c.holds { "holds" } else { "FAILS" };
        println!("claim {} ({} arm): {verdict}", c.name, c.arm);
    }
    println!("\ntotal wall time: {:.1}s", t0.elapsed().as_secs_f64());
    if let Err(e) = std::fs::write(out_path, repro.to_json()) {
        eprintln!("cannot write reproduction artifact '{out_path}': {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}

fn chaos(mode: DiffMode, scale: Scale, out_path: &str) {
    let cfg = gc_bench::ChaosConfig::new(scale);
    println!(
        "# {} — {} graphs, {} queries/workload, deadline {} ms\nfault plan: {}\n",
        mode.title(),
        cfg.scale.dataset_graphs,
        cfg.scale.num_queries,
        cfg.deadline.as_millis(),
        cfg.fault_plan
    );
    let t0 = Instant::now();
    let report = gc_bench::run_diff(mode, &cfg);
    // the artefact's scalar columns, then the verdict
    let columns: Vec<_> = (mode.columns())
        .filter(|(name, _)| !matches!(*name, "latency_us" | "stage_nanos"))
        .collect();
    let mut header: Vec<&str> = columns.iter().map(|(name, _)| *name).collect();
    header.push("verdict");
    let mut t = Table::new("Verdicts per workload", &header);
    for c in &report.cells {
        let mut row: Vec<String> = (columns.iter())
            .map(|(_, value)| value(c).trim_matches('"').to_string())
            .collect();
        row.push(if mode.passed(c) { "ok" } else { "FAIL" }.to_string());
        t.row(row);
    }
    println!("{}", t.render());

    // fold the subject's per-cell telemetry into suite-wide totals
    let mut health = HealthSnapshot::default();
    let mut latency = HistogramSnapshot::default();
    let mut stages = StageSpans::default();
    let (mut subject_candidates, mut oracle_candidates) = (0, 0);
    for c in &report.cells {
        health.merge(&c.subject.health);
        latency.merge(&c.latency);
        stages.merge(&c.stages);
        subject_candidates += c.subject.candidates;
        oracle_candidates += c.oracle.candidates;
    }
    println!("subject health: {}", health_json(&health));
    println!("candidates examined: subject {subject_candidates}, oracle {oracle_candidates}");
    println!(
        "subject latency: p50 {} µs, p95 {} µs, p99 {} µs, max {} µs over {} queries",
        latency.p50(),
        latency.p95(),
        latency.p99(),
        latency.max(),
        latency.count
    );
    print_stages(&stages);
    println!("wall time: {:.1}s", t0.elapsed().as_secs_f64());
    if let Err(e) = std::fs::write(out_path, report.to_json()) {
        eprintln!("cannot write chaos artifact '{out_path}': {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if !report.passed() {
        eprintln!(
            "{mode:?} FAILED: answer or audit divergence, leftover quarantine, a \
             mode-specific check (see the FAIL rows and DiffMode::passed), or a repair \
             diff that never avoided an invalidation (it proved nothing)"
        );
        std::process::exit(1);
    }
}

fn net_chaos(scale: Scale, out_path: &str) {
    let cfg = gc_bench::NetChaosConfig::new(scale);
    println!(
        "# Networked chaos — {} shards, {} clients x {} queries/storm, deadline {} ms\nfault plan: {}\n",
        cfg.shards,
        cfg.clients,
        cfg.queries_per_client,
        cfg.deadline.as_millis(),
        cfg.fault_plan
    );
    let t0 = Instant::now();
    let report = gc_bench::run_net_chaos(&cfg);
    let mut t = Table::new(
        "Net chaos verdicts: loopback server vs fault-free oracle",
        &[
            "phase",
            "requests",
            "exact",
            "degraded",
            "divergent",
            "errors",
            "baseline hits",
            "retries",
            "max deadline ratio",
            "p95 ms",
            "p99 ms",
            "hung",
        ],
    );
    for (name, s) in [("storm 1", &report.storm1), ("storm 2", &report.storm2)] {
        t.row(vec![
            name.to_string(),
            s.requests.to_string(),
            s.exact.to_string(),
            s.degraded.to_string(),
            s.divergent.to_string(),
            s.errors.to_string(),
            s.baseline_hits.to_string(),
            s.retries.to_string(),
            f2(s.max_overrun),
            f2(s.latency.p95() as f64 / 1000.0),
            f2(s.latency.p99() as f64 / 1000.0),
            s.hung.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "Shed rate vs offered load (post-audit ramp, client retries off)",
        &[
            "clients",
            "offered",
            "completed",
            "shed",
            "shed rate",
            "errors",
        ],
    );
    for l in &report.ramp {
        t.row(vec![
            l.clients.to_string(),
            l.offered.to_string(),
            l.completed.to_string(),
            l.shed.to_string(),
            pct(l.shed_rate()),
            l.errors.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "Per-shard cache counters (live stats scrape)",
        &[
            "shard",
            "hits",
            "misses",
            "evictions",
            "quarantined",
            "shed",
        ],
    );
    for (i, s) in report.stats.shards.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            s.hits.to_string(),
            s.misses.to_string(),
            s.evictions.to_string(),
            s.quarantined.to_string(),
            s.shed.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "stats scrape: {} queries, {} updates; server latency p50 {} µs, p95 {} µs, \
         p99 {} µs, max {} µs",
        report.stats.queries,
        report.stats.updates,
        report.stats.latency.p50(),
        report.stats.latency.p95(),
        report.stats.latency.p99(),
        report.stats.latency.max()
    );
    print_stages(&report.stats.stages);
    println!(
        "reconciliation: per-shard hits+misses vs {} ledger-executed queries -> {}",
        report.executed_queries,
        if report.reconciled() {
            "ok"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "updates: {} applied, {} re-issued after provably-unexecuted drops, {} failed",
        report.updates_applied, report.update_reissues, report.update_failures
    );
    println!(
        "audit: {} sampled, {} repaired (second pass: {} repaired)",
        report.audit.sampled, report.audit.repaired, report.audit_after.repaired
    );
    println!("health: {}", health_json(&report.health));
    println!("wall time: {:.1}s", t0.elapsed().as_secs_f64());
    if let Err(e) = std::fs::write(out_path, report.to_json()) {
        eprintln!("cannot write chaos artifact '{out_path}': {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    let metrics_path = "METRICS_report.json";
    if let Err(e) = std::fs::write(metrics_path, report.metrics_json()) {
        eprintln!("cannot write metrics artifact '{metrics_path}': {e}");
        std::process::exit(1);
    }
    println!("wrote {metrics_path}");
    if !report.passed() {
        eprintln!(
            "net chaos FAILED: silent divergence, hung request, missing failover coverage, \
             a shard left unhealthy after audit, or a stats scrape that does not reconcile \
             with the request ledger"
        );
        std::process::exit(1);
    }
}

/// Prints the pipeline-stage time breakdown of a [`StageSpans`] total.
fn print_stages(stages: &StageSpans) {
    let total = stages.total();
    if total == 0 {
        return;
    }
    let parts: Vec<String> = stages
        .iter()
        .filter(|(_, nanos)| *nanos > 0)
        .map(|(stage, nanos)| {
            format!(
                "{} {:.1} ms ({:.0}%)",
                stage.name(),
                nanos as f64 / 1e6,
                nanos as f64 / total as f64 * 100.0
            )
        })
        .collect();
    println!("pipeline stages: {}", parts.join(", "));
}
