//! Degraded-mode matrix (failure injection, PR 6) — writes `BENCH_6.json`.
//!
//! Replays one capacity-bound trace on a JAWS₂ cluster under a grid of
//! scripted [`FailurePlan`] scenarios and reports how much of the healthy
//! run's performance survives each:
//!
//! * **healthy** — the baseline; its makespan anchors the crash times.
//! * **crash@10% / 50% / 90%** — node 1 dies at that fraction of the
//!   healthy makespan; its Morton slab, queued parts and in-flight work are
//!   re-routed to node 0. Every query must still complete.
//! * **straggle 2x / 8x** — the last node serves every batch 2× / 8× slower
//!   from t = 0 (disk *and* compute stretched), the paper's slow-disk node.
//!
//! Every scenario is run twice and the two serialized [`ClusterReport`]s are
//! byte-compared: the `deterministic` column is asserted, not advisory.
//! Arrivals are compressed so the cluster is capacity-bound — a crash into
//! an idle cluster would re-dispatch nothing and measure nothing.
//!
//! `--smoke` shrinks geometry and trace for CI; `--out=PATH` overrides the
//! output path; `--trace-out=PATH` additionally records the crash@50%
//! scenario through a [`jaws_obs::JsonlRecorder`] and writes the JSONL
//! observability trace there (feed it to `trace_explain` for the
//! failure-recovery attribution).

use jaws_bench::exp;
use jaws_sim::{ClusterConfig, ClusterReport, FailurePlan};
use jaws_turbdb::DbConfig;
use serde::Serialize;

/// Node the crash scenarios kill and the survivor that inherits its slab.
const CRASHED_NODE: u32 = 1;
const SURVIVOR: u32 = 0;

#[derive(Serialize)]
struct ScenarioRow {
    scenario: String,
    makespan_ms: f64,
    makespan_vs_healthy: f64,
    mean_response_ms: f64,
    throughput_qps: f64,
    queries_completed: u64,
    drained: bool,
    redispatched_parts: u64,
    first_failure_ms: Option<f64>,
    deterministic: bool,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    smoke: bool,
    nodes: u32,
    queries: u64,
    plan_seed: u64,
    rows: Vec<ScenarioRow>,
}

fn config(db: DbConfig, nodes: u32, plan: &FailurePlan) -> ClusterConfig {
    ClusterConfig {
        failures: plan.clone(),
        ..exp::paper_cluster(db, nodes)
    }
}

fn row(
    name: &str,
    report: &ClusterReport,
    identical: bool,
    healthy_ms: f64,
    queries: u64,
) -> ScenarioRow {
    let a = &report.aggregate;
    ScenarioRow {
        scenario: name.to_string(),
        makespan_ms: a.makespan_ms,
        makespan_vs_healthy: a.makespan_ms / healthy_ms,
        mean_response_ms: a.mean_response_ms,
        throughput_qps: a.throughput_qps,
        queries_completed: a.queries_completed,
        drained: a.queries_completed == queries && !a.truncated,
        redispatched_parts: report.degraded.as_ref().map_or(0, |d| d.redispatched_parts),
        first_failure_ms: report.degraded.as_ref().and_then(|d| d.first_failure_ms),
        deterministic: identical,
    }
}

fn main() {
    let args = exp::parse_args("", &[exp::SMOKE, exp::OUT, exp::TRACE_OUT]);
    let smoke = args.has("--smoke");
    let out_path = args.value("--out").unwrap_or("BENCH_6.json");
    let trace_out = args.value("--trace-out");

    let (db, trace, nodes) = if smoke {
        eprintln!("# --smoke: tiny geometry, 3 nodes");
        (exp::smoke_db(), exp::smoke_trace().speedup(20.0), 3u32)
    } else {
        (exp::paper_db(), exp::paper_trace().speedup(20.0), 4u32)
    };
    let queries = trace.query_count() as u64;
    let plan_seed = exp::TRACE_SEED;

    let (healthy, healthy_ok) = exp::run_twice(&exp::paper_cluster(db, nodes), &trace);
    let healthy_ms = healthy.aggregate.makespan_ms;
    let mut rows = vec![row("healthy", &healthy, healthy_ok, healthy_ms, queries)];

    for pct in [10u32, 50, 90] {
        let at_ms = healthy_ms * pct as f64 / 100.0;
        let plan = FailurePlan::new(plan_seed).crash_with_survivor(at_ms, CRASHED_NODE, SURVIVOR);
        let (report, identical) = exp::run_twice(&config(db, nodes, &plan), &trace);
        assert_eq!(
            report.aggregate.queries_completed, queries,
            "crash@{pct}% dropped queries"
        );
        if pct == 50 {
            if let Some(path) = &trace_out {
                let (_, jsonl) = exp::traced_run(config(db, nodes, &plan), &trace);
                std::fs::write(path, jsonl).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                eprintln!("# wrote observability trace of the crash@50% run to {path}");
            }
        }
        rows.push(row(
            &format!("crash@{pct}%"),
            &report,
            identical,
            healthy_ms,
            queries,
        ));
    }

    for factor in [2.0f64, 8.0] {
        let plan = FailurePlan::new(plan_seed).slowdown_at(0.0, nodes - 1, factor);
        let (report, identical) = exp::run_twice(&config(db, nodes, &plan), &trace);
        rows.push(row(
            &format!("straggle {factor:.0}x"),
            &report,
            identical,
            healthy_ms,
            queries,
        ));
    }

    println!("\nDegraded-mode matrix — JAWS_2 per node, {nodes} nodes, {queries} queries");
    exp::rule();
    println!(
        "{:<12} {:>14} {:>9} {:>14} {:>9} {:>8} {:>12} {:>6}",
        "scenario",
        "makespan (s)",
        "vs base",
        "mean rt (s)",
        "qps",
        "drained",
        "redispatched",
        "det"
    );
    exp::rule();
    for r in &rows {
        println!(
            "{:<12} {:>14.1} {:>8.2}x {:>14.1} {:>9.3} {:>8} {:>12} {:>6}",
            r.scenario,
            r.makespan_ms / 1000.0,
            r.makespan_vs_healthy,
            r.mean_response_ms / 1000.0,
            r.throughput_qps,
            r.drained,
            r.redispatched_parts,
            r.deterministic
        );
    }
    exp::rule();
    println!(
        "crash times are fractions of the healthy makespan; node {CRASHED_NODE} dies and node \
         {SURVIVOR} inherits its slab. Stragglers slow the last node from t = 0."
    );

    let report = BenchReport {
        bench: "failure_matrix",
        smoke,
        nodes,
        queries,
        plan_seed,
        rows,
    };
    exp::write_json(out_path, &report);
}
