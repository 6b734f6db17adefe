//! Dynamic-placement matrix (hot-atom replication, PR 9) — writes
//! `BENCH_9.json`.
//!
//! Replays one Zipf-skewed trace — most queries hammer the lowest-ranked
//! Morton keys, which all live in node 0's slab — on JAWS₂ clusters of 1, 2,
//! 4 and 8 nodes, with dynamic placement off (the paper's static Morton
//! slabs) and on (hot-atom replication with least-loaded replica routing).
//! Reported per cell:
//!
//! * makespan / mean response / throughput;
//! * the busy-time load imbalance
//!   ([`jaws_sim::ClusterReport::imbalance`]) — the number replication
//!   exists to push down;
//! * the replica directory's counters: promotions, demotions, diverted
//!   sub-queries.
//!
//! Every cell is run twice and the two serialized
//! [`jaws_sim::ClusterReport`]s are byte-compared (wall-clock telemetry
//! masked); on the 4-node cells the whole replay is additionally repeated
//! at 1, 2 and 8 `jaws-par` workers — reports *and* JSONL observability
//! traces must be byte-identical, with replication on and off alike. Both
//! determinism columns are asserted, not advisory, as is the headline
//! claim: at 4 and 8 nodes the replicated imbalance must come in strictly
//! below the static one.
//!
//! `--smoke` shrinks geometry and trace for CI; `--out=PATH` overrides the
//! output path; `--trace-out=PATH` additionally records the 4-node
//! replicated cell through a [`jaws_obs::JsonlRecorder`] and writes the
//! JSONL observability trace there (feed it to `trace_explain` for the
//! dynamic-placement attribution).

use jaws_bench::exp;
use jaws_morton::MortonKey;
use jaws_sim::{ClusterConfig, ReplicationConfig};
use jaws_turbdb::DbConfig;
use jaws_workload::{Footprint, Job, JobKind, Query, QueryOp, Trace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize)]
struct ScenarioRow {
    nodes: u32,
    replication: bool,
    makespan_ms: f64,
    mean_response_ms: f64,
    throughput_qps: f64,
    imbalance: f64,
    promotions: u64,
    demotions: u64,
    replica_routed: u64,
    deterministic: bool,
    /// Byte-identity of reports and JSONL traces at 1/2/8 workers; only the
    /// 4-node cells run the sweep, the others inherit `true` vacuously.
    thread_deterministic: bool,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    smoke: bool,
    queries: u64,
    zipf_exponent: f64,
    rows: Vec<ScenarioRow>,
}

/// The replication knobs the matrix runs with: a generous window so the
/// Zipf head stays hot for the whole replay, a low promotion threshold so
/// smoke-sized traces still promote, single replicas, and a hot-atom budget
/// far above what the trace can fill.
fn replication_on() -> ReplicationConfig {
    ReplicationConfig {
        enabled: true,
        window_ms: 600_000.0,
        promote_accesses: 6,
        demote_accesses: 1,
        max_replicas_per_atom: 1,
        max_hot_atoms: 64,
    }
}

/// A Zipf-skewed batched workload: footprint keys are drawn from a Zipf
/// distribution over Morton rank (exponent `s`), so rank 0 — the first key
/// of node 0's slab — absorbs the head of the distribution no matter how
/// many nodes the grid is split across. Seeded ChaCha8, fully deterministic.
fn zipf_trace(db: DbConfig, jobs: u64, queries_per_job: u64, s: f64) -> Trace {
    let per_ts = db.atoms_per_timestep();
    let timesteps = db.timesteps;
    // Inverse-CDF table for the Zipf ranks.
    let weights: Vec<f64> = (0..per_ts)
        .map(|r| 1.0 / ((r + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(exp::TRACE_SEED);
    let draw = |rng: &mut ChaCha8Rng| -> u64 {
        let u: f64 = rng.gen();
        cdf.partition_point(|&c| c < u) as u64
    };
    let mut qid = 0u64;
    let jobs = (0..jobs)
        .map(|j| Job {
            id: j + 1,
            user: (j % 16) as u32,
            kind: JobKind::Batched,
            campaign: 1 + j % 4,
            queries: (0..queries_per_job)
                .map(|_| {
                    qid += 1;
                    let atoms = 1 + rng.gen_range(0..2u32);
                    Query {
                        id: qid,
                        user: (j % 16) as u32,
                        op: QueryOp::Velocity,
                        timestep: rng.gen_range(0..timesteps),
                        footprint: Footprint::from_pairs(
                            (0..atoms).map(|_| (MortonKey(draw(&mut rng)), 40u32)),
                        ),
                    }
                })
                .collect(),
            arrival_ms: j as f64 * 25.0,
            think_ms: 0.0,
        })
        .collect();
    Trace::new(timesteps, db.atoms_per_side(), jobs)
}

/// One instrumented replay; returns (masked report JSON, JSONL trace).
fn instrumented_run(cfg: &ClusterConfig, trace: &Trace) -> (String, String) {
    let (report, jsonl) = exp::traced_run(cfg.clone(), trace);
    (exp::masked_json(&report), jsonl)
}

/// Byte-identity of reports and JSONL traces at 1, 2 and 8 workers.
fn thread_sweep(cfg: &ClusterConfig, trace: &Trace) -> bool {
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let _guard = jaws_par::override_threads(threads);
        runs.push(instrumented_run(cfg, trace));
    }
    let identical = runs[0] == runs[1] && runs[0] == runs[2];
    assert!(identical, "replay diverged across 1/2/8 workers");
    identical
}

fn main() {
    let args = exp::parse_args("", &[exp::SMOKE, exp::OUT, exp::TRACE_OUT]);
    let smoke = args.has("--smoke");
    let out_path = args.value("--out").unwrap_or("BENCH_9.json");
    let trace_out = args.value("--trace-out");
    let zipf_s = 1.1;

    let (db, trace) = if smoke {
        eprintln!("# --smoke: tiny geometry, 24x8 Zipf trace");
        (exp::smoke_db(), zipf_trace(exp::smoke_db(), 24, 8, zipf_s))
    } else {
        (
            exp::paper_db(),
            zipf_trace(exp::paper_db(), 120, 16, zipf_s),
        )
    };
    let queries = trace.query_count() as u64;

    let mut rows: Vec<ScenarioRow> = Vec::new();
    for nodes in [1u32, 2, 4, 8] {
        for replicated in [false, true] {
            let rep = if replicated {
                replication_on()
            } else {
                ReplicationConfig::disabled()
            };
            let cfg = ClusterConfig {
                replication: rep,
                ..exp::paper_cluster(db, nodes)
            };
            let (report, identical) = exp::run_twice(&cfg, &trace);
            assert_eq!(
                report.aggregate.queries_completed, queries,
                "{nodes}-node replicated={replicated} cell dropped queries"
            );
            let thread_deterministic = if nodes == 4 {
                thread_sweep(&cfg, &trace)
            } else {
                true
            };
            if nodes == 4 && replicated {
                if let Some(path) = &trace_out {
                    let (_, jsonl) = instrumented_run(&cfg, &trace);
                    std::fs::write(path, jsonl)
                        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                    eprintln!("# wrote observability trace of the 4-node replicated run to {path}");
                }
            }
            let summary = report.replication.as_ref();
            rows.push(ScenarioRow {
                nodes,
                replication: replicated,
                makespan_ms: report.aggregate.makespan_ms,
                mean_response_ms: report.aggregate.mean_response_ms,
                throughput_qps: report.aggregate.throughput_qps,
                imbalance: report.imbalance(),
                promotions: summary.map_or(0, |s| s.promotions),
                demotions: summary.map_or(0, |s| s.demotions),
                replica_routed: summary.map_or(0, |s| s.replica_routed),
                deterministic: identical,
                thread_deterministic,
            });
        }
    }

    // The headline claim: on clusters wide enough for the skew to hurt,
    // replication must strictly reduce the busy-time imbalance.
    for nodes in [4u32, 8] {
        let cell = |replicated: bool| {
            rows.iter()
                .find(|r| r.nodes == nodes && r.replication == replicated)
                .expect("matrix cell present")
        };
        let (off, on) = (cell(false), cell(true));
        assert!(
            on.imbalance < off.imbalance,
            "{nodes} nodes: replication did not reduce imbalance \
             ({:.3} vs static {:.3})",
            on.imbalance,
            off.imbalance
        );
        assert!(on.promotions > 0, "{nodes} nodes: nothing promoted");
        assert!(on.replica_routed > 0, "{nodes} nodes: nothing diverted");
    }

    println!("\nSkew matrix — JAWS_2 per node, Zipf s={zipf_s}, {queries} queries");
    exp::rule();
    println!(
        "{:<6} {:<5} {:>13} {:>13} {:>8} {:>10} {:>6} {:>6} {:>9} {:>5} {:>7}",
        "nodes",
        "repl",
        "makespan (s)",
        "mean rt (s)",
        "qps",
        "imbalance",
        "promo",
        "demo",
        "diverted",
        "det",
        "thr-det"
    );
    exp::rule();
    for r in &rows {
        println!(
            "{:<6} {:<5} {:>13.1} {:>13.1} {:>8.3} {:>10.3} {:>6} {:>6} {:>9} {:>5} {:>7}",
            r.nodes,
            r.replication,
            r.makespan_ms / 1000.0,
            r.mean_response_ms / 1000.0,
            r.throughput_qps,
            r.imbalance,
            r.promotions,
            r.demotions,
            r.replica_routed,
            r.deterministic,
            r.thread_deterministic
        );
    }
    exp::rule();
    println!(
        "Zipf head keys live in node 0's slab; replication promotes them onto least-loaded \
         peers. imbalance = max/mean node busy time (1.0 = balanced)."
    );

    let report = BenchReport {
        bench: "skew_matrix",
        smoke,
        queries,
        zipf_exponent: zipf_s,
        rows,
    };
    exp::write_json(out_path, &report);
}
