//! Scenario-matrix allocation & determinism bench (PR 10) — `BENCH_10.json`.
//!
//! The memory-layout overhaul (inline event-queue entries, jaws-arena
//! scratch reuse, SoA atom planes) claims two things at once: the hot paths got
//! cheaper, and nothing observable moved. This harness checks both across a
//! matrix of named, seeded workload shapes rather than the single calibrated
//! trace the other benches replay:
//!
//! * `bench5_e2e`    — the single-node Synthetic-mode smoke run of the
//!   former `hotpath` bench, unchanged, as the anchor row;
//! * `flash_crowd`   — dense bursts with near-zero intra-burst gaps: many
//!   simultaneous events, ordered by insertion id, and the dispatch path
//!   under maximum ready-set pressure;
//! * `diurnal`       — long quiet gaps between bursts: pending events spread
//!   far ahead of the current time;
//! * `regime_shift`  — a hotspot-heavy trace spliced before a scan-heavy
//!   one, exercising α re-adaptation and cache turnover at the seam;
//! * `heavy_tailed`  — few jobs, enormous batched query counts and many
//!   long jobs: per-job state lives long and fan-out buffers churn;
//! * `zipf_skew`     — nearly all traffic on two hotspots with hot-atom
//!   replication enabled: the `AccessRing` promotion/demotion path.
//!
//! Every scenario reports wall-clock, heap allocations per query (counting
//! global allocator), and event-queue push/pop counts — and **asserts, in
//! this binary**, that a second run is byte-identical after wall-clock
//! masking and that 1-, 2- and 8-worker runs produce the same masked bytes.
//! A scenario that got faster by drifting is a panic, not a row.
//!
//! Flags: `--smoke` shrinks the matrix for CI; `--out=PATH` overrides the
//! output path; `--guard=BASELINE.json` compares allocations/query and
//! queue-ops/query per scenario against a committed baseline report of the
//! same mode and exits non-zero on a >2× regression.

use jaws_bench::alloc_counter;
use jaws_bench::exp::{self, NoneResident};
use jaws_morton::MortonKey;
use jaws_scheduler::{Jaws, JawsConfig, MetricParams, Scheduler};
use jaws_sim::{
    build_db, build_scheduler, queue_ops, reset_queue_ops, CachePolicyKind, ClusterConfig,
    ClusterExecutor, Executor, FailurePlan, ReplicationConfig, SchedulerKind, SimConfig,
};
use jaws_turbdb::{CostModel, DataMode};
use jaws_workload::{Footprint, Job, JobKind, Query, QueryOp};
use jaws_workload::{GenConfig, Trace, TraceGenerator};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Every heap acquisition in the measured runs is counted, so the
/// allocations-per-query column is a measurement, not an estimate.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// Worker counts every scenario must be masked-byte-identical across.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Guard tolerance: fail when a cost column exceeds baseline × this factor.
const GUARD_FACTOR: f64 = 2.0;

#[derive(Serialize)]
struct ScenarioRow {
    name: &'static str,
    kind: &'static str,
    nodes: u32,
    jobs: usize,
    queries_completed: u64,
    wall_ms: f64,
    throughput_qps: f64,
    allocations: u64,
    allocations_per_query: f64,
    queue_pushes: u64,
    queue_pops: u64,
    queue_ops_per_query: f64,
    /// Same seeded run, twice, masked bytes compared. Asserted true.
    double_run_identical: bool,
    /// Masked bytes identical at 1/2/8 workers. Asserted true.
    workers_identical: bool,
}

/// Steady-state `Jaws::next_batch` allocation cost, isolated from setup,
/// materialization and report building: the engine dispatch path proper.
#[derive(Serialize)]
struct DispatchMicro {
    queries_loaded: u64,
    warmup_batches: usize,
    measured_batches: usize,
    atoms_dispatched: u64,
    allocations: u64,
    allocations_per_batch: f64,
    allocations_per_atom: f64,
}

#[derive(Serialize)]
struct MatrixReport {
    bench: &'static str,
    smoke: bool,
    threads_reported: usize,
    available_parallelism: usize,
    worker_counts: Vec<usize>,
    dispatch_path: DispatchMicro,
    scenarios: Vec<ScenarioRow>,
}

/// The subset of a previous report the `--guard` comparison reads. Extra
/// fields in the baseline JSON are ignored, so schema growth does not
/// invalidate committed baselines.
#[derive(Deserialize)]
struct BaselineRow {
    name: String,
    allocations_per_query: f64,
    queue_ops_per_query: f64,
}

#[derive(Deserialize)]
struct BaselineDispatch {
    allocations_per_batch: f64,
}

#[derive(Deserialize)]
struct BaselineReport {
    smoke: bool,
    dispatch_path: BaselineDispatch,
    scenarios: Vec<BaselineRow>,
}

/// How a scenario is executed. Every variant is a pure function of its
/// seeded inputs, so re-running one is the determinism probe.
enum Driver {
    /// Single-node materialized-mode `Executor` (the `bench5_e2e` configuration).
    SingleNode { trace: Trace },
    /// Multi-node `ClusterExecutor` on virtual data.
    Cluster {
        nodes: u32,
        trace: Trace,
        replication: ReplicationConfig,
    },
}

struct Scenario {
    name: &'static str,
    driver: Driver,
}

impl Driver {
    fn kind(&self) -> &'static str {
        match self {
            Driver::SingleNode { .. } => "single-node",
            Driver::Cluster { .. } => "cluster",
        }
    }

    fn nodes(&self) -> u32 {
        match self {
            Driver::SingleNode { .. } => 1,
            Driver::Cluster { nodes, .. } => *nodes,
        }
    }

    fn trace(&self) -> &Trace {
        match self {
            Driver::SingleNode { trace } | Driver::Cluster { trace, .. } => trace,
        }
    }

    /// One full run: masked report bytes plus completed-query count.
    fn run_once(&self) -> (String, u64) {
        match self {
            Driver::SingleNode { trace } => {
                let cfg = exp::smoke_db();
                let cost = CostModel::paper_testbed();
                let db = build_db(cfg, cost, DataMode::Synthetic, 32, CachePolicyKind::Urc);
                let params = MetricParams {
                    atom_read_ms: cost.atom_read_ms,
                    position_compute_ms: cost.position_compute_ms,
                    atoms_per_timestep: cfg.atoms_per_timestep(),
                };
                let sched = build_scheduler(
                    SchedulerKind::Jaws2 { batch_k: 15 },
                    params,
                    exp::RUN_LEN,
                    10_000.0,
                );
                let mut ex = Executor::new(db, sched, SimConfig::default());
                let report = ex.run(trace);
                let json = serde_json::to_string(&report).expect("report serializes");
                (exp::mask_wallclock_fields(&json), report.queries_completed)
            }
            Driver::Cluster {
                nodes,
                trace,
                replication,
            } => {
                let mut ex = ClusterExecutor::new(ClusterConfig {
                    nodes: *nodes,
                    db: exp::smoke_db(),
                    cost: exp::paper_cost(),
                    scheduler: SchedulerKind::Jaws2 { batch_k: 15 },
                    cache_policy: CachePolicyKind::Urc,
                    cache_atoms_per_node: (exp::CACHE_ATOMS as u32 / nodes).max(16) as usize,
                    run_len: exp::RUN_LEN,
                    gate_timeout_ms: exp::GATE_TIMEOUT_MS,
                    sim: SimConfig::default(),
                    failures: FailurePlan::none(),
                    replication: *replication,
                });
                let report = ex.run(trace);
                let json = serde_json::to_string(&report).expect("report serializes");
                (
                    exp::mask_wallclock_fields(&json),
                    report.aggregate.queries_completed,
                )
            }
        }
    }
}

/// Loads a JAWS₂ scheduler with `n` seeded queries (same synthetic shape as
/// the `scheduler_step` microbench), warms it up for `warmup` batches so
/// every scratch buffer and pool reaches steady-state capacity, then counts
/// heap allocations over the next `measured` dispatch rounds.
fn dispatch_microbench(n: u64, warmup: usize, measured: usize) -> DispatchMicro {
    let mut s = Jaws::new(JawsConfig::jaws2(MetricParams::paper_testbed()));
    for i in 0..n {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let q = Query {
            id: i + 1,
            user: (h % 16) as u32,
            op: QueryOp::Velocity,
            timestep: (h % 31) as u32,
            footprint: Footprint::from_pairs(
                (0..6u64).map(|d| (MortonKey((h >> 8) % 4090 + d), 100u32)),
            ),
        };
        // JAWS₂ gates by job: declare each query as a one-off job first,
        // exactly as the engine does for trace jobs.
        s.job_declared(
            &Job {
                id: i + 1,
                user: q.user,
                kind: JobKind::Batched,
                campaign: i + 1,
                queries: vec![q.clone()],
                arrival_ms: i as f64,
                think_ms: 0.0,
            },
            i as f64,
        );
        s.query_available(&q, i as f64);
    }
    let mut now = n as f64;
    for _ in 0..warmup {
        now += 1.0;
        s.next_batch(now, &NoneResident);
    }
    let mut atoms = 0u64;
    alloc_counter::reset();
    let mut batches = 0usize;
    while batches < measured {
        now += 1.0;
        let Some(batch) = s.next_batch(now, &NoneResident) else {
            break;
        };
        atoms += batch.atom_count() as u64;
        batches += 1;
    }
    let allocations = alloc_counter::count();
    assert!(batches > 0, "dispatch microbench drained during warm-up");
    DispatchMicro {
        queries_loaded: n,
        warmup_batches: warmup,
        measured_batches: batches,
        atoms_dispatched: atoms,
        allocations,
        allocations_per_batch: allocations as f64 / batches as f64,
        allocations_per_atom: allocations as f64 / atoms.max(1) as f64,
    }
}

/// Splices `tail` after `head`: tail arrivals are shifted past the last head
/// arrival plus `gap_ms`, and tail job/query/user/campaign identifiers are
/// offset so the combined trace keeps them trace-unique.
fn splice(head: Trace, tail: Trace, gap_ms: f64) -> Trace {
    let head_end = head
        .jobs
        .iter()
        .map(|j| j.arrival_ms)
        .fold(0.0f64, f64::max);
    let job_off = head.jobs.iter().map(|j| j.id).max().unwrap_or(0) + 1;
    let query_off = head
        .jobs
        .iter()
        .flat_map(|j| j.queries.iter().map(|q| q.id))
        .max()
        .unwrap_or(0)
        + 1;
    let user_off = head.jobs.iter().map(|j| j.user).max().unwrap_or(0) + 1;
    let campaign_off = head.jobs.iter().map(|j| j.campaign).max().unwrap_or(0) + 1;
    let timesteps = head.timesteps;
    let atoms_per_side = head.atoms_per_side;
    let mut jobs = head.jobs;
    for mut j in tail.jobs {
        j.id += job_off;
        j.user += user_off;
        j.campaign += campaign_off;
        j.arrival_ms += head_end + gap_ms;
        for q in &mut j.queries {
            q.id += query_off;
            q.user = j.user;
        }
        jobs.push(j);
    }
    Trace::new(timesteps, atoms_per_side, jobs)
}

/// The scenario matrix. All traces share the smoke database geometry (the
/// matrix probes workload *shape*, not data scale); `jobs` scales between
/// smoke and full mode.
fn scenarios(smoke: bool) -> Vec<Scenario> {
    let jobs = if smoke { 60 } else { 240 };
    let base = GenConfig::small(exp::TRACE_SEED);
    let generate = |cfg: GenConfig| TraceGenerator::new(cfg).generate();

    let flash_crowd = generate(GenConfig {
        jobs,
        mean_burst_gap_ms: 50_000.0,
        mean_burst_size: 12.0,
        intra_burst_gap_ms: 40.0,
        hotspot_prob: 0.8,
        ..base
    });
    let diurnal = generate(GenConfig {
        jobs,
        mean_burst_gap_ms: 120_000.0,
        mean_burst_size: 8.0,
        intra_burst_gap_ms: 500.0,
        ..base
    });
    // Hotspot-heavy exploration phase, then a scan-heavy sweep phase with a
    // different seed: the scheduler's α and the caches must re-adapt.
    let regime_shift = splice(
        generate(GenConfig {
            jobs: jobs / 2,
            hotspot_prob: 0.9,
            ..base
        }),
        generate(GenConfig {
            seed: exp::TRACE_SEED ^ 0x5eed,
            jobs: jobs / 2,
            hotspot_prob: 0.1,
            long_job_frac: 0.3,
            single_timestep_frac: 0.4,
            ..base
        }),
        5_000.0,
    );
    let heavy_tailed = generate(GenConfig {
        jobs: jobs / 2,
        mean_batched_queries: 40.0,
        long_job_frac: 0.3,
        oneoff_frac: 0.02,
        ..base
    });
    let zipf_skew = generate(GenConfig {
        jobs,
        hotspots: 2,
        hotspot_prob: 0.95,
        ..base
    });

    vec![
        Scenario {
            name: "bench5_e2e",
            driver: Driver::SingleNode {
                trace: exp::smoke_trace(),
            },
        },
        Scenario {
            name: "flash_crowd",
            driver: Driver::Cluster {
                nodes: 4,
                trace: flash_crowd,
                replication: ReplicationConfig::disabled(),
            },
        },
        Scenario {
            name: "diurnal",
            driver: Driver::Cluster {
                nodes: 4,
                trace: diurnal,
                replication: ReplicationConfig::disabled(),
            },
        },
        Scenario {
            name: "regime_shift",
            driver: Driver::Cluster {
                nodes: 4,
                trace: regime_shift,
                replication: ReplicationConfig::disabled(),
            },
        },
        Scenario {
            name: "heavy_tailed",
            driver: Driver::Cluster {
                nodes: 4,
                trace: heavy_tailed,
                replication: ReplicationConfig::disabled(),
            },
        },
        Scenario {
            name: "zipf_skew",
            driver: Driver::Cluster {
                nodes: 4,
                trace: zipf_skew,
                replication: ReplicationConfig::on(),
            },
        },
    ]
}

/// Measured run (serial, counters on) plus the determinism probes: a second
/// serial run and one run per remaining worker count, all byte-compared
/// after masking.
fn run_scenario(s: &Scenario) -> ScenarioRow {
    let (masked, queries, wall_ms, allocations, pushes, pops) = {
        let _guard = jaws_par::override_threads(WORKER_COUNTS[0]);
        reset_queue_ops();
        alloc_counter::reset();
        let start = Instant::now();
        let (masked, queries) = s.driver.run_once();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let allocations = alloc_counter::count();
        let (pushes, pops) = queue_ops();
        (masked, queries, wall_ms, allocations, pushes, pops)
    };

    let double_run_identical = {
        let _guard = jaws_par::override_threads(WORKER_COUNTS[0]);
        s.driver.run_once().0 == masked
    };
    assert!(
        double_run_identical,
        "{}: second run produced different masked bytes",
        s.name
    );

    let mut workers_identical = true;
    for &w in &WORKER_COUNTS[1..] {
        let _guard = jaws_par::override_threads(w);
        let identical = s.driver.run_once().0 == masked;
        workers_identical &= identical;
        assert!(
            identical,
            "{}: masked report differs at {w} workers",
            s.name
        );
    }

    let q = queries.max(1) as f64;
    ScenarioRow {
        name: s.name,
        kind: s.driver.kind(),
        nodes: s.driver.nodes(),
        jobs: s.driver.trace().jobs.len(),
        queries_completed: queries,
        wall_ms,
        throughput_qps: queries as f64 / (wall_ms / 1e3).max(1e-9),
        allocations,
        allocations_per_query: allocations as f64 / q,
        queue_pushes: pushes,
        queue_pops: pops,
        queue_ops_per_query: (pushes + pops) as f64 / q,
        double_run_identical,
        workers_identical,
    }
}

/// Compares this report against a committed baseline of the same mode:
/// any scenario whose allocations/query or queue-ops/query exceeds the
/// baseline by more than [`GUARD_FACTOR`] is a regression. Returns the
/// violation messages (empty = pass).
fn guard_violations(report: &MatrixReport, baseline_json: &str) -> Vec<String> {
    let base: BaselineReport =
        serde_json::from_str(baseline_json).expect("guard baseline parses as a matrix report");
    assert_eq!(
        base.smoke, report.smoke,
        "guard baseline was recorded in a different mode (smoke vs full)"
    );
    let mut violations = Vec::new();
    let (got, want) = (
        report.dispatch_path.allocations_per_batch,
        base.dispatch_path.allocations_per_batch,
    );
    // Per-dispatch cost guard. The steady-state dispatch path allocates
    // (near) nothing, so the floor keeps "0.02 vs 0.01 per batch" noise from
    // tripping the relative check.
    if got > (want * GUARD_FACTOR).max(1.0) {
        violations.push(format!(
            "FAIL: dispatch_path: allocations_per_batch regressed {got:.2} vs baseline \
             {want:.2} (limit {:.2})",
            (want * GUARD_FACTOR).max(1.0)
        ));
    }
    for row in &report.scenarios {
        let Some(b) = base.scenarios.iter().find(|r| r.name == row.name) else {
            // New scenarios have no baseline yet; they are reported, not
            // guarded, until the baseline is regenerated.
            violations.push(format!(
                "note: scenario `{}` absent from baseline (not guarded)",
                row.name
            ));
            continue;
        };
        for (column, got, want) in [
            (
                "allocations_per_query",
                row.allocations_per_query,
                b.allocations_per_query,
            ),
            (
                "queue_ops_per_query",
                row.queue_ops_per_query,
                b.queue_ops_per_query,
            ),
        ] {
            if got > want * GUARD_FACTOR {
                violations.push(format!(
                    "FAIL: {}: {column} regressed {got:.1} vs baseline {want:.1} \
                     (limit {:.1})",
                    row.name,
                    want * GUARD_FACTOR
                ));
            }
        }
    }
    violations
}

const GUARD: exp::Flag = exp::Flag {
    name: "--guard",
    value: Some("BASELINE"),
    help: "exit non-zero on a >2x regression against the BASELINE report",
};

fn main() {
    let args = exp::parse_args("", &[exp::SMOKE, exp::OUT, GUARD]);
    let smoke = args.has("--smoke");
    let out_path = args.value("--out").unwrap_or("BENCH_10.json");
    let guard_path = args.value("--guard");

    let (micro_n, micro_warm, micro_measured) = if smoke {
        (2_000, 10, 100)
    } else {
        (4_000, 50, 500)
    };
    let dispatch_path = dispatch_microbench(micro_n, micro_warm, micro_measured);
    println!(
        "\nDispatch path — steady-state `next_batch` over {} loaded queries",
        dispatch_path.queries_loaded
    );
    exp::rule();
    println!(
        "{} batches after {} warm-up: {} atoms dispatched, {} allocations \
         ({:.2}/batch, {:.3}/atom)",
        dispatch_path.measured_batches,
        dispatch_path.warmup_batches,
        dispatch_path.atoms_dispatched,
        dispatch_path.allocations,
        dispatch_path.allocations_per_batch,
        dispatch_path.allocations_per_atom,
    );

    println!(
        "\nScenario matrix — allocation & queue discipline across workload shapes{}",
        if smoke { " [--smoke]" } else { "" }
    );
    exp::rule();
    println!(
        "{:<13} {:<12} {:>5} {:>5} {:>8} {:>10} {:>9} {:>13} {:>12} {:>7} {:>7}",
        "scenario",
        "kind",
        "nodes",
        "jobs",
        "queries",
        "wall_ms",
        "allocs/q",
        "queue push",
        "queue pop",
        "2-run",
        "1/2/8w"
    );
    exp::rule();

    let mut rows = Vec::new();
    for s in scenarios(smoke) {
        let row = run_scenario(&s);
        println!(
            "{:<13} {:<12} {:>5} {:>5} {:>8} {:>10.2} {:>9.1} {:>13} {:>12} {:>7} {:>7}",
            row.name,
            row.kind,
            row.nodes,
            row.jobs,
            row.queries_completed,
            row.wall_ms,
            row.allocations_per_query,
            row.queue_pushes,
            row.queue_pops,
            if row.double_run_identical {
                "ok"
            } else {
                "FAIL"
            },
            if row.workers_identical { "ok" } else { "FAIL" },
        );
        rows.push(row);
    }
    exp::rule();
    println!(
        "every row is asserted masked-byte-identical across a re-run and across \
         {WORKER_COUNTS:?} workers; allocations and queue ops are counted on the serial run."
    );

    let report = MatrixReport {
        bench: "scenario_matrix",
        smoke,
        threads_reported: jaws_par::thread_count(),
        available_parallelism: jaws_par::hardware_parallelism(),
        worker_counts: WORKER_COUNTS.to_vec(),
        dispatch_path,
        scenarios: rows,
    };
    exp::write_json(out_path, &report);

    if let Some(path) = guard_path {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read guard baseline {path}: {e}"));
        let violations = guard_violations(&report, &baseline);
        for v in &violations {
            eprintln!("# guard: {v}");
        }
        if violations.iter().any(|v| v.starts_with("FAIL")) {
            eprintln!("# guard: cost regression vs {path} (limit {GUARD_FACTOR}x)");
            std::process::exit(1);
        }
        eprintln!("# guard: within {GUARD_FACTOR}x of {path}");
    }
}
