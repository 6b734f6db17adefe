//! Queue-depth scaling bench for the workload manager's maintained views —
//! writes `BENCH_8.json`.
//!
//! Two sections:
//!
//! 1. **depth_sweep** — per-dispatch scheduling cost at 10k / 100k / 1M
//!    queued sub-queries, full scan vs maintained views. The *reference*
//!    path is the full-scan oracle (`jaws_scheduler::queues::reference`):
//!    every dispatch rescans all pending atoms for the argmax and rebuilds
//!    the URC snapshot from scratch, so its cost grows with queue depth. The
//!    *delta* path (`delta_*` columns) is `WorkloadManager` itself: `best_atom`
//!    and `utility_snapshot` read views it keeps up to date per change, so
//!    the per-dispatch cost is O(Δ + timesteps), not O(queue). Both paths
//!    are asserted to choose the same atom (bit-equal utility) before any
//!    timing. Reference reps are capped at large depths (the full scan at 1M
//!    atoms is exactly the cost being demonstrated); the cap is recorded in
//!    the row, never silent.
//! 2. **identity** — the masked-report / JSONL-trace identity columns: one
//!    seeded end-to-end run per worker count (1/2/8), byte-compared against
//!    the serial baseline after masking the two measured-wall-clock overhead
//!    fields (same masking as the determinism suite).
//!
//! The acceptance criterion for the maintained views is `within_5x`:
//! per-dispatch delta-path cost at the deepest queue must stay within 5× of
//! the shallowest (~O(Δ), not O(queue)).
//!
//! `--smoke` shrinks queue depths and rep counts for CI; `--out=PATH`
//! overrides the output path.

use jaws_bench::exp::{self, NoneResident};
use jaws_morton::{AtomId, MortonKey};
use jaws_obs::{JsonlRecorder, ObsSink};
use jaws_scheduler::queues::reference;
use jaws_scheduler::{MetricParams, SubQuery, WorkloadManager};
use jaws_sim::{build_db, build_scheduler, CachePolicyKind, Executor, SchedulerKind, SimConfig};
use jaws_turbdb::{CostModel, DataMode};
use serde::Serialize;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Age bias used for every utility evaluation in the sweep.
const ALPHA: f64 = 0.3;

/// Simulated clock at the first dispatch, ms.
const BASE_NOW: f64 = 10_000.0;

/// Hot atoms at timestep 0: large position counts and the oldest enqueue
/// times, so the dispatch argmax always lands here and the backlog below
/// stays untouched (pure queue-depth ballast).
const HOT_ATOMS: u64 = 256;
const HOT_POSITIONS: u32 = 5_000;

/// Timesteps the cold backlog is spread over.
const COLD_TIMESTEPS: u64 = 30;

#[derive(Serialize)]
struct DepthRow {
    queued_subqueries: u64,
    hot_atoms: u64,
    cold_timesteps: u64,
    dispatches: usize,
    reference_reps: usize,
    reference_us_per_dispatch: f64,
    delta_us_per_dispatch: f64,
    speedup: f64,
    eq1_recomputes_per_dispatch: f64,
    ts_refolds_per_dispatch: f64,
    paths_agree: bool,
}

#[derive(Serialize)]
struct IdentityRow {
    threads: usize,
    queries_completed: u64,
    report_identical_to_serial: bool,
    trace_identical_to_serial: bool,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    smoke: bool,
    threads_reported: usize,
    alpha: f64,
    depth_sweep: Vec<DepthRow>,
    /// Delta-path per-dispatch cost, deepest queue over shallowest — the
    /// `1M / 10k` ratio in full runs, smaller depths under `--smoke`.
    ratio_1m_over_10k: f64,
    within_5x: bool,
    identity: Vec<IdentityRow>,
}

/// A workload manager with `n` total queued sub-queries: the hot set at
/// timestep 0 plus an `n - HOT_ATOMS` sub-query backlog spread over
/// `COLD_TIMESTEPS` timesteps, 10 positions each, recently enqueued.
fn loaded_wm(n: u64) -> WorkloadManager {
    assert!(n > HOT_ATOMS, "queue depth must exceed the hot set");
    let mut wm = WorkloadManager::new(MetricParams::paper_testbed());
    for i in 0..HOT_ATOMS {
        wm.enqueue([SubQuery {
            query: i + 1,
            atom: AtomId::new(0, MortonKey(i)),
            positions: HOT_POSITIONS,
            enqueued_ms: i as f64,
        }]);
    }
    for i in 0..n - HOT_ATOMS {
        wm.enqueue([SubQuery {
            query: 1_000 + i,
            atom: AtomId::new(
                1 + (i % COLD_TIMESTEPS) as u32,
                MortonKey(i / COLD_TIMESTEPS),
            ),
            positions: 10,
            enqueued_ms: 1_000.0 + (i % 997) as f64,
        }]);
    }
    wm
}

/// The dispatch total order: utility descending, `AtomId` ascending on
/// exact ties (same order `WorkloadManager::best_atom` implements).
fn argmax(utilities: Vec<(AtomId, f64)>) -> (AtomId, f64) {
    utilities
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("non-empty queue")
}

fn bench_depth(n: u64, dispatches: usize, reference_reps: usize) -> DepthRow {
    let res = NoneResident;
    let mut wm = loaded_wm(n);
    black_box(wm.utility_snapshot(&res)); // prime the arrangements

    // Both paths must pick the same atom with bit-equal utility before any
    // timing is trusted.
    let (ref_atom, ref_u) = argmax(reference::aged_utilities(&wm, BASE_NOW, ALPHA, &res));
    let (delta_atom, delta_u) = wm
        .best_atom(BASE_NOW, ALPHA, &res)
        .expect("non-empty queue");
    assert_eq!(ref_atom, delta_atom, "n={n}: paths disagree on the atom");
    assert_eq!(
        ref_u.to_bits(),
        delta_u.to_bits(),
        "n={n}: utility bits differ"
    );

    // Reference path: read-only (no state change), so reps are free to be
    // capped without perturbing the steady state measured below.
    let start = Instant::now();
    for r in 0..reference_reps {
        let now = BASE_NOW + r as f64;
        black_box(argmax(reference::aged_utilities(&wm, now, ALPHA, &res)));
        black_box(reference::utility_snapshot(&wm, &res));
    }
    let reference_us_per_dispatch = start.elapsed().as_secs_f64() * 1e6 / reference_reps as f64;

    // Delta path: full steady-state dispatch loop — select, take, re-enqueue
    // an equivalent sub-query, rebuild the snapshot view.
    let before = wm.stats();
    let start = Instant::now();
    for i in 0..dispatches {
        let now = BASE_NOW + i as f64;
        let (atom, _) = wm.best_atom(now, ALPHA, &res).expect("non-empty queue");
        let group = wm.take_atom(&atom, &mut Vec::new());
        black_box(group.positions());
        wm.enqueue([SubQuery {
            query: 10_000_000 + i as u64,
            atom,
            positions: HOT_POSITIONS,
            enqueued_ms: now,
        }]);
        black_box(wm.utility_snapshot(&res));
    }
    let delta_us_per_dispatch = start.elapsed().as_secs_f64() * 1e6 / dispatches as f64;
    let stats = wm.stats();

    DepthRow {
        queued_subqueries: n,
        hot_atoms: HOT_ATOMS,
        cold_timesteps: COLD_TIMESTEPS,
        dispatches,
        reference_reps,
        reference_us_per_dispatch,
        delta_us_per_dispatch,
        speedup: reference_us_per_dispatch / delta_us_per_dispatch,
        eq1_recomputes_per_dispatch: (stats.eq1_recomputes - before.eq1_recomputes) as f64
            / dispatches as f64,
        ts_refolds_per_dispatch: (stats.ts_refolds - before.ts_refolds) as f64 / dispatches as f64,
        paths_agree: true,
    }
}

/// One seeded end-to-end run; returns the masked report JSON, the JSONL
/// trace, and the completed-query count.
fn identity_run() -> (String, String, u64) {
    let db = build_db(
        exp::smoke_db(),
        CostModel::paper_testbed(),
        DataMode::Virtual,
        32,
        CachePolicyKind::Urc,
    );
    let sched = build_scheduler(
        SchedulerKind::Jaws2 { batch_k: 15 },
        MetricParams::paper_testbed(),
        exp::RUN_LEN,
        10_000.0,
    );
    let mut ex = Executor::new(db, sched, SimConfig::default());
    let rec = Arc::new(Mutex::new(JsonlRecorder::new()));
    ex.set_recorder(ObsSink::new(rec.clone()));
    let report = ex.run(&exp::smoke_trace());
    let masked =
        exp::mask_wallclock_fields(&serde_json::to_string(&report).expect("report serializes"));
    // lint: invariant — the run above completed; a poisoned mutex would
    // already have panicked the emitting thread
    let trace = rec.lock().expect("recorder mutex unpoisoned").take();
    (masked, trace, report.queries_completed)
}

fn bench_identity(threads: &[usize]) -> Vec<IdentityRow> {
    let mut rows: Vec<IdentityRow> = Vec::new();
    let mut serial: Option<(String, String)> = None;
    for &t in threads {
        let _guard = jaws_par::override_threads(t);
        let (masked, trace, queries) = identity_run();
        let (serial_masked, serial_trace) = serial.get_or_insert((masked.clone(), trace.clone()));
        let report_ok = masked == *serial_masked;
        let trace_ok = trace == *serial_trace;
        assert!(report_ok, "masked report differs at {t} workers");
        assert!(trace_ok, "JSONL trace differs at {t} workers");
        rows.push(IdentityRow {
            threads: t,
            queries_completed: queries,
            report_identical_to_serial: report_ok,
            trace_identical_to_serial: trace_ok,
        });
    }
    rows
}

fn main() {
    let args = exp::parse_args("", &[exp::SMOKE, exp::OUT]);
    let smoke = args.has("--smoke");
    let out_path = args.value("--out").unwrap_or("BENCH_8.json");
    let threads_reported = jaws_par::thread_count();

    let (depths, dispatches, full_scan_reps): (&[u64], usize, usize) = if smoke {
        (&[1_000, 4_000, 16_000], 16, 4)
    } else {
        (&[10_000, 100_000, 1_000_000], 64, 8)
    };

    println!("\nSection 1 — per-dispatch cost vs queue depth (alpha = {ALPHA})");
    exp::rule();
    println!(
        "{:<12} {:>10} {:>8} {:>16} {:>14} {:>9} {:>10} {:>10}",
        "queued",
        "dispatches",
        "ref_reps",
        "reference_us",
        "delta_us",
        "speedup",
        "eq1/disp",
        "fold/disp"
    );
    let mut depth_sweep = Vec::new();
    for &n in depths {
        // The full scan at 1M atoms is the cost being demonstrated — cap its
        // reps rather than spend minutes re-measuring it.
        let reps = if n > 100_000 {
            full_scan_reps
        } else {
            dispatches.min(16)
        };
        let row = bench_depth(n, dispatches, reps);
        println!(
            "{:<12} {:>10} {:>8} {:>16.2} {:>14.2} {:>8.1}x {:>10.2} {:>10.2}",
            row.queued_subqueries,
            row.dispatches,
            row.reference_reps,
            row.reference_us_per_dispatch,
            row.delta_us_per_dispatch,
            row.speedup,
            row.eq1_recomputes_per_dispatch,
            row.ts_refolds_per_dispatch
        );
        depth_sweep.push(row);
    }
    // `depths` above is a non-empty constant array, so the sweep has rows.
    let shallow = depth_sweep.first().expect("non-empty sweep");
    let deep = depth_sweep.last().expect("non-empty sweep");
    let ratio_1m_over_10k = deep.delta_us_per_dispatch / shallow.delta_us_per_dispatch;
    let within_5x = ratio_1m_over_10k < 5.0;
    println!(
        "\ndelta-path cost ratio {} / {} queued: {:.2}x (within 5x: {})",
        deep.queued_subqueries, shallow.queued_subqueries, ratio_1m_over_10k, within_5x
    );

    println!("\nSection 2 — masked-report / trace identity (JAWS_2, URC, seeded)");
    exp::rule();
    let identity = bench_identity(&[1, 2, 8]);
    println!(
        "{:<8} {:>10} {:>18} {:>18}",
        "threads", "queries", "report_identical", "trace_identical"
    );
    for r in &identity {
        println!(
            "{:<8} {:>10} {:>18} {:>18}",
            r.threads,
            r.queries_completed,
            r.report_identical_to_serial,
            r.trace_identical_to_serial
        );
    }

    let report = BenchReport {
        bench: "dispatch_scaling",
        smoke,
        threads_reported,
        alpha: ALPHA,
        depth_sweep,
        ratio_1m_over_10k,
        within_5x,
        identity,
    };
    exp::write_json(out_path, &report);
}
