//! Double-run determinism (the hash-order and wall-clock bans end to end):
//! replaying the same seeded trace twice must produce *byte-identical*
//! serialized reports — including the per-query response log, which captures
//! dispatch order — for every scheduling policy, on one node and on the
//! Morton-slab cluster. Any hash-order iteration, wall-clock read, or
//! unseeded RNG on a decision path shows up here as a diff.

#![forbid(unsafe_code)]
#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test code: a failed expectation is a failed test"
)]

mod common;

use common::mask_wallclock_fields;
use jaws_obs::{JsonlRecorder, NullRecorder, ObsSink};
use jaws_scheduler::MetricParams;
use jaws_sim::{
    build_db, build_scheduler, CachePolicyKind, ClusterConfig, ClusterExecutor, FailurePlan,
    ReplicationConfig, SchedulerKind, SimConfig,
};
use jaws_turbdb::{CostModel, DataMode, DbConfig};
use jaws_workload::{GenConfig, TraceGenerator};
use std::sync::{Arc, Mutex};

fn db_config() -> DbConfig {
    DbConfig {
        grid_side: 32,
        atom_side: 8,
        ghost: 2,
        timesteps: 8,
        dt: 0.002,
        seed: 5,
    }
}

/// Runs one full simulation and serializes everything order-sensitive:
/// the run report plus the (QueryId, response-time) completion log.
///
/// Two fields are masked before comparison: `cache.policy_overhead_ns` and
/// the derived `cache_overhead_ms_per_query`. They are *measured wall-clock*
/// telemetry (Table I's Overhead/Qry column) produced by the one sanctioned
/// `Instant::now` site in library code, `crates/cache/src/pool.rs`, whose
/// `#[expect]`s name this masking. Every simulated quantity must still match
/// exactly.
fn serialized_run(kind: SchedulerKind, seed: u64) -> String {
    serialized_run_wired(kind, seed, None)
}

/// [`serialized_run`] with an optional observability sink wired before the
/// run, so tests can compare instrumented and uninstrumented replays.
fn serialized_run_wired(kind: SchedulerKind, seed: u64, sink: Option<ObsSink>) -> String {
    let trace = TraceGenerator::new(GenConfig::small(seed)).generate();
    let db = build_db(
        db_config(),
        CostModel::paper_testbed(),
        DataMode::Virtual,
        16,
        CachePolicyKind::Urc,
    );
    let sched = build_scheduler(kind, MetricParams::paper_testbed(), 25, 10_000.0);
    let mut ex = ClusterExecutor::from_nodes(
        vec![(db, sched)],
        SimConfig::default(),
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    );
    if let Some(s) = sink {
        ex.set_recorder(s);
    }
    let report = ex.run(&trace).aggregate;
    let report_json =
        mask_wallclock_fields(&serde_json::to_string(&report).expect("report serializes"));
    let log_json = serde_json::to_string(ex.response_log()).expect("log serializes");
    format!("{report_json}\n{log_json}")
}

/// One instrumented single-node replay; returns the JSONL trace it emitted.
fn jsonl_trace_of_run(kind: SchedulerKind, seed: u64) -> String {
    let rec = Arc::new(Mutex::new(JsonlRecorder::new()));
    let _ = serialized_run_wired(kind, seed, Some(ObsSink::new(rec.clone())));
    let trace = rec.lock().expect("recorder mutex unpoisoned").take();
    trace
}

/// One instrumented cluster replay; returns the JSONL trace it emitted.
fn jsonl_trace_of_cluster_run(kind: SchedulerKind, nodes: u32, seed: u64) -> String {
    let trace = TraceGenerator::new(GenConfig::small(seed)).generate();
    let rec = Arc::new(Mutex::new(JsonlRecorder::new()));
    let mut ex = ClusterExecutor::new(cluster_config(kind, nodes));
    ex.set_recorder(ObsSink::new(rec.clone()));
    let _ = ex.run(&trace);
    let out = rec.lock().expect("recorder mutex unpoisoned").take();
    out
}

fn cluster_config(kind: SchedulerKind, nodes: u32) -> ClusterConfig {
    ClusterConfig {
        nodes,
        db: db_config(),
        cost: CostModel::paper_testbed(),
        scheduler: kind,
        cache_policy: CachePolicyKind::Urc,
        cache_atoms_per_node: 16,
        run_len: 25,
        gate_timeout_ms: 10_000.0,
        sim: SimConfig::default(),
        failures: FailurePlan::none(),
        replication: ReplicationConfig::disabled(),
    }
}

/// Cluster analogue of [`serialized_run`]: the full `ClusterReport` (aggregate
/// plus every per-node breakdown) and the completion log, with every
/// wall-clock telemetry occurrence masked (one per node plus the aggregate).
fn serialized_cluster_run(kind: SchedulerKind, nodes: u32, seed: u64) -> String {
    serialized_cluster_run_failing(kind, nodes, seed, FailurePlan::none())
}

/// The trace failure scenarios replay: arrivals compressed 20× so the
/// cluster is capacity-bound and every node holds queued work mid-run —
/// otherwise a mid-replay crash finds an empty node and tests nothing.
fn failure_trace(seed: u64) -> jaws_workload::Trace {
    TraceGenerator::new(GenConfig::small(seed))
        .generate()
        .speedup(20.0)
}

/// [`serialized_cluster_run`] under a scripted [`FailurePlan`], on the
/// compressed [`failure_trace`]. Asserts that the run completed every query:
/// a crash re-dispatches its parts instead of dropping them.
fn serialized_cluster_run_failing(
    kind: SchedulerKind,
    nodes: u32,
    seed: u64,
    failures: FailurePlan,
) -> String {
    let trace = failure_trace(seed);
    let mut cfg = cluster_config(kind, nodes);
    cfg.failures = failures;
    let mut ex = ClusterExecutor::new(cfg);
    let report = ex.run(&trace);
    assert!(!report.aggregate.truncated, "{}: truncated", kind.name());
    assert_eq!(
        report.aggregate.queries_completed,
        trace.query_count() as u64,
        "{}: the run left queries behind",
        kind.name()
    );
    let report_json =
        mask_wallclock_fields(&serde_json::to_string(&report).expect("report serializes"));
    let log_json = serde_json::to_string(ex.response_log()).expect("log serializes");
    format!("{report_json}\n{log_json}")
}

/// One instrumented cluster replay under a scripted [`FailurePlan`]; returns
/// the JSONL trace it emitted.
fn jsonl_trace_of_cluster_run_failing(
    kind: SchedulerKind,
    nodes: u32,
    seed: u64,
    failures: FailurePlan,
) -> String {
    let trace = failure_trace(seed);
    let rec = Arc::new(Mutex::new(JsonlRecorder::new()));
    let mut cfg = cluster_config(kind, nodes);
    cfg.failures = failures;
    let mut ex = ClusterExecutor::new(cfg);
    ex.set_recorder(ObsSink::new(rec.clone()));
    let _ = ex.run(&trace);
    let out = rec.lock().expect("recorder mutex unpoisoned").take();
    out
}

/// Makespan of the healthy run on the [`failure_trace`], which failure
/// plans scale their event times by so the events land mid-replay.
fn healthy_makespan(kind: SchedulerKind, nodes: u32, seed: u64) -> f64 {
    let trace = failure_trace(seed);
    let healthy = ClusterExecutor::new(cluster_config(kind, nodes)).run(&trace);
    healthy.aggregate.makespan_ms
}

/// The standard degraded scenario: node 1 crashes into survivor 0 at 50% of
/// the healthy `makespan`, and the last node degrades 2× at 25%.
fn half_makespan_failure_plan(makespan: f64, nodes: u32) -> FailurePlan {
    FailurePlan::new(17)
        .crash_with_survivor(0.5 * makespan, 1, 0)
        .slowdown_at(0.25 * makespan, nodes - 1, 2.0)
}

fn assert_deterministic(kind: SchedulerKind) {
    for seed in [3u64, 11] {
        let a = serialized_run(kind, seed);
        let b = serialized_run(kind, seed);
        assert_eq!(
            a,
            b,
            "{} produced different reports across identical seeded runs (seed {seed})",
            kind.name()
        );
    }
}

fn assert_cluster_deterministic(kind: SchedulerKind) {
    for nodes in [2u32, 4] {
        for seed in [3u64, 11] {
            let a = serialized_cluster_run(kind, nodes, seed);
            let b = serialized_cluster_run(kind, nodes, seed);
            assert_eq!(
                a,
                b,
                "{} on {nodes} nodes produced different cluster reports across identical \
                 seeded runs (seed {seed})",
                kind.name()
            );
        }
    }
}

#[test]
fn jaws_runs_are_byte_identical() {
    assert_deterministic(SchedulerKind::Jaws2 { batch_k: 15 });
}

#[test]
fn liferaft_runs_are_byte_identical() {
    assert_deterministic(SchedulerKind::LifeRaft2);
}

#[test]
fn fcfs_runs_are_byte_identical() {
    assert_deterministic(SchedulerKind::NoShare);
}

#[test]
fn jaws_cluster_runs_are_byte_identical() {
    assert_cluster_deterministic(SchedulerKind::Jaws2 { batch_k: 15 });
}

#[test]
fn liferaft_cluster_runs_are_byte_identical() {
    assert_cluster_deterministic(SchedulerKind::LifeRaft2);
}

/// The JSONL observability trace — every scheduling decision, gate ruling,
/// atom read and completion, timestamped from the simulated clock — must be
/// *byte-identical* across double runs for every policy. This is the
/// strictest determinism check in the suite: it covers event *order* at full
/// resolution, not just aggregate totals.
#[test]
fn jsonl_traces_are_byte_identical_across_runs() {
    for kind in [
        SchedulerKind::NoShare,
        SchedulerKind::LifeRaft2,
        SchedulerKind::Jaws2 { batch_k: 15 },
    ] {
        for seed in [3u64, 11] {
            let a = jsonl_trace_of_run(kind, seed);
            let b = jsonl_trace_of_run(kind, seed);
            assert!(
                !a.is_empty(),
                "{} emitted no trace records (seed {seed})",
                kind.name()
            );
            assert_eq!(
                a,
                b,
                "{} emitted different JSONL traces across identical seeded runs (seed {seed})",
                kind.name()
            );
        }
    }
}

/// Cluster analogue: per-node event interleaving (node-tagged records) must
/// also replay byte-for-byte.
#[test]
fn cluster_jsonl_traces_are_byte_identical_and_node_tagged() {
    let kind = SchedulerKind::Jaws2 { batch_k: 15 };
    let a = jsonl_trace_of_cluster_run(kind, 2, 3);
    let b = jsonl_trace_of_cluster_run(kind, 2, 3);
    assert!(!a.is_empty());
    assert_eq!(a, b, "cluster JSONL traces differ across identical runs");
    assert!(
        a.contains("\"node\":1"),
        "trace never tagged an event with the second node"
    );
    assert!(
        a.contains("\"node\":null"),
        "engine-level events should carry no node tag"
    );
}

/// Wiring a [`NullRecorder`] must leave the simulation bit-identical to an
/// unwired run: every emission site short-circuits on `ObsSink::enabled`, so
/// a disabled sink costs one branch and perturbs nothing (the "zero
/// paid-when-disabled overhead" invariant of `jaws-obs`).
#[test]
fn null_recorder_leaves_reports_bit_identical() {
    for (kind, seed) in [
        (SchedulerKind::Jaws2 { batch_k: 15 }, 3u64),
        (SchedulerKind::LifeRaft2, 11),
    ] {
        let unwired = serialized_run(kind, seed);
        let nulled = serialized_run_wired(
            kind,
            seed,
            Some(ObsSink::new(Arc::new(Mutex::new(NullRecorder)))),
        );
        assert_eq!(
            unwired,
            nulled,
            "{} report changed when a NullRecorder was wired (seed {seed})",
            kind.name()
        );
    }
}

/// Failure injection is part of the determinism contract: the same seed and
/// the same [`FailurePlan`] must replay byte-for-byte — serialized
/// `ClusterReport` (degraded section included), completion log, and the full
/// JSONL trace with its `NodeFailed`/`PartRedispatched`/`NodeSlowdown`
/// records. Single events must also drain every query and replay
/// identically: node 1 crashing at 10%, 50% and 90% of the healthy makespan,
/// and the last node straggling 2× and 8× from t = 0.
#[test]
fn failure_runs_are_byte_identical() {
    for kind in [
        SchedulerKind::Jaws2 { batch_k: 15 },
        SchedulerKind::LifeRaft2,
    ] {
        let makespan = healthy_makespan(kind, 3, 3);
        let crashes =
            [0.1, 0.5, 0.9].map(|at| FailurePlan::new(17).crash_with_survivor(at * makespan, 1, 0));
        let stragglers = [2.0, 8.0].map(|factor| FailurePlan::new(17).slowdown_at(0.0, 2, factor));
        for plan in crashes.into_iter().chain(stragglers) {
            assert_eq!(
                serialized_cluster_run_failing(kind, 3, 3, plan.clone()),
                serialized_cluster_run_failing(kind, 3, 3, plan.clone()),
                "{} diverged across identical replays under {plan:?}",
                kind.name()
            );
        }

        let plan = half_makespan_failure_plan(makespan, 3);
        let a = serialized_cluster_run_failing(kind, 3, 3, plan.clone());
        let b = serialized_cluster_run_failing(kind, 3, 3, plan.clone());
        assert_eq!(
            a,
            b,
            "{} degraded runs differ across identical seeded replays",
            kind.name()
        );
        assert!(
            a.contains("\"degraded\":{"),
            "degraded section missing from the failure report"
        );
        let ta = jsonl_trace_of_cluster_run_failing(kind, 3, 3, plan.clone());
        let tb = jsonl_trace_of_cluster_run_failing(kind, 3, 3, plan);
        assert!(
            ta.contains("NodeFailed") && ta.contains("PartRedispatched"),
            "{} trace lacks recovery events",
            kind.name()
        );
        assert!(
            ta.contains("NodeSlowdown"),
            "trace lacks the straggler event"
        );
        assert_eq!(ta, tb, "{} degraded JSONL traces differ", kind.name());
    }
}

/// Acceptance scenario: a seeded crash at 50% of the healthy makespan must
/// still complete *every* query of the trace — re-dispatch drains the dead
/// node's slab through the survivor — and replaying it at 1, 2 and 8 workers
/// must yield byte-identical reports and JSONL traces.
#[test]
fn crash_at_half_makespan_drains_every_query_at_any_thread_count() {
    let kind = SchedulerKind::Jaws2 { batch_k: 15 };
    let plan = half_makespan_failure_plan(healthy_makespan(kind, 3, 3), 3);

    let trace = failure_trace(3);
    let mut cfg = cluster_config(kind, 3);
    cfg.failures = plan.clone();
    let mut ex = ClusterExecutor::new(cfg);
    let r = ex.run(&trace);
    assert_eq!(
        r.aggregate.queries_completed,
        trace.query_count() as u64,
        "the degraded cluster left queries behind"
    );
    assert!(!r.aggregate.truncated);
    assert!(r.nodes[1].failed);
    let degraded = r.degraded.expect("degraded section");
    assert_eq!(degraded.failed_nodes, vec![1]);
    assert!(degraded.redispatched_parts > 0, "crash moved no work");

    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for threads in [1usize, 2, 8] {
        let _guard = jaws_par::override_threads(threads);
        reports.push(serialized_cluster_run_failing(kind, 3, 3, plan.clone()));
        traces.push(jsonl_trace_of_cluster_run_failing(kind, 3, 3, plan.clone()));
    }
    assert_eq!(
        reports[0], reports[1],
        "failure report differs at 2 workers"
    );
    assert_eq!(
        reports[0], reports[2],
        "failure report differs at 8 workers"
    );
    assert_eq!(traces[0], traces[1], "failure trace differs at 2 workers");
    assert_eq!(traces[0], traces[2], "failure trace differs at 8 workers");
}

/// A Zipf-flavored skew: most queries hammer node 0's first Morton key,
/// the rest scatter across the grid. This is the workload dynamic placement
/// exists for — hot enough that [`jaws_sim::ReplicationConfig::on`]'s
/// promotion threshold fires deterministically.
fn skewed_trace() -> jaws_workload::Trace {
    use jaws_morton::MortonKey;
    use jaws_workload::{Footprint, Job, JobKind, Query, QueryOp, Trace};
    let q = |id: u64, m: u64| Query {
        id,
        user: 0,
        op: QueryOp::Velocity,
        timestep: (id % 8) as u32,
        footprint: Footprint::from_pairs([(MortonKey(m), 60u32)]),
    };
    let jobs = (0..6u64)
        .map(|j| Job {
            id: j + 1,
            user: j as u32,
            kind: JobKind::Batched,
            campaign: 1,
            // Three of every four queries hit the hot key; the remainder
            // walks the other slabs so every node owns some work.
            queries: (0..12u64)
                .map(|i| {
                    let id = j * 12 + i + 1;
                    q(id, if i % 4 < 3 { 0 } else { (id * 7) % 64 })
                })
                .collect(),
            arrival_ms: j as f64 * 40.0,
            think_ms: 0.0,
        })
        .collect();
    Trace::new(8, 4, jobs)
}

/// One replicated-cluster replay on the [`skewed_trace`]: serialized masked
/// report + completion log, and the full JSONL observability trace.
fn replicated_cluster_run(enabled: bool) -> (String, String) {
    let trace = skewed_trace();
    let mut cfg = cluster_config(SchedulerKind::Jaws2 { batch_k: 15 }, 4);
    if enabled {
        cfg.replication = jaws_sim::ReplicationConfig::on();
    }
    let rec = Arc::new(Mutex::new(JsonlRecorder::new()));
    let mut ex = ClusterExecutor::new(cfg);
    ex.set_recorder(ObsSink::new(rec.clone()));
    let report = ex.run(&trace);
    let report_json =
        mask_wallclock_fields(&serde_json::to_string(&report).expect("report serializes"));
    let log_json = serde_json::to_string(ex.response_log()).expect("log serializes");
    let jsonl = rec.lock().expect("recorder mutex unpoisoned").take();
    (format!("{report_json}\n{log_json}"), jsonl)
}

/// Dynamic placement joins the determinism contract: promotion, demotion and
/// least-loaded routing are pure functions of simulated time and the seeded
/// trace, so a replicated replay must be byte-identical at 1, 2 and 8
/// workers — serialized `ClusterReport` (replica table included), completion
/// log, and the JSONL trace with its `ReplicaPromoted`/`ReplicaRouted`
/// records — with replication on and off alike.
#[test]
fn replicated_runs_are_byte_identical_at_any_thread_count() {
    for enabled in [true, false] {
        let mut reports = Vec::new();
        let mut traces = Vec::new();
        for threads in [1usize, 2, 8] {
            let _guard = jaws_par::override_threads(threads);
            let (r, t) = replicated_cluster_run(enabled);
            reports.push(r);
            traces.push(t);
        }
        assert_eq!(
            reports[0], reports[1],
            "replication={enabled}: report differs at 2 workers"
        );
        assert_eq!(
            reports[0], reports[2],
            "replication={enabled}: report differs at 8 workers"
        );
        assert_eq!(
            traces[0], traces[1],
            "replication={enabled}: trace differs at 2 workers"
        );
        assert_eq!(
            traces[0], traces[2],
            "replication={enabled}: trace differs at 8 workers"
        );
        if enabled {
            assert!(
                reports[0].contains("\"replication\":{"),
                "replica summary missing from the serialized report"
            );
            assert!(
                traces[0].contains("ReplicaPromoted") && traces[0].contains("ReplicaRouted"),
                "trace lacks dynamic-placement events"
            );
        } else {
            assert!(
                reports[0].contains("\"replication\":null"),
                "disabled replication must serialize as null"
            );
        }
    }
}

/// Deterministic intra-run parallelism: the `jaws-par` worker count must be
/// invisible in results. Serialized reports, completion logs and the full
/// JSONL traces must be byte-identical at 1, 2 and 8 workers — single-node
/// and cluster — for every policy family. This is the contract that makes
/// `JAWS_THREADS` a pure wall-clock knob.
#[test]
fn reports_and_traces_are_byte_identical_at_any_thread_count() {
    for kind in [
        SchedulerKind::NoShare,
        SchedulerKind::LifeRaft2,
        SchedulerKind::Jaws2 { batch_k: 15 },
    ] {
        let mut runs = Vec::new();
        let mut traces = Vec::new();
        let mut cluster_runs = Vec::new();
        let mut cluster_traces = Vec::new();
        for threads in [1usize, 2, 8] {
            // The override is thread-local, so it governs every jaws-par
            // call made by the runs below (worker counts are decided on the
            // calling thread, never inside worker threads).
            let _guard = jaws_par::override_threads(threads);
            runs.push(serialized_run(kind, 3));
            traces.push(jsonl_trace_of_run(kind, 3));
            cluster_runs.push(serialized_cluster_run(kind, 3, 3));
            cluster_traces.push(jsonl_trace_of_cluster_run(kind, 3, 3));
        }
        for (what, v) in [
            ("report", &runs),
            ("trace", &traces),
            ("cluster report", &cluster_runs),
            ("cluster trace", &cluster_traces),
        ] {
            assert!(!v[0].is_empty(), "{}: empty {what}", kind.name());
            assert_eq!(v[0], v[1], "{}: {what} differs at 2 workers", kind.name());
            assert_eq!(v[0], v[2], "{}: {what} differs at 8 workers", kind.name());
        }
    }
}
