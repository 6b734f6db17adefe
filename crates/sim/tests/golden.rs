//! Golden digest: pins the masked report of one small JAWS₂ replay, so a
//! change to the engine, the scheduler, gating or the cache cannot move
//! behaviour without this test noticing. The run has the `paper_like` trace
//! shape on the paper's geometry (virtual data, URC cache, the paper's gate
//! timeout and run length), cut to a few dozen jobs so a debug build replays
//! it quickly. It exercises all three gating paths — admitted edges, refused
//! edges and forced releases — so the pin covers each, and it overflows its
//! URC cache, so URC victim choice is pinned too. Its refusals are all
//! of partners already scheduled; `paper_like` traces produce no cycle
//! refusals, which the gating property test covers instead.
//!
//! The same trace is also pinned under LifeRaft₂ and JAWS₁, the schedulers
//! that read the delta core through `best_atom` and through the two-level
//! coarse/fine path without gating. The JAWS₂ run's JSONL observability
//! trace is pinned too, so the event stream of a single node cannot move
//! silently either.
//!
//! A small 4-node cluster is pinned in three variants — healthy static
//! slabs, one seeded crash, and the crash under hot-atom replication — by
//! the masked report plus the completion log, so fan-out, crash re-dispatch
//! and replica routing are under a committed digest as well. Replication
//! without a crash is pinned the same way, and the crash-under-replication
//! run's JSONL trace is pinned too, so the part routing, replica and re-dispatch
//! event stream of a cluster cannot move silently either. The crash under
//! replication is pinned once more behind LRU-K caches, so LRU-K's history
//! and victim choice are under a digest too.
//!
//! The golden matrix pins the rest, one committed row per configuration:
//! every scheduler × cache policy on one node, prefetching under JAWS₂ and
//! LifeRaft₂, and every scheduler on the crash-under-replication cluster. A
//! change to one scheduler or one policy fails only that one's rows, and the
//! failure prints the whole recomputed table.

#![forbid(unsafe_code)]
#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "test code: a failed expectation is a failed test"
)]

mod common;

use common::mask_wallclock_fields;
use jaws_obs::{JsonlRecorder, ObsSink};
use jaws_scheduler::{
    Batch, Jaws, JawsConfig, MetricParams, Residency, Scheduler, SchedulerStats, UtilitySnapshot,
};
use jaws_sim::{
    build_db, build_scheduler, CachePolicyKind, ClusterConfig, ClusterExecutor, ClusterReport,
    FailurePlan, ReplicationConfig, RunReport, SchedulerKind, SimConfig,
};
use jaws_turbdb::{CostModel, DataMode, DbConfig, TurbDb};
use jaws_workload::{GenConfig, Job, Query, QueryId, Trace, TraceGenerator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a of the masked report of the run below. It changes only when
/// behaviour changes; re-pin it only with a reason stated in the change.
const GOLDEN_DIGEST: &str = "0dfb16a68f9fb924";

/// The same pin for LifeRaft₂ (contention order, one atom per batch).
const GOLDEN_DIGEST_LIFERAFT2: &str = "7f30d4f12ca6835c";

/// The same pin for JAWS₁ (two-level scheduling without gating).
const GOLDEN_DIGEST_JAWS1: &str = "e41ca954653fff74";

/// FNV-1a of the JSONL trace the JAWS₂ run emits.
const GOLDEN_JSONL_DIGEST_JAWS2: &str = "25366c030a11928a";

/// The 4-node cluster pins: masked report plus completion log.
const GOLDEN_CLUSTER_HEALTHY: &str = "53ba5573378a1983";

/// The same cluster with node 1 crashing mid-replay.
const GOLDEN_CLUSTER_CRASH: &str = "cc52a4aaf5e02410";

/// The crash run under hot-atom replication.
const GOLDEN_CLUSTER_CRASH_REPLICATED: &str = "dca32d5e991f0c67";

/// The crash run under replication with LRU-K caches in place of URC.
const GOLDEN_CLUSTER_LRUK_CRASH_REPLICATED: &str = "615faf0bb854d275";

/// The same cluster under hot-atom replication with no failure.
const GOLDEN_CLUSTER_REPLICATED: &str = "20fdbf7d4996613c";

/// FNV-1a of the JSONL trace the crash run under replication emits.
const GOLDEN_JSONL_CLUSTER_CRASH_REPLICATED: &str = "6dcaa251cf0d8bfa";

/// Admitted and refused gating edges, plus the queries the graph still
/// tracks, copied out of the graph.
type EdgeCounts = Arc<[AtomicU64; 3]>;

/// JAWS₂ behind a pass-through that copies the gating graph's edge counters
/// out after each job declaration, the only call that admits or refuses
/// edges, and its tracked-query count after each completion, the call that
/// retires a finished job.
struct EdgeProbe {
    inner: Jaws,
    edges: EdgeCounts,
}

impl Scheduler for EdgeProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn job_declared(&mut self, job: &Job, now_ms: f64) {
        self.inner.job_declared(job, now_ms);
        let g = self.inner.gating();
        self.edges[0].store(g.admitted_edges(), Ordering::Relaxed);
        self.edges[1].store(g.refused_edges(), Ordering::Relaxed);
    }

    fn query_available(&mut self, query: &Query, now_ms: f64) {
        self.inner.query_available(query, now_ms);
    }

    fn next_batch(&mut self, now_ms: f64, residency: &dyn Residency) -> Option<Batch> {
        self.inner.next_batch(now_ms, residency)
    }

    fn on_query_complete(&mut self, query: QueryId, response_ms: f64, now_ms: f64) {
        self.inner.on_query_complete(query, response_ms, now_ms);
        let tracked = self.inner.gating().tracked_queries() as u64;
        self.edges[2].store(tracked, Ordering::Relaxed);
    }

    fn query_withdrawn(&mut self, query: QueryId, now_ms: f64) {
        self.inner.query_withdrawn(query, now_ms);
    }

    fn retire_pending(&mut self, now_ms: f64) {
        self.inner.retire_pending(now_ms);
    }

    fn has_pending(&self) -> bool {
        self.inner.has_pending()
    }

    fn take_run_boundary(&mut self) -> bool {
        self.inner.take_run_boundary()
    }

    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }

    fn utility_snapshot(&mut self, residency: &dyn Residency) -> UtilitySnapshot {
        self.inner.utility_snapshot(residency)
    }

    fn set_recorder(&mut self, sink: ObsSink) {
        self.inner.set_recorder(sink);
    }

    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The 40-job `paper_like` trace every pin replays.
fn small_trace() -> Trace {
    TraceGenerator::new(GenConfig {
        jobs: 40,
        ..GenConfig::paper_like(2009_0720)
    })
    .generate()
}

/// The paper's geometry on virtual data behind a 256-atom URC cache, plus
/// the matching Eq. 1 cost constants.
fn small_db() -> (TurbDb, MetricParams) {
    let db_cfg = DbConfig::paper_sample();
    let cost = CostModel::paper_testbed();
    let db = build_db(db_cfg, cost, DataMode::Virtual, 256, CachePolicyKind::Urc);
    let params = MetricParams {
        atom_read_ms: cost.atom_read_ms,
        position_compute_ms: cost.position_compute_ms,
        atoms_per_timestep: db_cfg.atoms_per_timestep(),
    };
    (db, params)
}

/// JAWS₂ as the golden run configures it: the paper's gate timeout and run
/// length.
fn golden_jaws2(params: MetricParams) -> Jaws {
    Jaws::new(JawsConfig {
        run_len: 50,
        gate_timeout_ms: 180_000.0,
        ..JawsConfig::jaws2(params)
    })
}

/// One node: `db` under `sched`.
fn one_node(db: TurbDb, sched: Box<dyn Scheduler>, sim: SimConfig) -> ClusterExecutor {
    ClusterExecutor::from_nodes(
        vec![(db, sched)],
        sim,
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    )
}

/// Replays `trace` under `sched`, checks every query completed, and returns
/// the report with its masked digest.
fn replay_digest(db: TurbDb, sched: Box<dyn Scheduler>, trace: &Trace) -> (RunReport, String) {
    let mut ex = one_node(db, sched, SimConfig::default());
    let report = ex.run(trace).aggregate;
    assert_eq!(
        ex.response_log().len(),
        trace.query_count(),
        "every query completes"
    );
    let masked = mask_wallclock_fields(&serde_json::to_string(&report).expect("report serializes"));
    let digest = fnv1a(masked.as_bytes());
    (report, digest)
}

#[test]
fn small_paper_like_jaws2_run_matches_its_golden_digest() {
    let trace = small_trace();
    let (db, params) = small_db();
    let edges = EdgeCounts::default();
    let sched = EdgeProbe {
        inner: golden_jaws2(params),
        edges: Arc::clone(&edges),
    };
    let (report, digest) = replay_digest(db, Box::new(sched), &trace);

    let admitted = edges[0].load(Ordering::Relaxed);
    let refused = edges[1].load(Ordering::Relaxed);
    let forced = report.scheduler_stats.forced_releases;
    assert!(
        admitted > 0 && refused > 0 && forced > 0,
        "every gating path must be exercised: {admitted} admitted, {refused} refused, \
         {forced} forced releases"
    );
    assert!(
        report.cache.evictions > 0,
        "URC victim choice must be under the pin"
    );
    assert_eq!(
        edges[2].load(Ordering::Relaxed),
        0,
        "a drained replay must leave no query in the gating graph"
    );
    assert_eq!(digest, GOLDEN_DIGEST, "masked report moved");
}

#[test]
fn small_paper_like_liferaft2_run_matches_its_golden_digest() {
    let trace = small_trace();
    let (db, params) = small_db();
    let sched = build_scheduler(SchedulerKind::LifeRaft2, params, 50, 180_000.0);
    let (_, digest) = replay_digest(db, sched, &trace);
    assert_eq!(digest, GOLDEN_DIGEST_LIFERAFT2, "masked report moved");
}

#[test]
fn small_paper_like_jaws1_run_matches_its_golden_digest() {
    let trace = small_trace();
    let (db, params) = small_db();
    let sched = build_scheduler(SchedulerKind::Jaws1 { batch_k: 15 }, params, 50, 180_000.0);
    let (_, digest) = replay_digest(db, sched, &trace);
    assert_eq!(digest, GOLDEN_DIGEST_JAWS1, "masked report moved");
}

#[test]
fn small_paper_like_jaws2_jsonl_trace_matches_its_golden_digest() {
    let trace = small_trace();
    let (db, params) = small_db();
    let rec = Arc::new(Mutex::new(JsonlRecorder::new()));
    let mut ex = one_node(db, Box::new(golden_jaws2(params)), SimConfig::default());
    ex.set_recorder(ObsSink::new(rec.clone()));
    ex.run(&trace);
    let rec = rec.lock().expect("recorder mutex unpoisoned");
    assert!(!rec.contents().is_empty(), "the run emitted no records");
    assert_eq!(
        fnv1a(rec.contents().as_bytes()),
        GOLDEN_JSONL_DIGEST_JAWS2,
        "JSONL trace moved"
    );
}

/// The cluster pins' trace: a `small` trace with arrivals compressed 20×, so
/// every node holds queued work when node 1 crashes.
fn cluster_trace() -> Trace {
    TraceGenerator::new(GenConfig::small(2009_0720))
        .generate()
        .speedup(20.0)
}

/// A 4-node JAWS₂ cluster on the small test geometry behind 16-atom URC
/// caches.
fn cluster_cfg(failures: FailurePlan, replication: ReplicationConfig) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        db: DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: 5,
        },
        cost: CostModel::paper_testbed(),
        scheduler: SchedulerKind::Jaws2 { batch_k: 15 },
        cache_policy: CachePolicyKind::Urc,
        cache_atoms_per_node: 16,
        run_len: 25,
        gate_timeout_ms: 10_000.0,
        sim: SimConfig::default(),
        failures,
        replication,
    }
}

/// Node 1 crashes halfway through the trace's arrival span, its slab
/// falling to the lowest live node.
fn crash_plan(trace: &Trace) -> FailurePlan {
    let last_arrival = trace
        .jobs
        .iter()
        .map(|j| j.arrival_ms)
        .fold(0.0f64, f64::max);
    FailurePlan::new(17).crash_at(0.5 * last_arrival, 1)
}

/// Replays the cluster trace, checks every query completed exactly once, and
/// returns the report with the digest of its masked JSON plus completion log.
fn cluster_digest(cfg: ClusterConfig) -> (ClusterReport, String) {
    let trace = cluster_trace();
    let mut ex = ClusterExecutor::new(cfg);
    let report = ex.run(&trace);
    let mut ids: Vec<QueryId> = ex.response_log().iter().map(|&(q, _)| q).collect();
    ids.sort_unstable();
    let mut expect: Vec<QueryId> = trace.queries().map(|(_, q)| q.id).collect();
    expect.sort_unstable();
    assert_eq!(ids, expect, "every query completes exactly once");
    let masked = mask_wallclock_fields(&serde_json::to_string(&report).expect("report serializes"));
    let log = serde_json::to_string(ex.response_log()).expect("log serializes");
    let digest = fnv1a(format!("{masked}\n{log}").as_bytes());
    (report, digest)
}

#[test]
fn small_cluster_runs_match_their_golden_digests() {
    let trace = cluster_trace();
    let (healthy, digest) = cluster_digest(cluster_cfg(
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    ));
    assert!(healthy.degraded.is_none() && healthy.replication.is_none());
    assert_eq!(digest, GOLDEN_CLUSTER_HEALTHY, "healthy cluster moved");

    let (crashed, digest) = cluster_digest(cluster_cfg(
        crash_plan(&trace),
        ReplicationConfig::disabled(),
    ));
    let degraded = crashed.degraded.as_ref().expect("degraded section");
    assert!(
        degraded.redispatched_parts > 0,
        "node 1 held no work at the crash"
    );
    assert_eq!(digest, GOLDEN_CLUSTER_CRASH, "crash run moved");

    let (replicated, digest) =
        cluster_digest(cluster_cfg(crash_plan(&trace), ReplicationConfig::on()));
    let rep = replicated.replication.as_ref().expect("replica summary");
    assert!(
        rep.promotions > 0 && rep.replica_routed > 0,
        "no replica was promoted or routed to"
    );
    let degraded = replicated.degraded.as_ref().expect("degraded section");
    assert!(degraded.redispatched_parts > 0);
    assert_eq!(
        digest, GOLDEN_CLUSTER_CRASH_REPLICATED,
        "replicated crash run moved"
    );
}

#[test]
fn small_cluster_lruk_crash_under_replication_matches_its_golden_digest() {
    let trace = cluster_trace();
    let mut cfg = cluster_cfg(crash_plan(&trace), ReplicationConfig::on());
    cfg.cache_policy = CachePolicyKind::LruK;
    let (report, digest) = cluster_digest(cfg);
    assert!(report.degraded.is_some() && report.replication.is_some());
    assert_eq!(
        digest, GOLDEN_CLUSTER_LRUK_CRASH_REPLICATED,
        "LRU-K replicated crash run moved"
    );
}

#[test]
fn small_cluster_replication_without_failure_matches_its_golden_digest() {
    let (report, digest) =
        cluster_digest(cluster_cfg(FailurePlan::none(), ReplicationConfig::on()));
    assert!(report.degraded.is_none());
    let rep = report.replication.as_ref().expect("replica summary");
    assert!(
        rep.promotions > 0 && rep.replica_routed > 0,
        "no replica was promoted or routed to"
    );
    assert_eq!(digest, GOLDEN_CLUSTER_REPLICATED, "replicated run moved");
}

#[test]
fn small_cluster_crash_under_replication_jsonl_trace_matches_its_golden_digest() {
    let trace = cluster_trace();
    let rec = Arc::new(Mutex::new(JsonlRecorder::new()));
    let mut ex = ClusterExecutor::new(cluster_cfg(crash_plan(&trace), ReplicationConfig::on()));
    ex.set_recorder(ObsSink::new(rec.clone()));
    ex.run(&trace);
    let rec = rec.lock().expect("recorder mutex unpoisoned");
    let jsonl = rec.contents();
    for kind in [
        "\"NodeFailed\"",
        "\"PartRedispatched\"",
        "\"ReplicaRouted\"",
    ] {
        assert!(jsonl.contains(kind), "the trace has no {kind} record");
    }
    assert_eq!(
        fnv1a(jsonl.as_bytes()),
        GOLDEN_JSONL_CLUSTER_CRASH_REPLICATED,
        "JSONL trace moved"
    );
}

/// Every scheduler the factory builds, at the parameters the experiments use.
const MATRIX_SCHEDULERS: [SchedulerKind; 7] = [
    SchedulerKind::NoShare,
    SchedulerKind::LifeRaft1,
    SchedulerKind::LifeRaft2,
    SchedulerKind::Jaws1 { batch_k: 15 },
    SchedulerKind::Jaws2 { batch_k: 15 },
    SchedulerKind::CasJobs {
        threshold_ms: 2_000,
    },
    SchedulerKind::Qos { stretch_x10: 30 },
];

/// Every cache policy the factory builds.
const MATRIX_POLICIES: [CachePolicyKind; 4] = [
    CachePolicyKind::Lru,
    CachePolicyKind::LruK,
    CachePolicyKind::Slru,
    CachePolicyKind::Urc,
];

/// The golden matrix: one `(row, digest)` pair per configuration, each the
/// FNV-1a of the masked report plus the completion log. Re-pin a row only
/// with a reason stated in the change.
const GOLDEN_MATRIX: &[(&str, &str)] = &[
    ("1 node NoShare Lru", "b7b0d5ed0ac797fc"),
    ("1 node NoShare LruK", "97882dc9026af0a7"),
    ("1 node NoShare Slru", "0a636f7229f1b64d"),
    ("1 node NoShare Urc", "89820299d46b7e43"),
    ("1 node LifeRaft_1 Lru", "f023e3d2e31a73e1"),
    ("1 node LifeRaft_1 LruK", "4ac677b135e2362c"),
    ("1 node LifeRaft_1 Slru", "449939ec0e68b00c"),
    ("1 node LifeRaft_1 Urc", "a7bdad2e91d0265c"),
    ("1 node LifeRaft_2 Lru", "f4536c038e92279e"),
    ("1 node LifeRaft_2 LruK", "b832bf2b70f3fa13"),
    ("1 node LifeRaft_2 Slru", "7a3c49544e8f0c1d"),
    ("1 node LifeRaft_2 Urc", "c3739ea225b52145"),
    ("1 node JAWS_1 Lru", "27512b1d81dc4b4b"),
    ("1 node JAWS_1 LruK", "1262a277e0a307e7"),
    ("1 node JAWS_1 Slru", "1460ee2448f1b095"),
    ("1 node JAWS_1 Urc", "c37dce56b6b7511d"),
    ("1 node JAWS_2 Lru", "1bb77b786706973b"),
    ("1 node JAWS_2 LruK", "8702d21589feec82"),
    ("1 node JAWS_2 Slru", "1d068f7f92129afc"),
    ("1 node JAWS_2 Urc", "41bd16d3345881ca"),
    ("1 node CasJobs Lru", "15f6bcad9922b36e"),
    ("1 node CasJobs LruK", "e2331a2dd182913d"),
    ("1 node CasJobs Slru", "18e8e436e43180ee"),
    ("1 node CasJobs Urc", "40478e392085f529"),
    ("1 node JAWS-QoS Lru", "7daf8c656d8c02b5"),
    ("1 node JAWS-QoS LruK", "a92960dfa5644186"),
    ("1 node JAWS-QoS Slru", "d34fb135aecac545"),
    ("1 node JAWS-QoS Urc", "09adac695552f298"),
    ("1 node JAWS_2 Urc prefetch", "e26e72f0276d031d"),
    ("1 node LifeRaft_2 Urc prefetch", "d7223c10abe897de"),
    ("4 nodes crash+replication NoShare Urc", "cb0c8171fd3daf7d"),
    (
        "4 nodes crash+replication LifeRaft_1 Urc",
        "8f5c7f0d6ac115a4",
    ),
    (
        "4 nodes crash+replication LifeRaft_2 Urc",
        "4312ca78dee149c8",
    ),
    ("4 nodes crash+replication JAWS_1 Urc", "256858a0c7a59577"),
    ("4 nodes crash+replication JAWS_2 Urc", "dca32d5e991f0c67"),
    ("4 nodes crash+replication CasJobs Urc", "af726ea18a8ff96a"),
    ("4 nodes crash+replication JAWS-QoS Urc", "c09a9106b992e2a0"),
];

/// FNV-1a of a run's masked report JSON plus its completion log.
fn report_and_log_digest(report: &impl serde::Serialize, log: &[(QueryId, f64)]) -> String {
    let masked = mask_wallclock_fields(&serde_json::to_string(report).expect("report serializes"));
    let log = serde_json::to_string(log).expect("log serializes");
    fnv1a(format!("{masked}\n{log}").as_bytes())
}

/// One node on the paper-like trace under `kind` and `policy`.
fn single_node_row(
    trace: &Trace,
    kind: SchedulerKind,
    policy: CachePolicyKind,
    prefetch: bool,
) -> String {
    let db_cfg = DbConfig::paper_sample();
    let cost = CostModel::paper_testbed();
    let db = build_db(db_cfg, cost, DataMode::Virtual, 256, policy);
    let params = MetricParams {
        atom_read_ms: cost.atom_read_ms,
        position_compute_ms: cost.position_compute_ms,
        atoms_per_timestep: db_cfg.atoms_per_timestep(),
    };
    let sched = build_scheduler(kind, params, 50, 180_000.0);
    let sim = SimConfig {
        prefetch,
        ..SimConfig::default()
    };
    let mut ex = one_node(db, sched, sim);
    let report = ex.run(trace).aggregate;
    assert_eq!(
        ex.response_log().len(),
        trace.query_count(),
        "every query completes"
    );
    report_and_log_digest(&report, ex.response_log())
}

/// Recomputes every row of the golden matrix, in table order.
fn golden_matrix() -> Vec<(String, String)> {
    let mut rows = Vec::new();
    let trace = small_trace();
    for kind in MATRIX_SCHEDULERS {
        for policy in MATRIX_POLICIES {
            let digest = single_node_row(&trace, kind, policy, false);
            rows.push((format!("1 node {} {policy:?}", kind.name()), digest));
        }
    }
    for kind in [
        SchedulerKind::Jaws2 { batch_k: 15 },
        SchedulerKind::LifeRaft2,
    ] {
        let digest = single_node_row(&trace, kind, CachePolicyKind::Urc, true);
        rows.push((format!("1 node {} Urc prefetch", kind.name()), digest));
    }
    let ctrace = cluster_trace();
    for kind in MATRIX_SCHEDULERS {
        let mut cfg = cluster_cfg(crash_plan(&ctrace), ReplicationConfig::on());
        cfg.scheduler = kind;
        let (_, digest) = cluster_digest(cfg);
        rows.push((
            format!("4 nodes crash+replication {} Urc", kind.name()),
            digest,
        ));
    }
    rows
}

/// Every scheduler × cache policy on one node, prefetching under JAWS₂ and
/// LifeRaft₂, and every scheduler on the crash-under-replication cluster,
/// each under its own committed digest.
#[test]
fn golden_matrix_matches_its_committed_digests() {
    let rows = golden_matrix();
    let table: String = rows
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", \"{digest}\"),\n"))
        .collect();
    let mut digests: Vec<&str> = rows.iter().map(|(_, d)| d.as_str()).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(
        digests.len(),
        rows.len(),
        "two rows share a digest, so the matrix cannot tell them apart:\n{table}"
    );
    let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = GOLDEN_MATRIX.iter().map(|&(n, _)| n).collect();
    assert_eq!(
        names, pinned,
        "the matrix's rows changed; recomputed table:\n{table}"
    );
    let moved: Vec<&str> = rows
        .iter()
        .zip(GOLDEN_MATRIX)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "rows moved: {moved:?}; recomputed table:\n{table}"
    );
}
