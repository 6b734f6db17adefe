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
//! coarse/fine path without gating.

#![forbid(unsafe_code)]

mod common;

use common::mask_wallclock_fields;
use jaws_obs::ObsSink;
use jaws_scheduler::{
    Batch, GatingConfig, Jaws, JawsConfig, MetricParams, Residency, Scheduler, SchedulerStats,
    UtilitySnapshot,
};
use jaws_sim::{
    build_db, build_scheduler, CachePolicyKind, Executor, RunReport, SchedulerKind, SimConfig,
};
use jaws_turbdb::{CostModel, DataMode, DbConfig, TurbDb};
use jaws_workload::{GenConfig, Job, Query, QueryId, Trace, TraceGenerator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a of the masked report of the run below. It changes only when
/// behaviour changes; re-pin it only with a reason stated in the change.
const GOLDEN_DIGEST: &str = "0dfb16a68f9fb924";

/// The same pin for LifeRaft₂ (contention order, one atom per batch).
const GOLDEN_DIGEST_LIFERAFT2: &str = "7f30d4f12ca6835c";

/// The same pin for JAWS₁ (two-level scheduling without gating).
const GOLDEN_DIGEST_JAWS1: &str = "e41ca954653fff74";

/// Admitted and refused gating edges, copied out of the graph.
type EdgeCounts = Arc<[AtomicU64; 2]>;

/// JAWS₂ behind a pass-through that copies the gating graph's edge counters
/// out after each job declaration, the only call that admits or refuses
/// edges.
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

/// Replays `trace` under `sched`, checks every query completed, and returns
/// the report with its masked digest.
fn replay_digest(db: TurbDb, sched: Box<dyn Scheduler>, trace: &Trace) -> (RunReport, String) {
    let mut ex = Executor::new(db, sched, SimConfig::default());
    let report = ex.run(trace);
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
        inner: Jaws::new(JawsConfig {
            run_len: 50,
            gating: GatingConfig {
                gate_timeout_ms: 180_000.0,
                ..GatingConfig::default()
            },
            ..JawsConfig::jaws2(params)
        }),
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
