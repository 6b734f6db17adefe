//! The single-node discrete-event executor.
//!
//! A cluster of one ([`crate::engine`]): one [`NodePipeline`] owning the one
//! Morton slab, so its part ids are the trace query ids. It differs from a
//! 1-node [`crate::ClusterExecutor`] only in what it is built from — a
//! caller-opened database and scheduler — and in the
//! [`Executor::declare_jobs`] override. All event-loop mechanics — arrivals,
//! pacing, think-time chains, prefetching, truncation — are the engine's.

use crate::engine::{Engine, Routing};
use crate::node::NodePipeline;
use crate::report::{self, RunReport};
use jaws_obs::ObsSink;
use jaws_scheduler::Scheduler;
use jaws_turbdb::TurbDb;
use jaws_workload::{QueryId, Trace};
use serde::{Deserialize, Serialize};

/// Executor knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated-time cap; runs report `truncated = true` when they hit it.
    pub max_sim_ms: f64,
    /// Re-poll interval while the scheduler is idle but holds gated work.
    pub idle_recheck_ms: f64,
    /// Enable trajectory-based prefetching (§VII): when the pipeline would
    /// otherwise idle, extrapolated next-step atoms of ordered jobs are read
    /// into the cache ahead of demand.
    pub prefetch: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_sim_ms: 1e10,
            idle_recheck_ms: 500.0,
            prefetch: false,
        }
    }
}

/// One simulated cluster node: a database plus a scheduler.
pub struct Executor {
    pipeline: NodePipeline,
    cfg: SimConfig,
    declared_jobs: Option<Vec<jaws_workload::Job>>,
    declarations_overridden: bool,
    response_log: Vec<(QueryId, f64)>,
    sink: ObsSink,
}

impl Executor {
    /// Builds an executor over an opened database and a scheduler.
    pub fn new(db: TurbDb, scheduler: Box<dyn Scheduler>, cfg: SimConfig) -> Self {
        Executor {
            pipeline: NodePipeline::new(db, scheduler, cfg.prefetch),
            cfg,
            declared_jobs: None,
            declarations_overridden: false,
            response_log: Vec::new(),
            sink: ObsSink::null(),
        }
    }

    /// Wires an observability sink through the engine, pipeline, scheduler
    /// and database. The default (no call) is the null sink: emission sites
    /// cost one branch and reports are bit-identical to an unwired build.
    pub fn set_recorder(&mut self, sink: ObsSink) {
        self.pipeline.set_recorder(sink.clone());
        self.sink = sink;
    }

    /// Per-query response times of the last run, in completion order — used
    /// by experiments that slice latency by query class (e.g. the CasJobs
    /// starvation comparison).
    pub fn response_log(&self) -> &[(QueryId, f64)] {
        &self.response_log
    }

    /// Speculative atom reads issued by the prefetcher.
    pub fn prefetch_reads(&self) -> u64 {
        self.pipeline.prefetch_reads()
    }

    /// Overrides the job declarations the scheduler sees: instead of each
    /// trace job at its arrival, these jobs are declared up front. Execution
    /// semantics (arrivals, precedence, think times) still follow the trace —
    /// only the scheduler's *knowledge* of job structure changes. Used to
    /// evaluate heuristic job identification (§IV-A) against ground truth.
    pub fn declare_jobs(&mut self, jobs: Vec<jaws_workload::Job>) {
        self.declared_jobs = Some(jobs);
    }

    /// Access to the database (post-run inspection).
    pub fn db(&self) -> &TurbDb {
        self.pipeline.db()
    }

    /// Access to the scheduler (post-run inspection).
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.pipeline.scheduler()
    }

    /// Replays `trace` to completion (or the simulated-time cap) and reports.
    ///
    /// # Panics
    ///
    /// Panics if the trace geometry does not match the database (timesteps or
    /// atom grid).
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        if let Some(decls) = self.declared_jobs.take() {
            self.declarations_overridden = true;
            for d in &decls {
                self.pipeline.job_declared(d, 0.0);
            }
        }
        let routing = Routing::new(
            self.pipeline.db().config().atoms_per_timestep(),
            1,
            crate::ReplicationConfig::disabled(),
        );
        let outcome = Engine::run(
            std::slice::from_mut(&mut self.pipeline),
            routing,
            &self.cfg,
            trace,
            !self.declarations_overridden,
            &crate::FailurePlan::none(),
            &self.sink,
        );
        self.response_log.extend(outcome.response_log);
        report::assemble(
            self.pipeline.scheduler().name().to_string(),
            self.pipeline.db().cache_policy_name().to_string(),
            outcome.totals,
            self.pipeline.db().cache_stats(),
            self.pipeline.db().disk_stats(),
            self.pipeline.scheduler().stats(),
            self.pipeline.scheduler().alpha(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_db, build_scheduler, CachePolicyKind, SchedulerKind};
    use jaws_scheduler::MetricParams;
    use jaws_turbdb::{CostModel, DataMode, DbConfig};
    use jaws_workload::{GenConfig, JobKind, TraceGenerator};

    fn small_db_config() -> DbConfig {
        DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: 5,
        }
    }

    fn run_kind(kind: SchedulerKind, seed: u64) -> RunReport {
        let trace = TraceGenerator::new(GenConfig::small(seed)).generate();
        let db = build_db(
            small_db_config(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            16,
            CachePolicyKind::LruK,
        );
        let sched = build_scheduler(kind, MetricParams::paper_testbed(), 25, 10_000.0);
        let mut ex = Executor::new(db, sched, SimConfig::default());
        ex.run(&trace)
    }

    #[test]
    fn every_scheduler_drains_the_trace() {
        let trace = TraceGenerator::new(GenConfig::small(5)).generate();
        let total = trace.query_count() as u64;
        for kind in SchedulerKind::evaluation_set() {
            let r = run_kind(kind, 5);
            assert_eq!(
                r.queries_completed,
                total,
                "{} left queries behind",
                kind.name()
            );
            assert!(!r.truncated, "{} truncated", kind.name());
            assert_eq!(r.jobs_completed, trace.jobs.len() as u64);
            assert!(r.throughput_qps > 0.0);
            assert!(r.mean_response_ms > 0.0);
        }
    }

    #[test]
    fn batch_schedulers_beat_noshare_on_contended_traces() {
        let noshare = run_kind(SchedulerKind::NoShare, 7);
        let jaws2 = run_kind(SchedulerKind::Jaws2 { batch_k: 10 }, 7);
        assert!(
            jaws2.throughput_qps > noshare.throughput_qps,
            "JAWS {:.3} q/s vs NoShare {:.3} q/s",
            jaws2.throughput_qps,
            noshare.throughput_qps
        );
    }

    #[test]
    fn shared_scans_reduce_disk_reads() {
        let noshare = run_kind(SchedulerKind::NoShare, 9);
        let liferaft2 = run_kind(SchedulerKind::LifeRaft2, 9);
        assert!(
            liferaft2.disk.reads < noshare.disk.reads,
            "LifeRaft {} reads vs NoShare {}",
            liferaft2.disk.reads,
            noshare.disk.reads
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = run_kind(SchedulerKind::Jaws2 { batch_k: 10 }, 3);
        let b = run_kind(SchedulerKind::Jaws2 { batch_k: 10 }, 3);
        assert_eq!(a.queries_completed, b.queries_completed);
        assert_eq!(a.disk.reads, b.disk.reads);
        assert!((a.makespan_ms - b.makespan_ms).abs() < 1e-6);
        assert!((a.throughput_qps - b.throughput_qps).abs() < 1e-9);
    }

    #[test]
    fn response_times_are_measured_from_submission() {
        // A single one-query job arriving at t=1000 must have response time
        // roughly its own service time, not counted from t=0.
        use jaws_morton::MortonKey;
        use jaws_workload::{Footprint, Job, Query, QueryOp, Trace};
        let q = Query {
            id: 1,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs([(MortonKey(0), 100u32)]),
        };
        let trace = Trace::new(
            8,
            4,
            vec![Job {
                id: 1,
                user: 0,
                kind: JobKind::Batched,
                campaign: 1,
                queries: vec![q],
                arrival_ms: 1000.0,
                think_ms: 0.0,
            }],
        );
        let db = build_db(
            small_db_config(),
            CostModel {
                seek_ms: 10.0,
                atom_read_ms: 100.0,
                position_compute_ms: 1.0,
                batch_dispatch_ms: 0.0,
                stencil_neighbors: 0,
            },
            DataMode::Virtual,
            16,
            CachePolicyKind::Lru,
        );
        let sched = build_scheduler(
            SchedulerKind::LifeRaft2,
            MetricParams {
                atom_read_ms: 100.0,
                position_compute_ms: 1.0,
                atoms_per_timestep: 64,
            },
            25,
            10_000.0,
        );
        let mut ex = Executor::new(db, sched, SimConfig::default());
        let r = ex.run(&trace);
        // Service: seek 10 + read 100 + compute 100 = 210 ms.
        assert!(
            (r.mean_response_ms - 210.0).abs() < 1e-6,
            "{}",
            r.mean_response_ms
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the 48-bit part budget")]
    fn query_ids_beyond_the_part_budget_are_rejected() {
        use jaws_morton::MortonKey;
        use jaws_workload::{Footprint, Job, Query, QueryOp, Trace};
        let q = Query {
            id: 1 << 48,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs([(MortonKey(0), 10u32)]),
        };
        let job = Job {
            id: 1,
            user: 0,
            kind: JobKind::Batched,
            campaign: 1,
            queries: vec![q],
            arrival_ms: 0.0,
            think_ms: 0.0,
        };
        let db = build_db(
            small_db_config(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            16,
            CachePolicyKind::Lru,
        );
        let sched = build_scheduler(
            SchedulerKind::NoShare,
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        Executor::new(db, sched, SimConfig::default()).run(&Trace::new(8, 4, vec![job]));
    }

    #[test]
    fn time_cap_truncates_gracefully() {
        // Truncation retires every scheduler's pending work
        // (`Scheduler::retire_pending`), queued and gated alike. Bursts
        // 20× denser than `small` leave every scheduler a backlog at the
        // cap, so the check is not vacuous.
        let trace = TraceGenerator::new(GenConfig {
            mean_burst_gap_ms: 1_000.0,
            intra_burst_gap_ms: 50.0,
            ..GenConfig::small(11)
        })
        .generate();
        let kinds = SchedulerKind::evaluation_set().into_iter().chain([
            SchedulerKind::CasJobs {
                threshold_ms: 2_000,
            },
            SchedulerKind::Qos { stretch_x10: 30 },
        ]);
        for kind in kinds {
            let db = build_db(
                small_db_config(),
                CostModel::paper_testbed(),
                DataMode::Virtual,
                16,
                CachePolicyKind::LruK,
            );
            let sched = build_scheduler(kind, MetricParams::paper_testbed(), 25, 10_000.0);
            let mut ex = Executor::new(
                db,
                sched,
                SimConfig {
                    max_sim_ms: 10_000.0,
                    ..SimConfig::default()
                },
            );
            let r = ex.run(&trace);
            let name = kind.name();
            assert!(r.truncated && !ex.scheduler().has_pending(), "{name}");
            assert!(r.queries_completed < trace.query_count() as u64, "{name}");
        }
    }

    #[test]
    fn urc_cache_gets_scheduler_knowledge() {
        let trace = TraceGenerator::new(GenConfig::small(13)).generate();
        let db = build_db(
            small_db_config(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            8,
            CachePolicyKind::Urc,
        );
        let sched = build_scheduler(
            SchedulerKind::Jaws2 { batch_k: 8 },
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        let mut ex = Executor::new(db, sched, SimConfig::default());
        let r = ex.run(&trace);
        assert_eq!(r.cache_policy, "URC");
        assert!(r.cache.hits > 0, "URC never hit");
        assert!(!r.truncated);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::setup::{build_db, build_scheduler, CachePolicyKind, SchedulerKind};
    use jaws_morton::MortonKey;
    use jaws_scheduler::MetricParams;
    use jaws_turbdb::{CostModel, DataMode, DbConfig};
    use jaws_workload::{Footprint, Job, JobKind, Query, QueryOp, Trace};

    /// A slow single tracking chain: plenty of idle time for the prefetcher.
    fn chain_trace() -> Trace {
        let q = |id: u64, ts: u32, x: u32| Query {
            id,
            user: 0,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            footprint: Footprint::from_pairs([(MortonKey::from_coords(x, 1, 1), 200u32)]),
        };
        Trace::new(
            8,
            4,
            vec![Job {
                id: 1,
                user: 0,
                kind: JobKind::Ordered,
                campaign: 1,
                // Steady +1 drift in x, one timestep per query.
                queries: (0..6).map(|i| q(i + 1, i as u32, (i as u32) % 4)).collect(),
                arrival_ms: 0.0,
                think_ms: 5_000.0,
            }],
        )
    }

    fn run_chain(prefetch: bool) -> (RunReport, u64) {
        let db = build_db(
            DbConfig {
                grid_side: 32,
                atom_side: 8,
                ghost: 2,
                timesteps: 8,
                dt: 0.002,
                seed: 9,
            },
            CostModel::paper_testbed(),
            DataMode::Virtual,
            16,
            CachePolicyKind::LruK,
        );
        let sched = build_scheduler(
            SchedulerKind::Jaws2 { batch_k: 8 },
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        let mut ex = Executor::new(
            db,
            sched,
            SimConfig {
                prefetch,
                ..SimConfig::default()
            },
        );
        let r = ex.run(&chain_trace());
        (r, ex.prefetch_reads())
    }

    #[test]
    fn prefetching_issues_speculative_reads_and_cuts_latency() {
        let (base, base_pf) = run_chain(false);
        let (pf, pf_reads) = run_chain(true);
        assert_eq!(base_pf, 0);
        assert!(pf_reads > 0, "predictor never fired");
        assert_eq!(pf.queries_completed, base.queries_completed);
        // Later chain queries hit prefetched atoms: cache hits rise and mean
        // response time drops.
        assert!(
            pf.cache.hits > base.cache.hits,
            "prefetch hits {} vs {}",
            pf.cache.hits,
            base.cache.hits
        );
        assert!(
            pf.mean_response_ms < base.mean_response_ms,
            "prefetch rt {:.1} vs base {:.1}",
            pf.mean_response_ms,
            base.mean_response_ms
        );
    }

    #[test]
    fn prefetching_never_loses_queries() {
        let (pf, _) = run_chain(true);
        assert!(!pf.truncated);
        assert_eq!(pf.jobs_completed, 1);
    }
}
