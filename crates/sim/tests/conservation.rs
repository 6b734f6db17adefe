//! Conservation over composed configurations: whatever mix of node count,
//! scripted failures, hot-atom replication, truncation and prefetching a
//! replay runs under, every trace query completes at most once, nothing but
//! trace queries completes, an uncapped replay completes every query exactly
//! once, and a capped one reports itself truncated with a completion count
//! that matches its log. No part may be lost across a crash, a re-dispatch or
//! a replica withdrawal. The engine itself asserts the uncapped half at the
//! end of every replay, so a lost completion fails the run that lost it.
//!
//! CI runs this with `PROPTEST_CASES=1024`.

#![forbid(unsafe_code)]

use jaws_scheduler::{Batch, MetricParams, Residency, Scheduler, SchedulerStats, UtilitySnapshot};
use jaws_sim::{
    build_db, build_scheduler, CachePolicyKind, ClusterConfig, ClusterExecutor, FailurePlan,
    ReplicationConfig, SchedulerKind, SimConfig,
};
use jaws_turbdb::{CostModel, DataMode, DbConfig};
use jaws_workload::{GenConfig, Job, Query, QueryId, Trace, TraceGenerator};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A tiny `small`-shaped trace with arrivals compressed 20×, so nodes hold
/// queued work when a failure fires.
fn tiny_trace(seed: u64) -> Trace {
    TraceGenerator::new(GenConfig {
        jobs: 10,
        ..GenConfig::small(seed)
    })
    .generate()
    .speedup(20.0)
}

/// The 32³ database the tiny traces run against.
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

fn scheduler(pick: u8) -> SchedulerKind {
    match pick {
        0 => SchedulerKind::Jaws2 { batch_k: 8 },
        1 => SchedulerKind::LifeRaft2,
        _ => SchedulerKind::NoShare,
    }
}

/// The scripted failures of one case: `kind` 0 is none, 1 a crash, 2 a
/// slowdown, 3 both. A one-node cluster has no survivor, so its crash is
/// dropped.
fn failure_plan(
    kind: u8,
    nodes: u32,
    at_ms: f64,
    node_raw: u32,
    survivor_raw: u32,
    factor: f64,
) -> FailurePlan {
    let node = node_raw % nodes;
    let mut plan = FailurePlan::new(u64::from(kind) * 31 + u64::from(node_raw));
    if (kind == 1 || kind == 3) && nodes > 1 {
        let survivor = survivor_raw % (nodes + 1);
        plan = if survivor == nodes || survivor == node {
            plan.crash_at(at_ms, node)
        } else {
            plan.crash_with_survivor(at_ms, node, survivor)
        };
    }
    if kind >= 2 {
        plan = plan.slowdown_at(0.5 * at_ms, (node + 1) % nodes, factor);
    }
    plan
}

proptest! {
    #[test]
    fn every_query_completes_at_most_once_under_any_composition(
        seed in 0u64..10_000,
        nodes in 1u32..=8,
        sched in 0u8..3,
        failures in 0u8..4,
        fail_node in 0u32..8,
        survivor in 0u32..9,
        fail_frac in 0.05f64..0.95,
        factor in 1.5f64..8.0,
        replicate in 0u8..2,
        cap_frac in 0.1f64..0.9,
        capped in 0u8..2,
        prefetch in 0u8..2,
    ) {
        let trace = tiny_trace(seed);
        let last_arrival = trace
            .jobs
            .iter()
            .map(|j| j.arrival_ms)
            .fold(0.0f64, f64::max);
        // A cap before the last arrival leaves that job unsubmitted, so a
        // capped run can never drain the trace.
        let capped = capped == 1 && last_arrival > 0.0;
        let max_sim_ms = if capped {
            cap_frac * last_arrival
        } else {
            SimConfig::default().max_sim_ms
        };
        let cfg = ClusterConfig {
            nodes,
            db: db_config(),
            cost: CostModel::paper_testbed(),
            scheduler: scheduler(sched),
            cache_policy: CachePolicyKind::LruK,
            cache_atoms_per_node: 8,
            run_len: 10,
            gate_timeout_ms: 2_000.0,
            sim: SimConfig {
                max_sim_ms,
                prefetch: prefetch == 1,
            },
            failures: failure_plan(
                failures,
                nodes,
                fail_frac * last_arrival,
                fail_node,
                survivor,
                factor,
            ),
            replication: if replicate == 1 {
                ReplicationConfig::on()
            } else {
                ReplicationConfig::disabled()
            },
        };
        let mut ex = ClusterExecutor::new(cfg);
        let report = ex.run(&trace).aggregate;

        let mut seen: BTreeMap<QueryId, u32> = trace.queries().map(|(_, q)| (q.id, 0)).collect();
        for &(id, rt) in ex.response_log() {
            let count = seen.get_mut(&id);
            prop_assert!(count.is_some(), "query {id} is not in the trace");
            if let Some(count) = count {
                *count += 1;
                prop_assert!(*count == 1, "query {id} completed twice");
            }
            prop_assert!(rt.is_finite() && rt >= 0.0, "query {id} response {rt}");
        }
        let log_len = ex.response_log().len() as u64;
        prop_assert_eq!(report.queries_completed, log_len);
        if capped {
            prop_assert!(report.truncated, "a capped run must report truncation");
        } else {
            prop_assert!(
                seen.values().all(|&c| c == 1),
                "an uncapped run left queries behind"
            );
            prop_assert!(!report.truncated);
            prop_assert_eq!(report.jobs_completed, trace.jobs.len() as u64);
        }
    }
}

/// NoShare, except that the first batch it builds drops one query from its
/// completion list: the batch runs, but that query's completion is lost.
struct LosesOneCompletion {
    inner: Box<dyn Scheduler>,
    lost: bool,
}

impl Scheduler for LosesOneCompletion {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn job_declared(&mut self, job: &Job, now_ms: f64) {
        self.inner.job_declared(job, now_ms);
    }

    fn query_available(&mut self, query: &Query, now_ms: f64) {
        self.inner.query_available(query, now_ms);
    }

    fn next_batch(&mut self, now_ms: f64, residency: &dyn Residency) -> Option<Batch> {
        let mut batch = self.inner.next_batch(now_ms, residency)?;
        if !self.lost && !batch.completing_queries.is_empty() {
            batch.completing_queries.remove(0);
            self.lost = true;
        }
        Some(batch)
    }

    fn on_query_complete(&mut self, query: QueryId, response_ms: f64, now_ms: f64) {
        self.inner.on_query_complete(query, response_ms, now_ms);
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

    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

#[test]
#[should_panic(expected = "never completed: 1 of its parts were lost")]
fn a_lost_completion_fails_the_replay() {
    let db = build_db(
        db_config(),
        CostModel::paper_testbed(),
        DataMode::Virtual,
        8,
        CachePolicyKind::LruK,
    );
    let inner = build_scheduler(
        SchedulerKind::NoShare,
        MetricParams::paper_testbed(),
        10,
        2_000.0,
    );
    let sched = Box::new(LosesOneCompletion { inner, lost: false });
    ClusterExecutor::from_nodes(
        vec![(db, sched)],
        SimConfig::default(),
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    )
    .run(&tiny_trace(3));
}
