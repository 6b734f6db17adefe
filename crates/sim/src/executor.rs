//! perfbench's one-node view of [`ClusterExecutor`]: a single server is a
//! cluster of one node (§V-C), so [`Executor`] keeps only the five calls
//! perfbench makes. It stays for perfbench's two call sites alone and goes
//! once perfbench builds the one-node [`ClusterExecutor`] itself.

use crate::{ClusterExecutor, FailurePlan, ReplicationConfig, RunReport, SimConfig};
use jaws_obs::ObsSink;
use jaws_scheduler::Scheduler;
use jaws_turbdb::TurbDb;
use jaws_workload::{QueryId, Trace};

/// A one-node [`ClusterExecutor`] behind perfbench's calls.
pub struct Executor(ClusterExecutor);

impl Executor {
    /// A one-node cluster over an opened database and a scheduler.
    pub fn new(db: TurbDb, scheduler: Box<dyn Scheduler>, cfg: SimConfig) -> Self {
        Executor(ClusterExecutor::from_nodes(
            vec![(db, scheduler)],
            cfg,
            FailurePlan::none(),
            ReplicationConfig::disabled(),
        ))
    }

    /// [`ClusterExecutor::set_recorder`].
    pub fn set_recorder(&mut self, sink: ObsSink) {
        self.0.set_recorder(sink);
    }

    /// [`ClusterExecutor::response_log`].
    pub fn response_log(&self) -> &[(QueryId, f64)] {
        self.0.response_log()
    }

    /// The node's database (post-run inspection).
    pub fn db(&self) -> &TurbDb {
        self.0.db(0)
    }

    /// [`ClusterExecutor::run`], reduced to its aggregate report.
    pub fn run(&mut self, trace: &Trace) -> RunReport {
        self.0.run(trace).aggregate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{build_db, build_scheduler, CachePolicyKind, SchedulerKind};
    use crate::ClusterConfig;
    use jaws_obs::JsonlRecorder;
    use jaws_scheduler::MetricParams;
    use jaws_turbdb::{CostModel, DataMode, DbConfig};
    use jaws_workload::{GenConfig, TraceGenerator};
    use std::sync::{Arc, Mutex};

    /// The report JSON with its two wall-clock fields zeroed, the completion
    /// log, and the JSONL trace `rec` recorded.
    fn replay_bytes(
        mut report: RunReport,
        log: &[(QueryId, f64)],
        rec: &Mutex<JsonlRecorder>,
    ) -> [String; 3] {
        report.cache.policy_overhead_ns = 0;
        report.cache_overhead_ms_per_query = 0.0;
        [
            serde_json::to_string(&report).expect("report serializes"),
            serde_json::to_string(log).expect("log serializes"),
            rec.lock().expect("recorder mutex unpoisoned").take(),
        ]
    }

    /// The one-node rule: a cluster of one node is a plain server, so the
    /// [`Executor`] view and `ClusterExecutor::new` over one node replay
    /// byte-identically — masked report (the scheduler name carries no node
    /// count), completion log, and JSONL trace (no record carries a node
    /// tag).
    #[test]
    fn one_node_cluster_matches_single_executor_exactly() {
        for (kind, seed) in [
            (SchedulerKind::Jaws2 { batch_k: 15 }, 3u64),
            (SchedulerKind::LifeRaft2, 11),
        ] {
            let trace = TraceGenerator::new(GenConfig::small(seed)).generate();
            let cfg = ClusterConfig {
                nodes: 1,
                db: DbConfig {
                    grid_side: 32,
                    atom_side: 8,
                    ghost: 2,
                    timesteps: 8,
                    dt: 0.002,
                    seed: 5,
                },
                cost: CostModel::paper_testbed(),
                scheduler: kind,
                cache_policy: CachePolicyKind::Urc,
                cache_atoms_per_node: 16,
                run_len: 25,
                gate_timeout_ms: 10_000.0,
                sim: SimConfig::default(),
                failures: FailurePlan::none(),
                replication: ReplicationConfig::disabled(),
            };
            let params = MetricParams {
                atom_read_ms: cfg.cost.atom_read_ms,
                position_compute_ms: cfg.cost.position_compute_ms,
                atoms_per_timestep: cfg.db.atoms_per_timestep(),
            };
            let db = build_db(
                cfg.db,
                cfg.cost,
                DataMode::Virtual,
                cfg.cache_atoms_per_node,
                cfg.cache_policy,
            );
            let sched = build_scheduler(kind, params, cfg.run_len, cfg.gate_timeout_ms);
            let single_rec = Arc::new(Mutex::new(JsonlRecorder::new()));
            let mut single = Executor::new(db, sched, cfg.sim);
            single.set_recorder(ObsSink::new(single_rec.clone()));
            let s = single.run(&trace);

            let cluster_rec = Arc::new(Mutex::new(JsonlRecorder::new()));
            let mut cluster = ClusterExecutor::new(cfg);
            cluster.set_recorder(ObsSink::new(cluster_rec.clone()));
            let c = cluster.run(&trace).aggregate;

            assert_eq!(
                s.scheduler,
                kind.name(),
                "a one-node report names no node count"
            );
            let single = replay_bytes(s, single.response_log(), &single_rec);
            let cluster = replay_bytes(c, cluster.response_log(), &cluster_rec);
            assert!(!single[2].is_empty(), "the run emitted no records");
            for (part, (a, b)) in ["report", "completion log", "JSONL trace"]
                .iter()
                .zip(single.iter().zip(&cluster))
            {
                assert!(
                    a == b,
                    "{} {part} differs between the two routes",
                    kind.name()
                );
            }
        }
    }
}
