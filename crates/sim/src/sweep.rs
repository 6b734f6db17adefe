//! Parallel parameter sweeps for Figs. 11 and 12.

use crate::report::RunReport;
use crate::setup::{CachePolicyKind, SchedulerKind};
use crate::{ClusterConfig, ClusterExecutor, FailurePlan, ReplicationConfig, SimConfig};
use jaws_turbdb::{CostModel, DbConfig};
use jaws_workload::Trace;
use serde::{Deserialize, Serialize};

/// One point of a sweep: a fully specified run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSpec {
    /// Run label carried into the output (e.g. `"speedup=2"`).
    pub label: String,
    /// Database geometry.
    pub db: DbConfig,
    /// Cost model.
    pub cost: CostModel,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Cache policy.
    pub cache_policy: CachePolicyKind,
    /// Cache capacity in atoms (256 ≙ the paper's 2 GB).
    pub cache_atoms: usize,
    /// Run length `r`.
    pub run_len: usize,
    /// Gate timeout, ms.
    pub gate_timeout_ms: f64,
    /// Arrival-rate speed-up applied to the trace (Fig. 11).
    pub speedup: f64,
}

impl RunSpec {
    /// Executes this spec against `trace` (the speed-up is applied here).
    pub fn execute(&self, trace: &Trace) -> RunReport {
        let scaled;
        let trace = if (self.speedup - 1.0).abs() > 1e-12 {
            scaled = trace.speedup(self.speedup);
            &scaled
        } else {
            trace
        };
        let mut ex = ClusterExecutor::new(ClusterConfig {
            nodes: 1,
            db: self.db,
            cost: self.cost,
            scheduler: self.scheduler,
            cache_policy: self.cache_policy,
            cache_atoms_per_node: self.cache_atoms,
            run_len: self.run_len,
            gate_timeout_ms: self.gate_timeout_ms,
            sim: SimConfig::default(),
            failures: FailurePlan::none(),
            replication: ReplicationConfig::disabled(),
        });
        ex.run(trace).aggregate
    }
}

/// Runs every spec against `trace` on the [`jaws_par`] worker pool
/// (`JAWS_THREADS` workers, default `available_parallelism`), preserving
/// input order in the output. Each run is fully independent — its own
/// database, cache and scheduler — so the reports are identical to serial
/// execution at any thread count.
pub fn run_parallel(specs: &[RunSpec], trace: &Trace) -> Vec<(RunSpec, RunReport)> {
    jaws_par::map(specs, |s| (s.clone(), s.execute(trace)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaws_workload::{GenConfig, TraceGenerator};

    fn spec(label: &str, scheduler: SchedulerKind, speedup: f64) -> RunSpec {
        RunSpec {
            label: label.to_string(),
            db: DbConfig {
                grid_side: 32,
                atom_side: 8,
                ghost: 2,
                timesteps: 8,
                dt: 0.002,
                seed: 5,
            },
            cost: CostModel::paper_testbed(),
            scheduler,
            cache_policy: CachePolicyKind::LruK,
            cache_atoms: 16,
            run_len: 25,
            gate_timeout_ms: 10_000.0,
            speedup,
        }
    }

    #[test]
    fn parallel_sweep_preserves_order_and_matches_serial() {
        let trace = TraceGenerator::new(GenConfig::small(21)).generate();
        let specs = vec![
            spec("a", SchedulerKind::NoShare, 1.0),
            spec("b", SchedulerKind::LifeRaft2, 1.0),
            spec("c", SchedulerKind::Jaws2 { batch_k: 8 }, 1.0),
        ];
        let par = run_parallel(&specs, &trace);
        assert_eq!(par.len(), 3);
        assert_eq!(par[0].0.label, "a");
        assert_eq!(par[2].0.label, "c");
        for (s, r) in &par {
            let serial = s.execute(&trace);
            assert_eq!(r.queries_completed, serial.queries_completed, "{}", s.label);
            assert!((r.throughput_qps - serial.throughput_qps).abs() < 1e-9);
        }
    }

    #[test]
    fn speedup_compresses_the_makespan_for_arrival_bound_runs() {
        let trace = TraceGenerator::new(GenConfig::small(22)).generate();
        let slow = spec("1x", SchedulerKind::Jaws2 { batch_k: 8 }, 1.0).execute(&trace);
        let fast = spec("4x", SchedulerKind::Jaws2 { batch_k: 8 }, 4.0).execute(&trace);
        assert!(
            fast.makespan_ms < slow.makespan_ms,
            "speed-up should compress an arrival-bound run: {} vs {}",
            fast.makespan_ms,
            slow.makespan_ms
        );
    }
}
