//! Replay a workload on a multi-node Turbulence cluster (§V-C deployment).
//!
//! The atom grid is split into contiguous Morton slabs, one per node; every
//! node runs its own JAWS instance, buffer pool and simulated disk; queries
//! fan out into per-node parts and complete when all parts finish. Since the
//! engine unification the cluster honors the full [`SimConfig`]: per-node
//! trajectory prefetching (§VII) and `max_sim_ms` truncation. This replay
//! runs each node count with prefetching off and on to show the knob.
//!
//! ```text
//! cargo run --release --example cluster_replay
//! ```

use jaws::prelude::*;
use jaws::sim::{ClusterConfig, ClusterExecutor, FailurePlan};

fn config(nodes: u32, prefetch: bool) -> ClusterConfig {
    ClusterConfig {
        nodes,
        db: DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: 77,
        },
        cost: CostModel::paper_testbed(),
        scheduler: SchedulerKind::Jaws2 { batch_k: 8 },
        cache_policy: CachePolicyKind::Slru,
        cache_atoms_per_node: 16,
        run_len: 25,
        gate_timeout_ms: 30_000.0,
        sim: SimConfig {
            prefetch,
            // Generous cap: this replay is expected to drain; a truncated
            // row would print [TRUNCATED] via the aggregate report.
            max_sim_ms: 1e10,
        },
        failures: FailurePlan::none(),
        replication: jaws_sim::ReplicationConfig::disabled(),
    }
}

fn main() {
    let trace = TraceGenerator::new(GenConfig::small(77)).generate();
    println!(
        "replaying {} queries ({} jobs) on 1, 2 and 4 nodes\n",
        trace.query_count(),
        trace.jobs.len()
    );
    // Compress arrivals so the replay is capacity-bound and scale-out shows.
    let trace = trace.speedup(25.0);

    for nodes in [1u32, 2, 4] {
        for prefetch in [false, true] {
            let mut ex = ClusterExecutor::new(config(nodes, prefetch));
            let r = ex.run(&trace);
            println!(
                "{} node(s), prefetch {}: {:>6.3} q/s, mean rt {:>6.1} s, imbalance {:.2}x",
                nodes,
                if prefetch { "on " } else { "off" },
                r.aggregate.throughput_qps,
                r.aggregate.mean_response_ms / 1000.0,
                r.imbalance()
            );
            for n in &r.nodes {
                println!(
                    "    node {}: {:>4} parts, {:>5} reads, {:>4} prefetches, util {:>5.1}%",
                    n.node,
                    n.parts_completed,
                    n.disk.reads,
                    n.prefetch_reads,
                    n.utilization * 100.0
                );
            }
            assert_eq!(r.aggregate.queries_completed, trace.query_count() as u64);
        }
    }
}
