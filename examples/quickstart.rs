//! Quickstart: generate a workload, run JAWS over the simulated Turbulence
//! database, and print the run report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use jaws::prelude::*;

fn main() {
    // A small calibrated trace: bursty jobs over 8 timesteps of a 4³ atom
    // grid (the generator mirrors the workload statistics of the paper's
    // §VI-A at whatever scale you pick).
    let trace = TraceGenerator::new(GenConfig::small(42)).generate();
    println!(
        "trace: {} jobs / {} queries / {} positions ({} ordered jobs)",
        trace.jobs.len(),
        trace.query_count(),
        trace.position_count(),
        trace.ordered_job_count(),
    );

    // The simulated database: virtual payloads (costs only), a 16-atom buffer
    // cache under LRU-K replacement, and the paper-calibrated cost model.
    let db = build_db(
        DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: 42,
        },
        CostModel::paper_testbed(),
        DataMode::Virtual,
        16,
        CachePolicyKind::LruK,
    );

    // Full JAWS: two-level batching (k = 15), adaptive age bias, job-aware
    // gating. Swap `Jaws2` for `NoShare`/`LifeRaft2`/`Jaws1` to compare.
    let scheduler = build_scheduler(
        SchedulerKind::Jaws2 { batch_k: 15 },
        MetricParams::paper_testbed(),
        50,       // run length r
        12_000.0, // gate timeout (starvation valve)
    );

    // One node owning the whole atom grid, healthy, with static placement.
    let mut executor = ClusterExecutor::from_nodes(
        vec![(db, scheduler)],
        SimConfig::default(),
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    );
    let report = executor.run(&trace).aggregate;

    println!("\n{}", report.summary());
    println!("\ndetails:");
    println!("  makespan          {:.1} s", report.makespan_ms / 1000.0);
    println!("  throughput        {:.3} queries/s", report.throughput_qps);
    println!(
        "  response p50/p95  {:.1} / {:.1} s",
        report.response.p50 / 1000.0,
        report.response.p95 / 1000.0
    );
    println!(
        "  disk reads        {} ({} seeks)",
        report.disk.reads, report.disk.seeks
    );
    println!(
        "  cache hit ratio   {:.1}%",
        report.cache.hit_ratio() * 100.0
    );
    println!("  final age bias α  {:.2}", report.alpha_final);
}
