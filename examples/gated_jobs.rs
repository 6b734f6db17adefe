//! The paper's Fig. 2 scenario: three ordered jobs whose queries overlap on
//! regions R3 and R4. JAWS aligns the jobs with its Needleman–Wunsch dynamic
//! program and gates the overlapping queries so each shared region is read
//! once; LifeRaft (no job-awareness) reads them once per job.
//!
//! ```text
//! cargo run --release --example gated_jobs
//! ```

use jaws::morton::MortonKey;
use jaws::prelude::*;

/// Builds a query touching one "region" (atom) at one timestep.
fn q(id: u64, user: u32, ts: u32, region: u64) -> Query {
    Query {
        id,
        user,
        op: QueryOp::ParticleTrack,
        timestep: ts,
        footprint: Footprint::from_pairs([(MortonKey(region), 400u32)]),
    }
}

/// One ordered job from (timestep, region) steps.
fn job(id: u64, steps: &[(u32, u64)]) -> Job {
    Job {
        id,
        user: id as u32,
        kind: JobKind::Ordered,
        campaign: id,
        queries: steps
            .iter()
            .enumerate()
            .map(|(i, &(ts, r))| q(id * 100 + i as u64, id as u32, ts, r))
            .collect(),
        arrival_ms: 0.0,
        think_ms: 0.0,
    }
}

fn run(kind: SchedulerKind, trace: &Trace) -> RunReport {
    let db = build_db(
        DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 4,
            dt: 0.002,
            seed: 1,
        },
        CostModel::paper_testbed(),
        DataMode::Virtual,
        1, // single-atom cache: sharing must come from co-scheduling
        CachePolicyKind::Lru,
    );
    let sched = build_scheduler(kind, MetricParams::paper_testbed(), 50, 30_000.0);
    let mut ex = ClusterExecutor::from_nodes(
        vec![(db, sched)],
        SimConfig::default(),
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    );
    ex.run(trace).aggregate
}

fn main() {
    // Fig. 2 of the paper (region labels R1..R5):
    //   Job1: R1 -> R3 -> R4
    //   Job2: R2 -> R3 -> R4
    //   Job3: R1 -> R3 -> R5
    let trace = Trace::new(
        4,
        4,
        vec![
            job(1, &[(0, 1), (1, 3), (2, 4)]),
            job(2, &[(0, 2), (1, 3), (2, 4)]),
            job(3, &[(0, 1), (1, 3), (3, 5)]),
        ],
    );

    println!("Fig. 2 workload: three ordered jobs sharing R1, R3 and R4\n");
    println!(
        "{:<11} {:>12} {:>12} {:>14}",
        "scheduler", "atom reads", "makespan", "mean rt"
    );
    let mut reads = std::collections::HashMap::new();
    for kind in [
        SchedulerKind::NoShare,
        SchedulerKind::LifeRaft2,
        SchedulerKind::Jaws2 { batch_k: 4 },
    ] {
        let r = run(kind, &trace);
        println!(
            "{:<11} {:>12} {:>10.1} s {:>12.1} s",
            r.scheduler,
            r.disk.reads,
            r.makespan_ms / 1000.0,
            r.mean_response_ms / 1000.0
        );
        reads.insert(r.scheduler.clone(), r.disk.reads);
    }

    println!();
    println!(
        "JAWS read {} atoms vs NoShare's {}: the gated R1/R3 groups were each served in a single pass,",
        reads["JAWS_2"], reads["NoShare"]
    );
    println!("exactly the co-scheduling the paper's Fig. 2 illustrates.");
    assert!(
        reads["JAWS_2"] < reads["NoShare"],
        "job-aware scheduling must eliminate redundant reads"
    );
}
