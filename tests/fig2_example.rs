//! Integration test reproducing the paper's Fig. 2 example: three ordered
//! jobs whose queries overlap on shared regions. Job-aware scheduling must
//! co-schedule the shared queries so each shared region is read once, and
//! must finish faster than the query-at-a-time baseline.

use jaws::morton::MortonKey;
use jaws::prelude::*;

/// A query over a single "region" (one atom), like the R1..R5 node labels of
/// the paper's figure.
fn q(id: u64, user: u32, ts: u32, region: u64) -> Query {
    Query {
        id,
        user,
        op: QueryOp::ParticleTrack,
        timestep: ts,
        footprint: Footprint::from_pairs([(MortonKey(region), 500u32)]),
    }
}

fn job(id: u64, arrival_ms: f64, steps: &[(u32, u64)]) -> Job {
    Job {
        id,
        user: id as u32,
        kind: JobKind::Ordered,
        campaign: 1,
        queries: steps
            .iter()
            .enumerate()
            .map(|(i, &(ts, r))| q(id * 100 + i as u64, id as u32, ts, r))
            .collect(),
        arrival_ms,
        think_ms: 0.0,
    }
}

/// The Fig. 2 jobs: J1 = R1 R3 R4, J2 = R2 R3 R4, J3 = R1 R3 R5 — submitted
/// together, progressing in lockstep (the figure's idealized setting).
fn fig2_trace() -> Trace {
    Trace::new(
        4,
        4,
        vec![
            job(1, 0.0, &[(0, 1), (1, 3), (2, 4)]),
            job(2, 0.0, &[(0, 2), (1, 3), (2, 4)]),
            job(3, 0.0, &[(0, 1), (1, 3), (3, 5)]),
        ],
    )
}

fn run(kind: SchedulerKind) -> RunReport {
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
        1, // single-atom cache: amortization must come from co-scheduling
        CachePolicyKind::Lru,
    );
    let sched = build_scheduler(kind, MetricParams::paper_testbed(), 50, 30_000.0);
    let mut ex = ClusterExecutor::from_nodes(
        vec![(db, sched)],
        SimConfig::default(),
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    );
    ex.run(&fig2_trace()).aggregate
}

#[test]
fn jaws_reads_each_shared_region_once() {
    let noshare = run(SchedulerKind::NoShare);
    let jaws = run(SchedulerKind::Jaws2 { batch_k: 4 });
    // 9 queries over regions {R1 x2, R2, R3 x3, R4 x2, R5}: the single-atom
    // cache cannot bridge NoShare's arrival-order interleaving, so it pays
    // redundant reads; JAWS co-schedules the shared queries and needs only
    // (about) the 5 distinct regions.
    assert_eq!(noshare.queries_completed, 9);
    assert_eq!(jaws.queries_completed, 9);
    assert!(
        jaws.disk.reads <= 6,
        "JAWS should read ~5 distinct regions, read {}",
        jaws.disk.reads
    );
    assert!(
        jaws.disk.reads < noshare.disk.reads,
        "JAWS {} reads vs NoShare {}",
        jaws.disk.reads,
        noshare.disk.reads
    );
}

#[test]
fn jaws_finishes_faster_than_noshare() {
    let noshare = run(SchedulerKind::NoShare);
    let jaws = run(SchedulerKind::Jaws2 { batch_k: 4 });
    assert!(
        jaws.makespan_ms < noshare.makespan_ms,
        "JAWS {:.0} ms vs NoShare {:.0} ms",
        jaws.makespan_ms,
        noshare.makespan_ms
    );
}

#[test]
fn gating_captures_sharing_missed_without_job_awareness() {
    // Give the jobs larger arrival offsets than any queue residence, so pure
    // contention scheduling cannot merge the shared accesses; only gated
    // execution aligns them.
    // Think times long enough that chains progress slower than the gaps,
    // keeping all three jobs concurrent; arrival offsets larger than the
    // queue residence so contention alone cannot merge the shared accesses.
    let mk = |id: u64, arrival: f64, steps: &[(u32, u64)]| {
        let mut j = job(id, arrival, steps);
        j.think_ms = 3_000.0;
        j
    };
    let trace = Trace::new(
        4,
        4,
        vec![
            mk(1, 0.0, &[(0, 1), (1, 3), (2, 4)]),
            mk(2, 2_500.0, &[(0, 2), (1, 3), (2, 4)]),
            mk(3, 5_000.0, &[(0, 1), (1, 3), (3, 5)]),
        ],
    );
    let run_with = |kind: SchedulerKind| {
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
            2,
            CachePolicyKind::Lru,
        );
        let sched = build_scheduler(kind, MetricParams::paper_testbed(), 50, 60_000.0);
        let mut ex = ClusterExecutor::from_nodes(
            vec![(db, sched)],
            SimConfig::default(),
            FailurePlan::none(),
            ReplicationConfig::disabled(),
        );
        ex.run(&trace).aggregate
    };
    let jaws1 = run_with(SchedulerKind::Jaws1 { batch_k: 4 });
    let jaws2 = run_with(SchedulerKind::Jaws2 { batch_k: 4 });
    assert!(
        jaws2.disk.reads < jaws1.disk.reads,
        "gating must save reads: JAWS_2 {} vs JAWS_1 {}",
        jaws2.disk.reads,
        jaws1.disk.reads
    );
}
