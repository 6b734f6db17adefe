//! Integration tests for the §VII extensions and related-work baselines:
//! CasJobs multi-queue, QoS proportional deadlines, trajectory prefetching,
//! and multi-node cluster execution.

use jaws::prelude::*;

fn db_cfg() -> DbConfig {
    DbConfig {
        grid_side: 32,
        atom_side: 8,
        ghost: 2,
        timesteps: 8,
        dt: 0.002,
        seed: 5,
    }
}

fn run(kind: SchedulerKind, trace: &Trace) -> RunReport {
    let db = build_db(
        db_cfg(),
        CostModel::paper_testbed(),
        DataMode::Virtual,
        16,
        CachePolicyKind::LruK,
    );
    let sched = build_scheduler(kind, MetricParams::paper_testbed(), 25, 10_000.0);
    let mut ex = ClusterExecutor::from_nodes(
        vec![(db, sched)],
        SimConfig::default(),
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    );
    ex.run(trace).aggregate
}

#[test]
fn casjobs_drains_and_reports() {
    let trace = TraceGenerator::new(GenConfig::small(71)).generate();
    let r = run(SchedulerKind::CasJobs { threshold_ms: 600 }, &trace);
    assert_eq!(r.queries_completed, trace.query_count() as u64);
    assert_eq!(r.scheduler, "CasJobs");
    assert!(!r.truncated);
}

#[test]
fn casjobs_shares_nothing_like_noshare() {
    let trace = TraceGenerator::new(GenConfig::small(71)).generate();
    let cas = run(SchedulerKind::CasJobs { threshold_ms: 600 }, &trace);
    let jaws = run(SchedulerKind::Jaws2 { batch_k: 10 }, &trace);
    assert!(
        cas.disk.reads > jaws.disk.reads,
        "CasJobs {} reads vs JAWS {}",
        cas.disk.reads,
        jaws.disk.reads
    );
}

#[test]
fn qos_drains_with_bounded_makespan() {
    let trace = TraceGenerator::new(GenConfig::small(73)).generate();
    let qos = run(SchedulerKind::Qos { stretch_x10: 30 }, &trace);
    let noshare = run(SchedulerKind::NoShare, &trace);
    assert_eq!(qos.queries_completed, trace.query_count() as u64);
    assert_eq!(qos.scheduler, "JAWS-QoS");
    assert!(
        qos.makespan_ms <= noshare.makespan_ms,
        "EDF sharing should not be slower than NoShare"
    );
}

#[test]
fn qos_bounds_the_worst_case_better_than_contention() {
    // The §VII promise: tail response of a saturated replay is tighter under
    // proportional deadlines than under pure contention order.
    let trace = TraceGenerator::new(GenConfig::small(75))
        .generate()
        .speedup(10.0);
    let qos = run(SchedulerKind::Qos { stretch_x10: 30 }, &trace);
    let lr2 = run(SchedulerKind::LifeRaft2, &trace);
    assert!(
        qos.response.max <= lr2.response.max,
        "QoS max rt {:.0} vs LifeRaft_2 {:.0}",
        qos.response.max,
        lr2.response.max
    );
}

#[test]
fn cluster_with_jaws_qos_and_casjobs_nodes() {
    // The factory plumbing works inside the cluster executor too.
    let trace = TraceGenerator::new(GenConfig::small(77)).generate();
    for kind in [
        SchedulerKind::CasJobs { threshold_ms: 600 },
        SchedulerKind::Qos { stretch_x10: 20 },
    ] {
        let mut ex = ClusterExecutor::new(ClusterConfig {
            nodes: 2,
            db: db_cfg(),
            cost: CostModel::paper_testbed(),
            scheduler: kind,
            cache_policy: CachePolicyKind::Slru,
            cache_atoms_per_node: 8,
            run_len: 25,
            gate_timeout_ms: 10_000.0,
            sim: SimConfig::default(),
            failures: FailurePlan::none(),
            replication: ReplicationConfig::disabled(),
        });
        let r = ex.run(&trace);
        assert_eq!(
            r.aggregate.queries_completed,
            trace.query_count() as u64,
            "{} cluster dropped queries",
            kind.name()
        );
    }
}

#[test]
fn prefetching_helps_an_idle_chain_workload() {
    // Ordered chains with long think times leave idle capacity; prefetching
    // must convert it into cache hits without perturbing correctness.
    let cfg = GenConfig {
        jobs: 20,
        single_timestep_frac: 0.0, // all tracking chains
        oneoff_frac: 0.0,
        ..GenConfig::small(79)
    };
    let trace = TraceGenerator::new(cfg).generate();
    let mk = |prefetch: bool| {
        let db = build_db(
            db_cfg(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            32,
            CachePolicyKind::LruK,
        );
        let sched = build_scheduler(
            SchedulerKind::Jaws2 { batch_k: 8 },
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        let mut ex = ClusterExecutor::from_nodes(
            vec![(db, sched)],
            SimConfig {
                prefetch,
                ..SimConfig::default()
            },
            FailurePlan::none(),
            ReplicationConfig::disabled(),
        );
        let r = ex.run(&trace);
        let reads = r.prefetch_reads();
        (r.aggregate, reads)
    };
    let (base, base_reads) = mk(false);
    let (pf, pf_reads) = mk(true);
    assert_eq!(base_reads, 0);
    assert!(pf_reads > 0, "prefetcher idle-path never fired");
    assert_eq!(pf.queries_completed, base.queries_completed);
    assert!(
        pf.mean_response_ms <= base.mean_response_ms * 1.05,
        "prefetching must not hurt latency: {:.1} vs {:.1}",
        pf.mean_response_ms,
        base.mean_response_ms
    );
}
