//! End-to-end integration: full pipeline from trace generation through
//! scheduling, caching and execution, across every scheduler and cache
//! policy combination.

use jaws::prelude::*;

fn small_db(policy: CachePolicyKind, cache_atoms: usize) -> TurbDb {
    build_db(
        DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: 5,
        },
        CostModel::paper_testbed(),
        DataMode::Virtual,
        cache_atoms,
        policy,
    )
}

fn run(
    kind: SchedulerKind,
    policy: CachePolicyKind,
    cache_atoms: usize,
    trace: &Trace,
) -> RunReport {
    let sched = build_scheduler(kind, MetricParams::paper_testbed(), 25, 10_000.0);
    let mut ex = ClusterExecutor::from_nodes(
        vec![(small_db(policy, cache_atoms), sched)],
        SimConfig::default(),
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    );
    ex.run(trace).aggregate
}

#[test]
fn every_scheduler_and_policy_combination_drains_the_trace() {
    let trace = TraceGenerator::new(GenConfig::small(31)).generate();
    let total = trace.query_count() as u64;
    for kind in SchedulerKind::evaluation_set() {
        for policy in [
            CachePolicyKind::Lru,
            CachePolicyKind::LruK,
            CachePolicyKind::Slru,
            CachePolicyKind::Urc,
        ] {
            let r = run(kind, policy, 16, &trace);
            assert_eq!(
                r.queries_completed,
                total,
                "{} + {:?} dropped queries",
                kind.name(),
                policy
            );
            assert!(!r.truncated);
            assert!(r.response.max >= r.response.p50);
        }
    }
}

#[test]
fn batch_schedulers_dominate_noshare_under_contention() {
    let trace = TraceGenerator::new(GenConfig::small(33)).generate();
    let noshare = run(SchedulerKind::NoShare, CachePolicyKind::LruK, 16, &trace);
    for kind in [
        SchedulerKind::LifeRaft1,
        SchedulerKind::LifeRaft2,
        SchedulerKind::Jaws1 { batch_k: 10 },
        SchedulerKind::Jaws2 { batch_k: 10 },
    ] {
        let r = run(kind, CachePolicyKind::LruK, 16, &trace);
        assert!(
            r.disk.reads < noshare.disk.reads,
            "{} reads {} vs NoShare {}",
            kind.name(),
            r.disk.reads,
            noshare.disk.reads
        );
        assert!(
            r.makespan_ms <= noshare.makespan_ms,
            "{} slower than NoShare",
            kind.name()
        );
    }
}

#[test]
fn workload_knowledge_improves_cache_hit_ratio() {
    // Table I's direction: with the JAWS scheduler, URC (full workload
    // knowledge) must beat the knowledge-free LRU-K baseline on hit ratio
    // under cache pressure.
    // At very small caches the comparison is seed-noise; at a working-set
    // sized cache the knowledge-driven policies win consistently (Table I).
    let trace = TraceGenerator::new(GenConfig::small(37)).generate();
    let lruk = run(
        SchedulerKind::Jaws2 { batch_k: 10 },
        CachePolicyKind::LruK,
        32,
        &trace,
    );
    let urc = run(
        SchedulerKind::Jaws2 { batch_k: 10 },
        CachePolicyKind::Urc,
        32,
        &trace,
    );
    let slru = run(
        SchedulerKind::Jaws2 { batch_k: 10 },
        CachePolicyKind::Slru,
        32,
        &trace,
    );
    assert!(
        urc.cache.hit_ratio() > lruk.cache.hit_ratio(),
        "URC {:.3} should beat LRU-K {:.3}",
        urc.cache.hit_ratio(),
        lruk.cache.hit_ratio()
    );
    assert!(
        slru.cache.hit_ratio() > lruk.cache.hit_ratio(),
        "SLRU {:.3} should beat LRU-K {:.3}",
        slru.cache.hit_ratio(),
        lruk.cache.hit_ratio()
    );
    assert!(urc.cache_overhead_ms_per_query >= 0.0);
}

#[test]
fn reports_are_serializable() {
    let trace = TraceGenerator::new(GenConfig::small(39)).generate();
    let r = run(
        SchedulerKind::Jaws2 { batch_k: 10 },
        CachePolicyKind::Slru,
        16,
        &trace,
    );
    let json = serde_json::to_string(&r).expect("report serializes");
    assert!(json.contains("throughput_qps"));
    assert!(json.contains("JAWS_2"));
}

#[test]
fn trace_save_load_execute_round_trip() {
    let trace = TraceGenerator::new(GenConfig::small(41)).generate();
    let mut buf = Vec::new();
    trace.save_json(&mut buf).expect("save");
    let loaded = Trace::load_json(buf.as_slice()).expect("load");
    let a = run(SchedulerKind::LifeRaft2, CachePolicyKind::LruK, 16, &trace);
    let b = run(SchedulerKind::LifeRaft2, CachePolicyKind::LruK, 16, &loaded);
    assert_eq!(a.queries_completed, b.queries_completed);
    assert_eq!(a.disk.reads, b.disk.reads);
    assert!((a.makespan_ms - b.makespan_ms).abs() < 1e-9);
}

#[test]
fn speedup_sweep_is_monotone_in_offered_load_for_noshare_response() {
    // As saturation rises, NoShare's mean response time must not improve —
    // the monotonicity underlying Fig. 11(b).
    let trace = TraceGenerator::new(GenConfig::small(43)).generate();
    let mut last_rt = 0.0;
    for speedup in [0.5, 2.0, 8.0] {
        let scaled = trace.speedup(speedup);
        let r = run(SchedulerKind::NoShare, CachePolicyKind::LruK, 16, &scaled);
        assert!(
            r.mean_response_ms >= last_rt * 0.8,
            "response collapsed at speedup {speedup}: {} vs {}",
            r.mean_response_ms,
            last_rt
        );
        last_rt = r.mean_response_ms;
    }
}
