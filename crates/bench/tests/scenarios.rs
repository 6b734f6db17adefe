//! Cluster scenarios beyond the paper trace, checked end to end: five
//! workload shapes replay identically twice, hot-atom replication cuts the
//! load imbalance of a Zipf-skewed trace, and `trace_explain` attributes a
//! crash, a straggler and replica routing from a recorded JSONL trace.

use jaws_bench::exp;
use jaws_morton::MortonKey;
use jaws_sim::{
    CachePolicyKind, ClusterConfig, ClusterExecutor, ClusterReport, FailurePlan, ReplicationConfig,
    SchedulerKind, SimConfig,
};
use jaws_turbdb::DbConfig;
use jaws_workload::{Footprint, GenConfig, Job, JobKind, Query, QueryOp, Trace, TraceGenerator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// A JAWS₂ cluster of `nodes` nodes over the smoke geometry: the paper's
/// 2 GB cache split across the nodes (at least 16 atoms each), no failures.
fn cluster(
    nodes: u32,
    cache_policy: CachePolicyKind,
    replication: ReplicationConfig,
) -> ClusterConfig {
    ClusterConfig {
        nodes,
        db: exp::smoke_db(),
        cost: exp::paper_cost(),
        scheduler: SchedulerKind::Jaws2 { batch_k: 15 },
        cache_policy,
        cache_atoms_per_node: (exp::CACHE_ATOMS as u32 / nodes).max(16) as usize,
        run_len: exp::RUN_LEN,
        gate_timeout_ms: exp::GATE_TIMEOUT_MS,
        sim: SimConfig::default(),
        failures: FailurePlan::none(),
        replication,
    }
}

/// Replays `trace` on `cfg` and asserts that every query completed.
fn drained_run(cfg: &ClusterConfig, trace: &Trace) -> ClusterReport {
    let report = ClusterExecutor::new(cfg.clone()).run(trace);
    assert!(!report.aggregate.truncated, "the run hit the time cap");
    assert_eq!(
        report.aggregate.queries_completed,
        trace.query_count() as u64,
        "the run left queries behind"
    );
    report
}

fn masked_json(report: &ClusterReport) -> String {
    exp::mask_wallclock_fields(&serde_json::to_string(report).expect("report serializes"))
}

/// Splices `tail` after `head`: tail arrivals are shifted past the last head
/// arrival plus `gap_ms`, and tail job/query/user/campaign identifiers are
/// offset so the combined trace keeps them trace-unique.
fn splice(head: Trace, tail: Trace, gap_ms: f64) -> Trace {
    let head_end = head
        .jobs
        .iter()
        .map(|j| j.arrival_ms)
        .fold(0.0f64, f64::max);
    let job_off = head.jobs.iter().map(|j| j.id).max().unwrap_or(0) + 1;
    let query_off = head
        .jobs
        .iter()
        .flat_map(|j| j.queries.iter().map(|q| q.id))
        .max()
        .unwrap_or(0)
        + 1;
    let user_off = head.jobs.iter().map(|j| j.user).max().unwrap_or(0) + 1;
    let campaign_off = head.jobs.iter().map(|j| j.campaign).max().unwrap_or(0) + 1;
    let (timesteps, atoms_per_side) = (head.timesteps, head.atoms_per_side);
    let mut jobs = head.jobs;
    for mut j in tail.jobs {
        j.id += job_off;
        j.user += user_off;
        j.campaign += campaign_off;
        j.arrival_ms += head_end + gap_ms;
        for q in Arc::make_mut(&mut j.queries).iter_mut() {
            q.id += query_off;
            q.user = j.user;
        }
        jobs.push(j);
    }
    Trace::new(timesteps, atoms_per_side, jobs)
}

/// Five seeded workload shapes of 60 jobs on 4 nodes, each with its
/// replication setting.
fn shapes() -> Vec<(&'static str, Trace, ReplicationConfig)> {
    let base = GenConfig::small(exp::TRACE_SEED);
    let jobs = base.jobs;
    let generate = |cfg: GenConfig| TraceGenerator::new(cfg).generate();
    let off = ReplicationConfig::disabled();
    vec![
        // Dense bursts with near-zero intra-burst gaps: many simultaneous
        // events, ordered by insertion id.
        (
            "flash_crowd",
            generate(GenConfig {
                mean_burst_gap_ms: 50_000.0,
                mean_burst_size: 12.0,
                intra_burst_gap_ms: 40.0,
                hotspot_prob: 0.8,
                ..base
            }),
            off,
        ),
        // Long quiet gaps: pending events spread far ahead of the clock.
        (
            "diurnal",
            generate(GenConfig {
                mean_burst_gap_ms: 120_000.0,
                mean_burst_size: 8.0,
                intra_burst_gap_ms: 500.0,
                ..base
            }),
            off,
        ),
        // A hotspot-heavy phase, then a scan-heavy one with another seed:
        // α and the caches re-adapt at the seam.
        (
            "regime_shift",
            splice(
                generate(GenConfig {
                    jobs: jobs / 2,
                    hotspot_prob: 0.9,
                    ..base
                }),
                generate(GenConfig {
                    seed: exp::TRACE_SEED ^ 0x5eed,
                    jobs: jobs / 2,
                    hotspot_prob: 0.1,
                    long_job_frac: 0.3,
                    single_timestep_frac: 0.4,
                    ..base
                }),
                5_000.0,
            ),
            off,
        ),
        // Few jobs with many batched queries: per-job state lives long.
        (
            "heavy_tailed",
            generate(GenConfig {
                jobs: jobs / 2,
                mean_batched_queries: 40.0,
                long_job_frac: 0.3,
                oneoff_frac: 0.02,
                ..base
            }),
            off,
        ),
        // Nearly all traffic on two hotspots, replicated.
        (
            "zipf_skew",
            generate(GenConfig {
                hotspots: 2,
                hotspot_prob: 0.95,
                ..base
            }),
            ReplicationConfig::on(),
        ),
    ]
}

#[test]
fn workload_shapes_drain_and_replay_identically_twice() {
    for (name, trace, replication) in shapes() {
        let cfg = cluster(4, CachePolicyKind::Urc, replication);
        let first = masked_json(&drained_run(&cfg, &trace));
        let second = masked_json(&drained_run(&cfg, &trace));
        assert!(first == second, "{name}: the second replay diverged");
    }
}

/// Replication knobs for the skew runs: a window long enough to keep the
/// Zipf head hot for the whole replay, a promotion threshold low enough for
/// a small trace, one replica per atom.
fn replication_on() -> ReplicationConfig {
    ReplicationConfig {
        enabled: true,
        window_ms: 600_000.0,
        promote_accesses: 6,
        demote_accesses: 1,
        max_replicas_per_atom: 1,
        max_hot_atoms: 64,
    }
}

/// A Zipf-skewed batched workload: footprint keys are drawn from a Zipf
/// distribution over Morton rank (exponent `s`), so rank 0, the first key
/// of node 0's slab, absorbs the head of the distribution however the grid
/// is split. Seeded ChaCha8.
fn zipf_trace(db: DbConfig, jobs: u64, queries_per_job: u64, s: f64) -> Trace {
    let per_ts = db.atoms_per_timestep();
    let timesteps = db.timesteps;
    let weights: Vec<f64> = (0..per_ts)
        .map(|r| 1.0 / ((r + 1) as f64).powf(s))
        .collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(exp::TRACE_SEED);
    let draw = |rng: &mut ChaCha8Rng| -> u64 {
        let u: f64 = rng.gen();
        cdf.partition_point(|&c| c < u) as u64
    };
    let mut qid = 0u64;
    let jobs = (0..jobs)
        .map(|j| Job {
            id: j + 1,
            user: (j % 16) as u32,
            kind: JobKind::Batched,
            campaign: 1 + j % 4,
            queries: (0..queries_per_job)
                .map(|_| {
                    qid += 1;
                    let atoms = 1 + rng.gen_range(0..2u32);
                    Query {
                        id: qid,
                        user: (j % 16) as u32,
                        op: QueryOp::Velocity,
                        timestep: rng.gen_range(0..timesteps),
                        footprint: Footprint::from_pairs(
                            (0..atoms).map(|_| (MortonKey(draw(&mut rng)), 40u32)),
                        ),
                    }
                })
                .collect(),
            arrival_ms: j as f64 * 25.0,
            think_ms: 0.0,
        })
        .collect();
    Trace::new(timesteps, db.atoms_per_side(), jobs)
}

#[test]
fn replication_cuts_zipf_imbalance_at_4_and_8_nodes() {
    let trace = zipf_trace(exp::smoke_db(), 24, 8, 1.1);
    for nodes in [4u32, 8] {
        let off = drained_run(
            &cluster(nodes, CachePolicyKind::LruK, ReplicationConfig::disabled()),
            &trace,
        );
        let on = drained_run(
            &cluster(nodes, CachePolicyKind::LruK, replication_on()),
            &trace,
        );
        let rep = on.replication.as_ref().expect("replica summary");
        assert!(rep.promotions > 0, "{nodes} nodes: nothing promoted");
        assert!(rep.replica_routed > 0, "{nodes} nodes: nothing diverted");
        assert!(
            on.imbalance() < off.imbalance(),
            "{nodes} nodes: replication did not reduce imbalance ({:.3} vs static {:.3})",
            on.imbalance(),
            off.imbalance()
        );
    }
}

#[test]
fn trace_explain_attributes_a_crash_a_straggler_and_replicas() {
    let trace = zipf_trace(exp::smoke_db(), 24, 8, 1.1);
    let last_arrival = trace
        .jobs
        .iter()
        .map(|j| j.arrival_ms)
        .fold(0.0f64, f64::max);
    let cfg = ClusterConfig {
        failures: FailurePlan::new(exp::TRACE_SEED)
            .crash_with_survivor(0.5 * last_arrival, 1, 0)
            .slowdown_at(0.0, 3, 2.0),
        ..cluster(4, CachePolicyKind::LruK, replication_on())
    };
    let (report, jsonl) = exp::traced_run(cfg, &trace);
    let degraded = report.degraded.as_ref().expect("node 1 crashed");
    assert!(degraded.redispatched_parts > 0, "the crash moved no work");

    let path = std::env::temp_dir().join(format!("jaws-explain-{}.jsonl", std::process::id()));
    std::fs::write(&path, jsonl).expect("write the trace");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace_explain"))
        .arg(&path)
        .output()
        .expect("trace_explain starts");
    std::fs::remove_file(&path).expect("remove the trace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for section in [
        "Per-query latency breakdown",
        "Failure recovery",
        "node 1 crashed; node 0 inherited",
        "node 3 degraded to a 2.0x straggler",
        "Dynamic placement",
    ] {
        assert!(stdout.contains(section), "no `{section}` in:\n{stdout}");
    }
}
