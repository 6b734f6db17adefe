//! The benchmark's workloads: seeded inputs, timed set-up, and one replay.
//!
//! Every workload is a batch replay of one generated trace through the
//! simulator's public API. Set-up (trace generation, `TurbDb::open`,
//! scheduler and executor construction) and the replay are timed separately,
//! and the replay's report is checked against its trace before any number
//! is used.

use crate::layers::{CacheProbe, CacheTimes, CountingRecorder, SchedProbe, SchedTimes};
use jaws_bench::{alloc_counter, exp};
use jaws_obs::ObsSink;
use jaws_scheduler::MetricParams;
use jaws_sim::{
    build_policy, build_scheduler, queue_ops, reset_queue_ops, CachePolicyKind, ClusterConfig,
    ClusterExecutor, ClusterReport, Executor, FailurePlan, ReplicationConfig, RunReport,
    SchedulerKind, SimConfig,
};
use jaws_turbdb::{DataMode, DbConfig, TurbDb};
use jaws_workload::{GenConfig, QueryId, Trace, TraceGenerator};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Half-width of the seeded arrival jitter, ms. A fresh `GenConfig` seed per
/// run changes a trace's bursts and hotspots wholesale and moved simulated
/// response times by up to 2× between seeds; jittering the arrivals of one
/// canonical trace varies the inputs while keeping the workload's shape.
pub const ARRIVAL_JITTER_MS: f64 = 250.0;

/// Jobs in the `cluster_skew_crash` trace: a quarter of the paper trace, so
/// one replay of the 4-node cluster stays in the seconds range.
pub const CLUSTER_JOBS: usize = 250;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I's URC configuration at paper scale on virtual data: the
    /// scheduler dominates the replay.
    PaperJaws2Urc,
    /// The `bench5_e2e` inputs on synthesized voxel data: field synthesis
    /// dominates the replay.
    SynthAnchor,
    /// A 4-node cluster on a two-hotspot trace with replication and one
    /// mid-run node crash.
    ClusterSkewCrash,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperJaws2Urc,
        Workload::SynthAnchor,
        Workload::ClusterSkewCrash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperJaws2Urc => "paper_jaws2_urc",
            Workload::SynthAnchor => "synth_anchor",
            Workload::ClusterSkewCrash => "cluster_skew_crash",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jittered trace variants an untraced run replays: `(behaviour,
    /// timed)`. Simulated metrics are medians over the first `behaviour`
    /// variants, so smaller traces take more; replay time is taken over the
    /// first `timed`, as many as fit a few times each into a run.
    pub fn variants(self) -> (u64, usize) {
        match self {
            Workload::PaperJaws2Urc => (2, 2),
            Workload::SynthAnchor | Workload::ClusterSkewCrash => (8, 4),
        }
    }

    /// The workload's configuration for run seed `seed`. The trace shape
    /// is generated from [`exp::TRACE_SEED`]; `seed` drives its arrival
    /// jitter (and the cluster's crash time).
    pub fn spec(self, seed: u64) -> Spec {
        let (db, gen, data, nodes, policy, cache_atoms, gate_timeout_ms) = match self {
            Workload::PaperJaws2Urc => (
                exp::paper_db(),
                GenConfig::paper_like(exp::TRACE_SEED),
                DataMode::Virtual,
                1,
                CachePolicyKind::Urc,
                exp::CACHE_ATOMS,
                exp::GATE_TIMEOUT_MS,
            ),
            Workload::SynthAnchor => (
                exp::smoke_db(),
                GenConfig::small(exp::TRACE_SEED),
                DataMode::Synthetic,
                1,
                CachePolicyKind::Urc,
                32,
                10_000.0,
            ),
            Workload::ClusterSkewCrash => (
                exp::paper_db(),
                GenConfig {
                    jobs: CLUSTER_JOBS,
                    hotspots: 2,
                    hotspot_prob: 0.95,
                    ..GenConfig::paper_like(exp::TRACE_SEED)
                },
                DataMode::Virtual,
                4,
                CachePolicyKind::LruK,
                exp::CACHE_ATOMS / 4,
                exp::GATE_TIMEOUT_MS,
            ),
        };
        Spec {
            db,
            gen,
            seed,
            data,
            nodes,
            policy,
            cache_atoms,
            gate_timeout_ms,
        }
    }
}

/// Everything a replay depends on. The scheduler is always JAWS₂ with
/// k = 15 and the paper's run length and cost model.
#[derive(Debug, Clone)]
pub struct Spec {
    pub db: DbConfig,
    pub gen: GenConfig,
    /// The run seed: arrival jitter and crash time.
    pub seed: u64,
    pub data: DataMode,
    pub nodes: u32,
    pub policy: CachePolicyKind,
    /// Buffer-pool capacity in atoms, per node.
    pub cache_atoms: usize,
    pub gate_timeout_ms: f64,
}

impl Spec {
    /// The same workload with the run seed replaced by variant `i`'s.
    pub fn variant(&self, i: u64) -> Spec {
        Spec {
            seed: splitmix64(self.seed ^ splitmix64(i)),
            ..self.clone()
        }
    }
}

/// How a replay is instrumented or varied. None of these may change the
/// masked report, except `virtual_data`, which may change only the cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// Wrap the scheduler and the cache policy in timing probes (single-node
    /// workloads only: `ClusterExecutor` builds its own per-node layers).
    pub probes: bool,
    /// Wire a recording observability sink instead of the null one.
    pub record_obs: bool,
    /// Replay on `DataMode::Virtual` whatever the workload's data mode.
    pub virtual_data: bool,
}

enum Engine {
    Single(Box<Executor>),
    Cluster(Box<ClusterExecutor>),
}

/// A workload after set-up, ready for exactly one replay.
pub struct Ready {
    trace: Trace,
    engine: Engine,
    sched_times: Option<Arc<Mutex<SchedTimes>>>,
    cache_times: Option<Arc<Mutex<CacheTimes>>>,
    recorder: Option<Arc<Mutex<CountingRecorder>>>,
    pub generate_s: f64,
    pub open_s: f64,
    pub setup_s: f64,
}

/// Generates the trace and builds the database, scheduler and executor.
pub fn set_up(spec: &Spec, mode: Mode) -> Ready {
    let t0 = Instant::now();
    let trace = jittered(TraceGenerator::new(spec.gen.clone()).generate(), spec.seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let cost = exp::paper_cost();
    let mut sched_times = None;
    let mut cache_times = None;
    let t1 = Instant::now();
    let (mut engine, open_s) = if spec.nodes == 1 {
        let mut policy = build_policy(spec.policy, spec.cache_atoms);
        if mode.probes {
            let (p, times) = CacheProbe::wrap(policy);
            policy = p;
            cache_times = Some(times);
        }
        let data = if mode.virtual_data {
            DataMode::Virtual
        } else {
            spec.data
        };
        let db = TurbDb::open(spec.db, cost, data, spec.cache_atoms, policy);
        let open_s = t1.elapsed().as_secs_f64();
        let params = MetricParams {
            atom_read_ms: cost.atom_read_ms,
            position_compute_ms: cost.position_compute_ms,
            atoms_per_timestep: spec.db.atoms_per_timestep(),
        };
        let mut sched = build_scheduler(
            SchedulerKind::Jaws2 { batch_k: 15 },
            params,
            exp::RUN_LEN,
            spec.gate_timeout_ms,
        );
        if mode.probes {
            let (s, times) = SchedProbe::wrap(sched);
            sched = s;
            sched_times = Some(times);
        }
        (
            Engine::Single(Box::new(Executor::new(db, sched, SimConfig::default()))),
            open_s,
        )
    } else {
        // The cluster opens one database per node inside its constructor, so
        // its open time covers the (negligible) scheduler construction too.
        let ex = ClusterExecutor::new(ClusterConfig {
            nodes: spec.nodes,
            db: spec.db,
            cost,
            scheduler: SchedulerKind::Jaws2 { batch_k: 15 },
            cache_policy: spec.policy,
            cache_atoms_per_node: spec.cache_atoms,
            run_len: exp::RUN_LEN,
            gate_timeout_ms: spec.gate_timeout_ms,
            sim: SimConfig::default(),
            failures: crash_plan(&trace, spec),
            replication: ReplicationConfig::on(),
        });
        (Engine::Cluster(Box::new(ex)), t1.elapsed().as_secs_f64())
    };
    let recorder = mode.record_obs.then(|| {
        let rec = Arc::new(Mutex::new(CountingRecorder::default()));
        let sink = ObsSink::new(rec.clone());
        match &mut engine {
            Engine::Single(ex) => ex.set_recorder(sink),
            Engine::Cluster(ex) => ex.set_recorder(sink),
        }
        rec
    });
    Ready {
        trace,
        engine,
        sched_times,
        cache_times,
        recorder,
        generate_s,
        open_s,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Shifts every job's arrival by a seeded offset in ±[`ARRIVAL_JITTER_MS`]
/// (clamped at 0), keyed by job id so the draw is independent of job order.
fn jittered(trace: Trace, seed: u64) -> Trace {
    let Trace {
        timesteps,
        atoms_per_side,
        mut jobs,
    } = trace;
    for j in &mut jobs {
        let u = splitmix64(seed ^ splitmix64(j.id)) as f64 / u64::MAX as f64;
        j.arrival_ms = (j.arrival_ms + (2.0 * u - 1.0) * ARRIVAL_JITTER_MS).max(0.0);
    }
    Trace::new(timesteps, atoms_per_side, jobs)
}

/// One crash of node 1, halfway through the trace's arrival span (while it
/// still holds queued work), its time jittered by the run seed.
fn crash_plan(trace: &Trace, spec: &Spec) -> FailurePlan {
    let last_arrival = trace
        .jobs
        .iter()
        .map(|j| j.arrival_ms)
        .fold(0.0f64, f64::max);
    FailurePlan::new(spec.seed)
        .crash_at(0.5 * last_arrival, 1)
        .jittered(ARRIVAL_JITTER_MS)
}

/// Cluster-only report fields.
#[derive(Debug, Clone, Copy)]
pub struct ClusterExtras {
    pub parts: u64,
    pub imbalance: f64,
    pub replica_routed: u64,
    pub promotions: u64,
    pub redispatched: u64,
}

/// What one replay measured and produced.
pub struct Outcome {
    pub wall_s: f64,
    pub allocs: u64,
    pub queue_ops: u64,
    /// Trace queries, each of which must complete exactly once.
    pub attempted: u64,
    /// Trace queries that did not complete exactly once, plus completions of
    /// ids the trace does not hold.
    pub failed: u64,
    /// The report serialized with its wall-clock fields zeroed.
    pub masked: String,
    /// The single-node report, or the cluster's aggregate.
    pub report: RunReport,
    pub cluster: Option<ClusterExtras>,
    pub materializations: u64,
    /// Single-node only: the cluster keeps its databases private.
    pub metadata_bytes: Option<usize>,
    pub sched: Option<SchedTimes>,
    pub cache: Option<CacheTimes>,
    pub obs_events: Option<u64>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.report.truncated
    }
}

/// Replays the trace to completion and checks every query completed once.
pub fn replay(ready: Ready) -> Outcome {
    let Ready {
        trace,
        mut engine,
        sched_times,
        cache_times,
        recorder,
        ..
    } = ready;
    enum Ran {
        Single(RunReport),
        Cluster(ClusterReport),
    }
    reset_queue_ops();
    alloc_counter::reset();
    let t0 = Instant::now();
    let ran = match &mut engine {
        Engine::Single(ex) => Ran::Single(ex.run(&trace)),
        Engine::Cluster(ex) => Ran::Cluster(ex.run(&trace)),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = alloc_counter::count();
    let (pushes, pops) = queue_ops();
    let (report, cluster, json) = match ran {
        Ran::Single(r) => {
            let json = serde_json::to_string(&r).expect("report serializes");
            (r, None, json)
        }
        Ran::Cluster(r) => {
            let json = serde_json::to_string(&r).expect("report serializes");
            let extras = ClusterExtras {
                parts: r.nodes.iter().map(|n| n.parts_completed).sum(),
                imbalance: r.imbalance(),
                replica_routed: r.replication.as_ref().map_or(0, |s| s.replica_routed),
                promotions: r.replication.as_ref().map_or(0, |s| s.promotions),
                redispatched: r.degraded.as_ref().map_or(0, |d| d.redispatched_parts),
            };
            (r.aggregate, Some(extras), json)
        }
    };
    let (log, materializations, metadata_bytes) = match &engine {
        Engine::Single(ex) => (
            ex.response_log(),
            ex.db().materializations(),
            Some(ex.db().cache_metadata_bytes()),
        ),
        Engine::Cluster(ex) => (ex.response_log(), 0, None),
    };
    Outcome {
        wall_s,
        allocs,
        queue_ops: pushes + pops,
        attempted: trace.query_count() as u64,
        failed: missed(&trace, log),
        masked: exp::mask_wallclock_fields(&json),
        report,
        cluster,
        materializations,
        metadata_bytes,
        sched: sched_times.map(take_tally),
        cache: cache_times.map(take_tally),
        obs_events: recorder.map(|r| r.lock().expect("recorder poisoned").events),
    }
}

fn take_tally<T: Default>(tally: Arc<Mutex<T>>) -> T {
    std::mem::take(&mut *tally.lock().expect("probe tally poisoned"))
}

/// Trace queries that did not complete exactly once, plus completions of
/// ids the trace never submitted.
fn missed(trace: &Trace, log: &[(QueryId, f64)]) -> u64 {
    let mut seen: BTreeMap<QueryId, u32> = BTreeMap::new();
    for &(id, _) in log {
        *seen.entry(id).or_default() += 1;
    }
    let mut failed = 0;
    for (_, q) in trace.queries() {
        if seen.remove(&q.id) != Some(1) {
            failed += 1;
        }
    }
    failed + seen.len() as u64
}

/// FNV-1a over the masked report: a short behaviour fingerprint.
pub fn digest(masked: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in masked.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload's spec shrunk to a handful of jobs, for debug-build tests.
    fn tiny(w: Workload) -> Spec {
        let mut spec = w.spec(exp::TRACE_SEED);
        spec.gen.jobs = if w == Workload::SynthAnchor { 6 } else { 12 };
        spec
    }

    #[test]
    fn probes_and_recorders_leave_the_masked_report_unchanged() {
        for w in Workload::ALL {
            let spec = tiny(w);
            let plain = replay(set_up(&spec, Mode::default()));
            assert!(plain.correct(), "{}: plain replay lost queries", w.name());
            for mode in [
                Mode {
                    probes: true,
                    ..Mode::default()
                },
                Mode {
                    record_obs: true,
                    ..Mode::default()
                },
            ] {
                let other = replay(set_up(&spec, mode));
                assert_eq!(plain.masked, other.masked, "{}: {mode:?}", w.name());
                assert_eq!(other.sched.is_some(), mode.probes && spec.nodes == 1);
            }
        }
    }

    #[test]
    fn virtual_data_keeps_the_simulated_report() {
        let spec = tiny(Workload::SynthAnchor);
        let synth = replay(set_up(&spec, Mode::default()));
        let virt = replay(set_up(
            &spec,
            Mode {
                virtual_data: true,
                ..Mode::default()
            },
        ));
        assert!(synth.materializations > 0);
        assert_eq!(virt.materializations, 0);
        assert_eq!(synth.masked, virt.masked);
    }

    #[test]
    fn missed_counts_lost_duplicated_and_foreign_completions() {
        let trace = TraceGenerator::new(GenConfig::small(7)).generate();
        let mut log: Vec<(QueryId, f64)> = trace.queries().map(|(_, q)| (q.id, 1.0)).collect();
        assert_eq!(missed(&trace, &log), 0);
        let first = log[0];
        log.push(first); // completed twice
        log.remove(1); // never completed
        log.push((u64::MAX, 1.0)); // not a trace query
        assert_eq!(missed(&trace, &log), 3);
    }
}
