//! Multi-node cluster execution (§V-C, Fig. 7).
//!
//! "In the Turbulence cluster, data are partitioned spatially … and stored
//! across different nodes, each running a separate JAWS instance. Incoming
//! queries are first evaluated by the Query Pre-Processor … the positions are
//! then assigned to the workload queues of the corresponding atoms."
//!
//! [`ClusterExecutor`] is the one place that wires a replay over the shared
//! engine ([`crate::engine`]): the atom grid is split into N ≥ 1 contiguous
//! Morton slabs, and every node owns one across all timesteps and runs its
//! own [`NodePipeline`] — scheduler, buffer pool, simulated disk and
//! prefetcher. A query completes — and, for ordered jobs, unblocks its
//! successor — only when every per-node part has (the paper's "JAWS
//! combines and buffers the sub-query results before delivering the final
//! result to the user").
//!
//! [`ClusterExecutor::from_nodes`] takes caller-built nodes, a database and a
//! scheduler each; [`ClusterExecutor::new`] builds N slab-sized ones from a
//! [`ClusterConfig`] first. A one-node cluster is a plain server: its
//! aggregate report names the scheduler without a node count and its
//! observability records carry no node tag. Only building the nodes and
//! assembling the report live here; the rest of the replay is the engine's.

use crate::engine::{Engine, Routing};
use crate::failure::FailurePlan;
use crate::node::NodePipeline;
use crate::replication::{ReplicationConfig, ReplicationSummary};
use crate::report::{self, RunReport};
use crate::setup::{build_db, build_scheduler, CachePolicyKind, SchedulerKind};
use jaws_cache::CacheStats;
use jaws_morton::MortonKey;
use jaws_obs::ObsSink;
use jaws_scheduler::{finite_or_zero, MetricParams, Scheduler, SchedulerStats};
use jaws_turbdb::{CostModel, DbConfig, DiskStats, TurbDb};
use jaws_workload::{Job, QueryId, Trace};
use serde::{Deserialize, Serialize};

/// Engine knobs shared by every replay.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated-time cap; runs report `truncated = true` when they hit it.
    pub max_sim_ms: f64,
    /// Enable trajectory-based prefetching (§VII): when the pipeline would
    /// otherwise idle, extrapolated next-step atoms of ordered jobs are read
    /// into the cache ahead of demand.
    pub prefetch: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_sim_ms: 1e10,
            prefetch: false,
        }
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes; the atom grid is split into this many contiguous
    /// Morton slabs of ⌈atoms/nodes⌉ keys each (the last slab absorbs the
    /// remainder, so node counts need not divide the grid).
    pub nodes: u32,
    /// Geometry of the *whole* database (each node stores one slab of it).
    pub db: DbConfig,
    /// Cost model per node.
    pub cost: CostModel,
    /// Scheduler run on every node.
    pub scheduler: SchedulerKind,
    /// Cache policy per node.
    pub cache_policy: CachePolicyKind,
    /// Buffer-pool capacity per node, in atoms.
    pub cache_atoms_per_node: usize,
    /// Run length `r`.
    pub run_len: usize,
    /// Gate timeout per node, ms.
    pub gate_timeout_ms: f64,
    /// Engine knobs: per-node trajectory prefetching and the simulated-time
    /// cap.
    pub sim: SimConfig,
    /// Seeded failure scenario injected into the replay
    /// ([`FailurePlan::none`] for a healthy run). Validated against the node
    /// count at construction.
    pub failures: FailurePlan,
    /// Dynamic data placement: hot-atom replication with least-loaded
    /// replica routing ([`ReplicationConfig::disabled`] for the paper's
    /// static Morton slabs). Validated at construction.
    pub replication: ReplicationConfig,
}

/// Per-node measurements.
#[derive(Debug, Clone, Serialize)]
pub struct NodeReport {
    /// Node index.
    pub node: u32,
    /// Sub-query parts executed.
    pub parts_completed: u64,
    /// Speculative atom reads issued by this node's prefetcher.
    pub prefetch_reads: u64,
    /// Disk statistics.
    pub disk: DiskStats,
    /// Cache statistics.
    pub cache: CacheStats,
    /// Scheduler statistics.
    pub scheduler: SchedulerStats,
    /// Fraction of the makespan this node's pipeline was busy (0 when the
    /// run completed nothing — never NaN).
    pub utilization: f64,
    /// Simulated time this node's pipeline spent servicing batches, ms —
    /// the numerator of `utilization`, kept raw so load comparisons do not
    /// depend on a shared makespan divisor.
    pub busy_ms: f64,
    /// Final adaptive α of this node's controller (per-node controllers
    /// diverge under skewed slabs).
    pub alpha_final: f64,
    /// True when a scripted [`FailurePlan`] crash killed this node.
    pub failed: bool,
    /// Parts re-dispatched off this node when it crashed.
    pub redispatched_parts: u64,
    /// Straggler service-time multiplier in force at end of run (1.0 =
    /// never degraded).
    pub slowdown: f64,
}

/// Degraded-mode summary of a run under a non-empty [`FailurePlan`].
#[derive(Debug, Clone, Serialize)]
pub struct DegradedReport {
    /// The plan's explicit seed (replay handle).
    pub plan_seed: u64,
    /// Time the first scripted failure fired, if any fired before the cap.
    pub first_failure_ms: Option<f64>,
    /// Nodes killed by scripted crashes, ascending.
    pub failed_nodes: Vec<u32>,
    /// Total parts re-enqueued through survivors across all crashes.
    pub redispatched_parts: u64,
    /// `(node, factor)` for nodes degraded into stragglers, ascending.
    pub slowed_nodes: Vec<(u32, f64)>,
}

/// Cluster-level outcome: the aggregate [`RunReport`] plus per-node detail.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterReport {
    /// Aggregate measurements (throughput, response times, totals).
    pub aggregate: RunReport,
    /// Per-node breakdown.
    pub nodes: Vec<NodeReport>,
    /// Degraded-mode summary; `None` when the run's [`FailurePlan`] was
    /// empty (the serialized report is then byte-identical to a pre-failure
    /// one modulo the per-node status fields).
    pub degraded: Option<DegradedReport>,
    /// Dynamic-placement summary (replica table, promotion/demotion/routing
    /// counters); `None` when replication was disabled.
    pub replication: Option<ReplicationSummary>,
}

impl ClusterReport {
    /// Load imbalance: max/mean node busy time (1.0 = perfectly balanced).
    ///
    /// Computed over the raw per-node `busy_ms`, matching this doc — it used
    /// to divide `utilization` values instead, which is only equivalent when
    /// every node's utilization was derived from the *same* makespan; a
    /// report assembled or post-processed from heterogeneous runs silently
    /// got a makespan-weighted ratio.
    pub fn imbalance(&self) -> f64 {
        let max = self.nodes.iter().map(|n| n.busy_ms).fold(0.0f64, f64::max);
        let mean =
            self.nodes.iter().map(|n| n.busy_ms).sum::<f64>() / self.nodes.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Speculative atom reads issued across all nodes.
    pub fn prefetch_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.prefetch_reads).sum()
    }
}

/// The one executor: a shared clock over N ≥ 1 nodes, each a database and
/// its scheduler. One node is a plain server.
pub struct ClusterExecutor {
    pipelines: Vec<NodePipeline>,
    routing: Routing,
    sim: SimConfig,
    failures: FailurePlan,
    declared_jobs: Option<Vec<Job>>,
    response_log: Vec<(QueryId, f64)>,
    sink: ObsSink,
}

impl ClusterExecutor {
    /// Builds a cluster of `cfg.nodes` slab-sized nodes, each opening the
    /// whole geometry on virtual data behind its own cache and scheduler.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`ClusterExecutor::from_nodes`] rejects.
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.db.validate();
        let routing = Routing::new(cfg.db.atoms_per_timestep(), cfg.nodes, cfg.replication);
        // `atoms_per_timestep` feeds Eq. 2's per-timestep normalization, so
        // each node must be told the key count it *actually* owns — handing
        // everyone the ceil slab size would over-normalize (dampen) the
        // short last slab's aged-utility term. Clamped below at 1 so a
        // workless node's normalizer stays well-defined.
        let nodes = (0..cfg.nodes)
            .map(|node| {
                let params = MetricParams {
                    atom_read_ms: cfg.cost.atom_read_ms,
                    position_compute_ms: cfg.cost.position_compute_ms,
                    atoms_per_timestep: routing.owned_atoms(node).max(1),
                };
                // Every node opens the full geometry but only ever reads its
                // slab (plus stencil/prefetch spill-over); its cache and disk
                // stats therefore reflect its own traffic only.
                let db = build_db(
                    cfg.db,
                    cfg.cost,
                    jaws_turbdb::DataMode::Virtual,
                    cfg.cache_atoms_per_node,
                    cfg.cache_policy,
                );
                let scheduler =
                    build_scheduler(cfg.scheduler, params, cfg.run_len, cfg.gate_timeout_ms);
                (db, scheduler)
            })
            .collect();
        Self::from_nodes(nodes, cfg.sim, cfg.failures, cfg.replication)
    }

    /// Builds a cluster over caller-opened nodes: node `i` owns the `i`-th
    /// Morton slab and runs its database under its scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or exceeds the part-id packing budget
    /// ([`crate::engine::MAX_NODE_INDEX`]), if the nodes' databases do not share
    /// one [`DbConfig`], or if `failures` or `replication` is invalid for
    /// the node count.
    pub fn from_nodes(
        nodes: Vec<(TurbDb, Box<dyn Scheduler>)>,
        sim: SimConfig,
        failures: FailurePlan,
        replication: ReplicationConfig,
    ) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        let db = *nodes[0].0.config();
        assert!(
            nodes.iter().all(|(d, _)| *d.config() == db),
            "every node must open the same DbConfig"
        );
        let count = u32::try_from(nodes.len()).unwrap_or(u32::MAX);
        let routing = Routing::new(db.atoms_per_timestep(), count, replication);
        failures.validate(count);
        replication.validate();
        ClusterExecutor {
            pipelines: nodes
                .into_iter()
                .map(|(db, scheduler)| NodePipeline::new(db, scheduler, sim.prefetch))
                .collect(),
            routing,
            sim,
            failures,
            declared_jobs: None,
            response_log: Vec::new(),
            sink: ObsSink::null(),
        }
    }

    /// Wires an observability sink through every node's pipeline and the
    /// shared engine loop; a cluster of more than one node tags each node's
    /// records with its index. Tracing never changes what is simulated: the
    /// report and completion log are byte-identical to an unwired run's.
    pub fn set_recorder(&mut self, sink: ObsSink) {
        let tagged = self.pipelines.len() > 1;
        for (i, p) in self.pipelines.iter_mut().enumerate() {
            p.set_recorder(if tagged {
                sink.with_node(i as u32)
            } else {
                sink.clone()
            });
        }
        self.sink = sink;
    }

    /// Overrides the job declarations the schedulers see: instead of each
    /// trace job at its arrival, these jobs are declared at t = 0, each
    /// node told its projection. Execution semantics (arrivals, precedence,
    /// think times) still follow the trace — only the schedulers'
    /// *knowledge* of job structure changes. Every later
    /// [`ClusterExecutor::run`] declares them again at its start. Used to
    /// evaluate heuristic job identification (§IV-A) against ground truth.
    pub fn declare_jobs(&mut self, jobs: Vec<Job>) {
        self.declared_jobs = Some(jobs);
    }

    /// The node owning a Morton key under the static partition: contiguous
    /// Morton slabs of ⌈atoms/nodes⌉ keys, the last node owning the short
    /// remainder.
    pub fn node_of(&self, m: MortonKey) -> u32 {
        self.routing.node_of(m)
    }

    /// Node `node`'s database (post-run inspection).
    pub fn db(&self, node: usize) -> &TurbDb {
        self.pipelines[node].db()
    }

    /// Node `node`'s scheduler (post-run inspection).
    pub fn scheduler(&self, node: usize) -> &dyn Scheduler {
        self.pipelines[node].scheduler()
    }

    /// Per-query response times of every run so far, in completion order,
    /// under the original trace query ids (parts are folded into their
    /// query).
    pub fn response_log(&self) -> &[(QueryId, f64)] {
        &self.response_log
    }

    /// Replays `trace` on the cluster.
    ///
    /// # Panics
    ///
    /// Panics if the trace geometry does not match the database (timesteps or
    /// atom grid).
    pub fn run(&mut self, trace: &Trace) -> ClusterReport {
        let outcome = Engine::run(
            &mut self.pipelines,
            self.routing,
            &self.sim,
            trace,
            self.declared_jobs.as_deref(),
            &self.failures,
            &self.sink,
        );

        let mut disk = DiskStats::default();
        let mut cache = CacheStats::default();
        let mut sched = SchedulerStats::default();
        for p in &self.pipelines {
            let (d, c, s) = (
                p.db().disk_stats(),
                p.db().cache_stats(),
                p.scheduler().stats(),
            );
            disk.reads += d.reads;
            disk.seeks += d.seeks;
            disk.io_ms += d.io_ms;
            cache.hits += c.hits;
            cache.misses += c.misses;
            cache.evictions += c.evictions;
            cache.policy_overhead_ns += c.policy_overhead_ns;
            sched.batches += s.batches;
            sched.atom_groups += s.atom_groups;
            sched.subqueries += s.subqueries;
            sched.forced_releases += s.forced_releases;
        }
        // `from_nodes` asserts at least one node.
        let first_node = &self.pipelines[0];
        // Per-node adaptive controllers diverge (skewed slabs see different
        // workloads), so the aggregate α is the node-count-weighted mean —
        // equal weight per controller — not node 0's final value.
        let alpha_mean = self
            .pipelines
            .iter()
            .map(|p| p.scheduler().alpha())
            .sum::<f64>()
            / self.pipelines.len() as f64;
        // A one-node cluster is a plain server and reports as one.
        let scheduler = match self.pipelines.len() {
            1 => first_node.scheduler().name().to_string(),
            n => format!("{n}x{}", first_node.scheduler().name()),
        };
        let aggregate = report::assemble(
            scheduler,
            first_node.db().cache_policy_name().to_string(),
            &outcome.totals,
            cache,
            disk,
            sched,
            alpha_mean,
        );
        let makespan_ms = aggregate.makespan_ms;
        let nodes = self
            .pipelines
            .iter()
            .enumerate()
            .map(|(i, p)| NodeReport {
                node: i as u32,
                parts_completed: p.parts_completed(),
                prefetch_reads: p.prefetch_reads(),
                disk: p.db().disk_stats(),
                cache: p.db().cache_stats(),
                scheduler: p.scheduler().stats(),
                // A zero-completion run has a zero makespan; the guard
                // keeps the ratio (and imbalance()) NaN-free.
                utilization: finite_or_zero(p.busy_ms() / makespan_ms),
                busy_ms: p.busy_ms(),
                alpha_final: p.scheduler().alpha(),
                failed: !outcome.alive[i],
                redispatched_parts: p.redispatched_parts(),
                slowdown: p.service_multiplier(),
            })
            .collect::<Vec<_>>();
        #[expect(
            clippy::float_cmp,
            reason = "exact sentinel, not ranking logic: a slowdown of 1.0 is the \
                      never-degraded default and factors are copied verbatim from the plan"
        )]
        let degraded = (!self.failures.is_empty()).then(|| DegradedReport {
            plan_seed: self.failures.seed(),
            first_failure_ms: outcome.first_failure_ms,
            failed_nodes: outcome
                .alive
                .iter()
                .enumerate()
                .filter(|(_, &a)| !a)
                .map(|(i, _)| i as u32)
                .collect(),
            redispatched_parts: nodes.iter().map(|n| n.redispatched_parts).sum(),
            slowed_nodes: nodes
                .iter()
                .filter(|n| n.slowdown != 1.0)
                .map(|n| (n.node, n.slowdown))
                .collect(),
        });
        self.response_log.extend(outcome.totals.response_log);
        ClusterReport {
            aggregate,
            nodes,
            degraded,
            replication: outcome.replication,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use jaws_workload::{Footprint, GenConfig, TraceGenerator};
    use proptest::prelude::*;

    fn cluster_cfg(nodes: u32, scheduler: SchedulerKind) -> ClusterConfig {
        ClusterConfig {
            nodes,
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
            cache_atoms_per_node: 8,
            run_len: 25,
            gate_timeout_ms: 10_000.0,
            sim: SimConfig::default(),
            failures: FailurePlan::none(),
            replication: ReplicationConfig::disabled(),
        }
    }

    #[test]
    fn single_node_cluster_matches_trace_totals() {
        let trace = TraceGenerator::new(GenConfig::small(51)).generate();
        let mut ex = ClusterExecutor::new(cluster_cfg(1, SchedulerKind::Jaws2 { batch_k: 8 }));
        let r = ex.run(&trace);
        assert_eq!(r.aggregate.queries_completed, trace.query_count() as u64);
        assert_eq!(r.aggregate.jobs_completed, trace.jobs.len() as u64);
        assert!(!r.aggregate.truncated);
    }

    #[test]
    fn multi_node_cluster_drains_and_splits_work() {
        let trace = TraceGenerator::new(GenConfig::small(53)).generate();
        let mut ex = ClusterExecutor::new(cluster_cfg(4, SchedulerKind::Jaws2 { batch_k: 8 }));
        let r = ex.run(&trace);
        assert_eq!(r.aggregate.queries_completed, trace.query_count() as u64);
        // Every node saw some work (footprints are scattered blobs).
        let active = r.nodes.iter().filter(|n| n.parts_completed > 0).count();
        assert!(active >= 3, "only {active} of 4 nodes did work");
        assert!(r.imbalance() >= 1.0);
    }

    #[test]
    fn more_nodes_speed_up_the_replay() {
        let trace = TraceGenerator::new(GenConfig::small(55)).generate();
        // Compress arrivals so the run is capacity-bound, then scale out.
        let trace = trace.speedup(20.0);
        let mut one = ClusterExecutor::new(cluster_cfg(1, SchedulerKind::LifeRaft2));
        let mut four = ClusterExecutor::new(cluster_cfg(4, SchedulerKind::LifeRaft2));
        let r1 = one.run(&trace);
        let r4 = four.run(&trace);
        assert_eq!(
            r1.aggregate.queries_completed,
            r4.aggregate.queries_completed
        );
        assert!(
            r4.aggregate.makespan_ms < r1.aggregate.makespan_ms,
            "4 nodes {:.0} ms vs 1 node {:.0} ms",
            r4.aggregate.makespan_ms,
            r1.aggregate.makespan_ms
        );
    }

    #[test]
    fn morton_slabs_partition_the_grid_evenly() {
        let ex = ClusterExecutor::new(cluster_cfg(4, SchedulerKind::NoShare));
        let mut counts = [0u64; 4];
        for m in 0..64u64 {
            counts[ex.node_of(MortonKey(m)) as usize] += 1;
        }
        assert_eq!(counts, [16, 16, 16, 16]);
    }

    #[test]
    fn uneven_split_routes_every_atom_and_drains() {
        // 3 nodes over 64 atoms/ts: ceil slabs of 22 — keys 0..=21, 22..=43,
        // and the short remainder 44..=63 clamped onto node 2.
        let ex = ClusterExecutor::new(cluster_cfg(3, SchedulerKind::NoShare));
        let mut counts = [0u64; 3];
        for m in 0..64u64 {
            counts[ex.node_of(MortonKey(m)) as usize] += 1;
        }
        assert_eq!(counts, [22, 22, 20]);

        let trace = TraceGenerator::new(GenConfig::small(59)).generate();
        let mut ex = ClusterExecutor::new(cluster_cfg(3, SchedulerKind::Jaws2 { batch_k: 8 }));
        let r = ex.run(&trace);
        assert_eq!(r.aggregate.queries_completed, trace.query_count() as u64);
        assert_eq!(r.aggregate.jobs_completed, trace.jobs.len() as u64);
        let routed: u64 = r.nodes.iter().map(|n| n.parts_completed).sum();
        assert!(routed >= trace.query_count() as u64);
    }

    #[test]
    #[should_panic(expected = "trace spans 8 timesteps, beyond the database's 4")]
    fn cluster_rejects_a_trace_longer_than_the_database() {
        let trace = TraceGenerator::new(GenConfig::small(3)).generate();
        let mut cfg = cluster_cfg(2, SchedulerKind::Jaws2 { batch_k: 8 });
        cfg.db.timesteps = 4;
        ClusterExecutor::new(cfg).run(&trace);
    }

    #[test]
    fn cluster_runs_support_truncation() {
        let trace = TraceGenerator::new(GenConfig::small(57)).generate();
        let mut cfg = cluster_cfg(2, SchedulerKind::NoShare);
        cfg.sim.max_sim_ms = 10_000.0;
        let mut ex = ClusterExecutor::new(cfg);
        let r = ex.run(&trace);
        assert!(r.aggregate.truncated);
        assert!(r.aggregate.queries_completed < trace.query_count() as u64);
    }

    #[test]
    fn cluster_prefetching_issues_reads_on_ordered_chains() {
        use jaws_morton::MortonKey as MK;
        use jaws_workload::{Job, JobKind, Query, QueryOp, Trace};
        // A slow tracking chain drifting +1 in Morton-adjacent x: plenty of
        // idle time for every node's predictor.
        let q = |id: u64, ts: u32, x: u32| Query {
            id,
            user: 0,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            footprint: Footprint::from_pairs([(MK::from_coords(x, 1, 1), 200u32)]),
        };
        let trace = Trace::new(
            8,
            4,
            vec![Job {
                id: 1,
                user: 0,
                kind: JobKind::Ordered,
                campaign: 1,
                queries: (0..6).map(|i| q(i + 1, i as u32, (i as u32) % 4)).collect(),
                arrival_ms: 0.0,
                think_ms: 5_000.0,
            }],
        );
        let mut base_cfg = cluster_cfg(2, SchedulerKind::Jaws2 { batch_k: 8 });
        base_cfg.cache_atoms_per_node = 16;
        let mut pf_cfg = base_cfg.clone();
        pf_cfg.sim.prefetch = true;
        let base = ClusterExecutor::new(base_cfg).run(&trace);
        let pf = ClusterExecutor::new(pf_cfg).run(&trace);
        assert_eq!(base.prefetch_reads(), 0);
        assert!(pf.prefetch_reads() > 0, "no node's predictor fired");
        assert_eq!(
            pf.aggregate.queries_completed,
            base.aggregate.queries_completed
        );
    }

    #[test]
    fn prefetchers_drop_the_trajectories_of_finished_jobs() {
        let trace = TraceGenerator::new(GenConfig::small(53))
            .generate()
            .speedup(20.0);
        let mut cfg = cluster_cfg(4, SchedulerKind::Jaws2 { batch_k: 8 });
        cfg.sim.prefetch = true;
        let mut ex = ClusterExecutor::new(cfg);
        let r = ex.run(&trace);
        assert_eq!(r.aggregate.jobs_completed, trace.jobs.len() as u64);
        assert!(r.prefetch_reads() > 0, "no node's predictor fired");
        for (node, p) in ex.pipelines.iter().enumerate() {
            let kept = p.prefetcher().map_or(0, |pf| pf.tracked_jobs());
            assert_eq!(kept, 0, "node {node} kept finished jobs' trajectories");
        }
    }

    /// A scheduler that panics when handed a part it was never declared,
    /// wrapped around a real one.
    struct DeclaredOnly {
        inner: Box<dyn Scheduler>,
        declared: std::collections::BTreeSet<QueryId>,
    }

    impl Scheduler for DeclaredOnly {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn job_declared(&mut self, job: &Job, now_ms: f64) {
            self.declared.extend(job.queries.iter().map(|q| q.id));
            self.inner.job_declared(job, now_ms);
        }
        fn query_available(&mut self, query: &jaws_workload::Query, now_ms: f64) {
            assert!(
                self.declared.contains(&query.id),
                "part {:#x} was never declared",
                query.id
            );
            self.inner.query_available(query, now_ms);
        }
        fn next_batch(
            &mut self,
            now_ms: f64,
            residency: &dyn jaws_scheduler::Residency,
        ) -> Option<jaws_scheduler::Batch> {
            self.inner.next_batch(now_ms, residency)
        }
        fn on_query_complete(&mut self, query: QueryId, response_ms: f64, now_ms: f64) {
            self.inner.on_query_complete(query, response_ms, now_ms);
        }
        fn recycle_batch(&mut self, batch: jaws_scheduler::Batch) {
            self.inner.recycle_batch(batch);
        }
        fn query_withdrawn(&mut self, query: QueryId, now_ms: f64) {
            self.inner.query_withdrawn(query, now_ms);
        }
        fn has_pending(&self) -> bool {
            self.inner.has_pending()
        }
        fn take_run_boundary(&mut self) -> bool {
            self.inner.take_run_boundary()
        }
        fn alpha(&self) -> f64 {
            self.inner.alpha()
        }
        fn utility_snapshot(
            &mut self,
            residency: &dyn jaws_scheduler::Residency,
        ) -> jaws_scheduler::UtilitySnapshot {
            self.inner.utility_snapshot(residency)
        }
        fn stats(&self) -> SchedulerStats {
            self.inner.stats()
        }
    }

    /// Jobs declared up front are never projected again at their arrival,
    /// so a crash must declare the survivor's share of every one of them,
    /// arrived or not: without replication, every part a node is handed
    /// was declared to it.
    #[test]
    fn a_crash_redeclares_jobs_declared_up_front() {
        let trace = TraceGenerator::new(GenConfig::small(2009_0720))
            .generate()
            .speedup(20.0);
        let last_arrival = trace
            .jobs
            .iter()
            .map(|j| j.arrival_ms)
            .fold(0.0f64, f64::max);
        let cfg = cluster_cfg(4, SchedulerKind::Jaws2 { batch_k: 15 });
        let nodes = (0..4)
            .map(|_| {
                let db = build_db(
                    cfg.db,
                    cfg.cost,
                    jaws_turbdb::DataMode::Virtual,
                    16,
                    cfg.cache_policy,
                );
                let inner = build_scheduler(
                    cfg.scheduler,
                    MetricParams::paper_testbed(),
                    cfg.run_len,
                    cfg.gate_timeout_ms,
                );
                let sched: Box<dyn Scheduler> = Box::new(DeclaredOnly {
                    inner,
                    declared: Default::default(),
                });
                (db, sched)
            })
            .collect();
        let mut ex = ClusterExecutor::from_nodes(
            nodes,
            SimConfig::default(),
            FailurePlan::new(17).crash_at(0.5 * last_arrival, 1),
            ReplicationConfig::disabled(),
        );
        ex.declare_jobs(trace.jobs.clone());
        let r = ex.run(&trace);
        assert_eq!(r.aggregate.queries_completed, trace.query_count() as u64);
        let d = r.degraded.as_ref().expect("node 1 crashed");
        assert!(d.redispatched_parts > 0, "the crash moved no work");
    }

    #[test]
    fn ordered_chains_respect_cross_node_barriers() {
        use jaws_morton::MortonKey as MK;
        use jaws_workload::{Job, JobKind, Query, QueryOp, Trace};
        // One ordered job whose every query spans two nodes' slabs: the
        // second query must not start before both parts of the first finish.
        let q = |id: u64, ts: u32| Query {
            id,
            user: 0,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            // Atoms 0 (node 0) and 63 (node 3) in a 4-node split of 64.
            footprint: Footprint::from_pairs([(MK(0), 50u32), (MK(63), 50u32)]),
        };
        let trace = Trace::new(
            8,
            4,
            vec![Job {
                id: 1,
                user: 0,
                kind: JobKind::Ordered,
                campaign: 1,
                queries: vec![q(1, 0), q(2, 1), q(3, 2)].into(),
                arrival_ms: 0.0,
                think_ms: 100.0,
            }],
        );
        let mut ex = ClusterExecutor::new(cluster_cfg(4, SchedulerKind::LifeRaft2));
        let r = ex.run(&trace);
        assert_eq!(r.aggregate.queries_completed, 3);
        // Both end nodes executed one part per query.
        assert_eq!(r.nodes[0].parts_completed, 3);
        assert_eq!(r.nodes[3].parts_completed, 3);
        assert_eq!(r.nodes[1].parts_completed, 0);
    }

    #[test]
    fn owned_atoms_reflect_the_clamped_partition() {
        // 3 nodes over 64 atoms/ts: ceil slabs of 22 → the last node owns the
        // short remainder of 20 keys, and Eq. 2 normalization must use it.
        let r = Routing::new(64, 3, ReplicationConfig::disabled());
        assert_eq!(r.owned_atoms(0), 22);
        assert_eq!(r.owned_atoms(1), 22);
        assert_eq!(r.owned_atoms(2), 20);
        // 9 nodes over 64: slabs of 8 fill nodes 0..=7; node 8 owns nothing
        // (`ClusterExecutor::new` clamps its normalizer to 1).
        let r = Routing::new(64, 9, ReplicationConfig::disabled());
        assert_eq!(r.owned_atoms(7), 8);
        assert_eq!(r.owned_atoms(8), 0);
        // Even splits are unchanged.
        let r = Routing::new(64, 4, ReplicationConfig::disabled());
        for n in 0..4 {
            assert_eq!(r.owned_atoms(n), 16);
        }
    }

    #[test]
    fn aggregate_alpha_is_the_mean_of_divergent_node_controllers() {
        use jaws_morton::MortonKey as MK;
        use jaws_workload::{Job, JobKind, Query, QueryOp, Trace};
        // Concentrate every footprint on node 0's slab with a short run
        // length: node 0's adaptive controller steps through many run
        // boundaries while the starved nodes keep α₀, forcing divergence.
        let q = |id: u64, ts: u32| Query {
            id,
            user: 0,
            op: QueryOp::Velocity,
            timestep: ts % 8,
            footprint: Footprint::from_pairs([(MK(id % 4), 60u32)]),
        };
        let jobs = (0..4u64)
            .map(|j| Job {
                id: j + 1,
                user: j as u32,
                kind: JobKind::Batched,
                campaign: 1,
                queries: (0..30u64).map(|i| q(j * 30 + i + 1, i as u32)).collect(),
                arrival_ms: 0.0,
                think_ms: 10.0,
            })
            .collect();
        let trace = Trace::new(8, 4, jobs);
        let mut cfg = cluster_cfg(3, SchedulerKind::Jaws2 { batch_k: 8 });
        cfg.run_len = 10;
        let r = ClusterExecutor::new(cfg).run(&trace);
        assert_eq!(r.aggregate.queries_completed, trace.query_count() as u64);
        let alphas: Vec<f64> = r.nodes.iter().map(|n| n.alpha_final).collect();
        assert!(
            (alphas[0] - alphas[2]).abs() > 1e-9,
            "controllers never diverged: {alphas:?}"
        );
        let mean = alphas.iter().sum::<f64>() / alphas.len() as f64;
        assert_eq!(
            r.aggregate.alpha_final.to_bits(),
            mean.to_bits(),
            "aggregate α must be the node-count-weighted mean"
        );
        assert_ne!(
            r.aggregate.alpha_final.to_bits(),
            alphas[0].to_bits(),
            "aggregate α must not be node 0's value alone"
        );
    }

    #[test]
    fn empty_trace_reports_zero_utilization_not_nan() {
        use jaws_workload::Trace;
        let trace = Trace::new(8, 4, vec![]);
        let r = ClusterExecutor::new(cluster_cfg(2, SchedulerKind::NoShare)).run(&trace);
        assert_eq!(r.aggregate.queries_completed, 0);
        for n in &r.nodes {
            assert_eq!(
                n.utilization.to_bits(),
                0.0f64.to_bits(),
                "node {} utilization must be exactly 0, got {}",
                n.node,
                n.utilization
            );
        }
        let imb = r.imbalance();
        assert!(imb.is_finite(), "imbalance poisoned: {imb}");
    }

    #[test]
    fn truncated_runs_fold_part_ids_in_the_response_log() {
        use std::collections::BTreeSet;
        let trace = TraceGenerator::new(GenConfig::small(57)).generate();
        let mut cfg = cluster_cfg(4, SchedulerKind::Jaws2 { batch_k: 8 });
        cfg.sim.max_sim_ms = 10_000.0;
        let mut ex = ClusterExecutor::new(cfg);
        let r = ex.run(&trace);
        assert!(r.aggregate.truncated, "cap did not cut the replay");
        assert!(!ex.response_log().is_empty());
        let trace_ids: BTreeSet<u64> = trace
            .jobs
            .iter()
            .flat_map(|j| j.queries.iter().map(|q| q.id))
            .collect();
        for &(qid, rt) in ex.response_log() {
            assert!(
                qid <= engine::PART_QUERY_MASK,
                "raw part id {qid:#x} leaked into the response log"
            );
            assert!(trace_ids.contains(&qid), "log id {qid} not a trace query");
            assert!(rt.is_finite() && rt >= 0.0);
        }
    }

    #[test]
    fn crashed_node_work_is_redispatched_and_the_trace_drains() {
        let trace = TraceGenerator::new(GenConfig::small(53)).generate();
        // Compress arrivals so node 1 holds queued work when it dies.
        let trace = trace.speedup(20.0);
        let mut cfg = cluster_cfg(4, SchedulerKind::Jaws2 { batch_k: 8 });
        let healthy = ClusterExecutor::new(cfg.clone()).run(&trace);
        assert!(healthy.degraded.is_none(), "healthy run must not degrade");
        cfg.failures =
            FailurePlan::new(17).crash_with_survivor(0.5 * healthy.aggregate.makespan_ms, 1, 2);
        let mut ex = ClusterExecutor::new(cfg);
        let r = ex.run(&trace);
        assert_eq!(
            r.aggregate.queries_completed,
            trace.query_count() as u64,
            "re-dispatch failed to drain the dead node's slab"
        );
        assert!(!r.aggregate.truncated);
        assert!(r.nodes[1].failed, "crashed node not marked failed");
        assert!(!r.nodes[2].failed);
        let d = r
            .degraded
            .as_ref()
            .expect("degraded section for a failure run");
        assert_eq!(d.failed_nodes, vec![1]);
        assert_eq!(d.redispatched_parts, r.nodes[1].redispatched_parts);
        assert!(
            d.redispatched_parts > 0,
            "node 1 held no work at the crash — the scenario tests nothing"
        );
        assert!(d.first_failure_ms.is_some());
        // A crash run is the case where busy time and utilization disagree
        // in spirit: the dead node's pipeline stops accumulating busy-ms
        // while the survivor's inflates. The busy-time imbalance must be a
        // finite ratio strictly above balanced, and must agree with a
        // recomputation from the reported per-node busy_ms fields.
        let imb = r.imbalance();
        assert!(imb.is_finite() && imb > 1.0, "degraded imbalance {imb}");
        let max = r.nodes.iter().map(|n| n.busy_ms).fold(0.0f64, f64::max);
        let mean = r.nodes.iter().map(|n| n.busy_ms).sum::<f64>() / r.nodes.len() as f64;
        assert_eq!(imb.to_bits(), (max / mean).to_bits());
        // The log still folds to trace query ids only.
        for &(qid, _) in ex.response_log() {
            assert!(qid <= engine::PART_QUERY_MASK);
        }
    }

    /// The trace every dynamic-placement test shares: four batched jobs
    /// hammering `MortonKey(0)` — node 0's slab in a 4-node split of 64 keys
    /// — the canonical hot-atom skew replication exists to fix.
    fn hot_atom_trace() -> jaws_workload::Trace {
        use jaws_morton::MortonKey as MK;
        use jaws_workload::{Job, JobKind, Query, QueryOp, Trace};
        let q = |id: u64| Query {
            id,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs([(MK(0), 60u32)]),
        };
        let jobs = (0..4u64)
            .map(|j| Job {
                id: j + 1,
                user: j as u32,
                kind: JobKind::Batched,
                campaign: 1,
                queries: (0..10u64).map(|i| q(j * 10 + i + 1)).collect(),
                arrival_ms: j as f64 * 50.0,
                think_ms: 0.0,
            })
            .collect();
        Trace::new(8, 4, jobs)
    }

    #[test]
    fn hot_atom_replication_promotes_and_diverts_load() {
        let trace = hot_atom_trace();
        let static_run =
            ClusterExecutor::new(cluster_cfg(4, SchedulerKind::Jaws2 { batch_k: 8 })).run(&trace);
        assert!(
            static_run.replication.is_none(),
            "disabled must report None"
        );

        let mut cfg = cluster_cfg(4, SchedulerKind::Jaws2 { batch_k: 8 });
        cfg.replication = ReplicationConfig::on();
        let r = ClusterExecutor::new(cfg).run(&trace);
        assert_eq!(r.aggregate.queries_completed, trace.query_count() as u64);
        let rep = r.replication.as_ref().expect("replication summary");
        assert!(rep.promotions >= 1, "the hot atom never promoted");
        assert!(
            rep.replica_routed > 0,
            "no sub-query was diverted to a replica"
        );
        assert!(
            rep.replicas.iter().any(|e| e.morton == 0),
            "the hot atom is missing from the replica table: {:?}",
            rep.replicas
        );
        // The replica host actually absorbed diverted work.
        let helpers: u64 = r.nodes[1..].iter().map(|n| n.parts_completed).sum();
        assert!(helpers > 0, "every part still ran on the static owner");
        assert!(
            r.imbalance() < static_run.imbalance(),
            "replication did not reduce imbalance: {:.3} vs static {:.3}",
            r.imbalance(),
            static_run.imbalance()
        );
    }

    #[test]
    fn crashed_node_drops_its_replicas_and_the_trace_drains() {
        // Same skew, co-designed with the failure layer: promote a replica,
        // find its host from the healthy report, then crash that host
        // mid-run. The directory must drop the dead node's replicas (routing
        // falls back to the slab owner) while slab re-chaining drains the
        // trace exactly as in the replication-free crash scenario.
        let trace = hot_atom_trace();
        let mut cfg = cluster_cfg(4, SchedulerKind::Jaws2 { batch_k: 8 });
        cfg.replication = ReplicationConfig::on();
        let healthy = ClusterExecutor::new(cfg.clone()).run(&trace);
        let rep = healthy.replication.as_ref().expect("replication summary");
        let host = rep.replicas.first().expect("a replica promoted").nodes[0];
        assert_ne!(host, 0, "a replica must never land on the owner");
        let survivor = if host == 3 { 2 } else { 3 };
        cfg.failures = FailurePlan::new(17).crash_with_survivor(
            0.5 * healthy.aggregate.makespan_ms,
            host,
            survivor,
        );
        let r = ClusterExecutor::new(cfg).run(&trace);
        assert_eq!(
            r.aggregate.queries_completed,
            trace.query_count() as u64,
            "replica host crash left queries behind"
        );
        assert!(!r.aggregate.truncated);
        assert!(r.nodes[host as usize].failed);
        let rep = r.replication.as_ref().expect("replication summary");
        assert!(
            rep.crash_drops >= 1,
            "the crashed host's replicas were never dropped"
        );
        assert!(
            rep.replicas.iter().all(|e| !e.nodes.contains(&host)),
            "a dead node is still in the replica table: {:?}",
            rep.replicas
        );
    }

    #[test]
    fn imbalance_is_computed_over_busy_time_not_utilization() {
        // Regression: `imbalance()` documented max/mean *busy time* but
        // divided `utilization` values. Equivalent only while every node's
        // utilization shares one makespan divisor; a report whose
        // utilizations are stale or heterogeneous silently degraded to the
        // mean-zero guard. Pre-fix this returned 1.0; the busy-ms ratio is
        // 3000/2000 = 1.5.
        let trace = jaws_workload::Trace::new(8, 4, vec![]);
        let mut r = ClusterExecutor::new(cluster_cfg(2, SchedulerKind::NoShare)).run(&trace);
        for n in &mut r.nodes {
            n.utilization = 0.0;
        }
        r.nodes[0].busy_ms = 3000.0;
        r.nodes[1].busy_ms = 1000.0;
        assert!(
            (r.imbalance() - 1.5).abs() < 1e-12,
            "imbalance must ratio busy time, got {}",
            r.imbalance()
        );
    }

    #[test]
    fn straggler_slowdown_stretches_the_replay() {
        let trace = TraceGenerator::new(GenConfig::small(55))
            .generate()
            .speedup(20.0);
        let mut cfg = cluster_cfg(2, SchedulerKind::LifeRaft2);
        let healthy = ClusterExecutor::new(cfg.clone()).run(&trace);
        cfg.failures = FailurePlan::new(5).slowdown_at(0.0, 0, 8.0);
        let r = ClusterExecutor::new(cfg).run(&trace);
        assert_eq!(r.aggregate.queries_completed, trace.query_count() as u64);
        assert!(
            r.aggregate.makespan_ms > healthy.aggregate.makespan_ms,
            "8x straggler did not stretch the makespan ({:.0} vs {:.0})",
            r.aggregate.makespan_ms,
            healthy.aggregate.makespan_ms
        );
        assert_eq!(r.nodes[0].slowdown.to_bits(), 8.0f64.to_bits());
        assert!(!r.nodes[0].failed);
        let d = r.degraded.expect("degraded section");
        assert!(d.failed_nodes.is_empty());
        assert_eq!(d.slowed_nodes.len(), 1);
        assert_eq!(d.slowed_nodes[0].0, 0);
        assert_eq!(d.slowed_nodes[0].1.to_bits(), 8.0f64.to_bits());
    }

    proptest! {
        /// Ceil-sized Morton slabs partition the grid for *any* node count,
        /// including ones that do not divide the atoms per timestep: every
        /// key maps to a valid node, slab assignment is monotone (contiguous
        /// slabs), and every node below the clamp point owns exactly
        /// ⌈per_ts/nodes⌉ keys.
        #[test]
        fn uneven_node_counts_partition_the_grid(nodes in 1u32..=16) {
            let ex = ClusterExecutor::new(cluster_cfg(nodes, SchedulerKind::NoShare));
            let per_ts = 64u64; // 32³ grid of 8³ atoms = 4³ atoms/ts
            let slab = per_ts.div_ceil(nodes as u64);
            let mut prev = 0u32;
            let mut counts = vec![0u64; nodes as usize];
            for m in 0..per_ts {
                let n = ex.node_of(MortonKey(m));
                prop_assert!(n < nodes, "key {m} routed to node {n} of {nodes}");
                prop_assert!(n >= prev, "slab assignment must be monotone in Morton order");
                prev = n;
                counts[n as usize] += 1;
            }
            for (i, &c) in counts.iter().enumerate() {
                if (i as u64) < per_ts.div_ceil(slab) - 1 {
                    prop_assert_eq!(c, slab, "node {} owns a full slab", i);
                }
            }
            prop_assert_eq!(counts.iter().sum::<u64>(), per_ts);
        }

        /// `(query, node)` round-trips through part-id packing over the full
        /// supported range of both fields; node 0's part ids are the trace
        /// ids, and parts of one query on different nodes never collide.
        #[test]
        fn part_id_packing_round_trips(
            query in 0u64..=engine::PART_QUERY_MASK,
            node in 0u32..=engine::MAX_NODE_INDEX,
            other in 0u32..=engine::MAX_NODE_INDEX,
        ) {
            let pid = engine::part_id(query, node);
            prop_assert_eq!(engine::orig_id(pid), query);
            prop_assert_eq!(engine::part_node(pid), node);
            prop_assert_eq!(engine::part_id(query, 0), query);
            prop_assert_eq!(pid == engine::part_id(query, other), node == other);
        }
    }
}

/// The engine's behaviour on one node built by the caller: draining,
/// sharing, truncation, URC's scheduler knowledge and prefetching.
#[cfg(test)]
mod one_node_tests {
    use super::*;
    use crate::setup::{build_db, build_scheduler, CachePolicyKind, SchedulerKind};
    use jaws_morton::MortonKey;
    use jaws_scheduler::MetricParams;
    use jaws_turbdb::{CostModel, DataMode, DbConfig};
    use jaws_workload::{Footprint, GenConfig, Job, JobKind, Query, QueryOp, TraceGenerator};

    /// A one-node cluster over a caller-built database and scheduler.
    fn one_node(db: TurbDb, sched: Box<dyn Scheduler>, sim: SimConfig) -> ClusterExecutor {
        ClusterExecutor::from_nodes(
            vec![(db, sched)],
            sim,
            FailurePlan::none(),
            ReplicationConfig::disabled(),
        )
    }

    fn small_db_config() -> DbConfig {
        DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: 5,
        }
    }

    fn run_kind(kind: SchedulerKind, seed: u64) -> RunReport {
        let trace = TraceGenerator::new(GenConfig::small(seed)).generate();
        let db = build_db(
            small_db_config(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            16,
            CachePolicyKind::LruK,
        );
        let sched = build_scheduler(kind, MetricParams::paper_testbed(), 25, 10_000.0);
        let mut ex = one_node(db, sched, SimConfig::default());
        ex.run(&trace).aggregate
    }

    #[test]
    fn every_scheduler_drains_the_trace() {
        let trace = TraceGenerator::new(GenConfig::small(5)).generate();
        let total = trace.query_count() as u64;
        for kind in SchedulerKind::evaluation_set() {
            let r = run_kind(kind, 5);
            assert_eq!(
                r.queries_completed,
                total,
                "{} left queries behind",
                kind.name()
            );
            assert!(!r.truncated, "{} truncated", kind.name());
            assert_eq!(r.jobs_completed, trace.jobs.len() as u64);
            assert!(r.throughput_qps > 0.0);
            assert!(r.mean_response_ms > 0.0);
        }
    }

    #[test]
    fn batch_schedulers_beat_noshare_on_contended_traces() {
        let noshare = run_kind(SchedulerKind::NoShare, 7);
        let jaws2 = run_kind(SchedulerKind::Jaws2 { batch_k: 10 }, 7);
        assert!(
            jaws2.throughput_qps > noshare.throughput_qps,
            "JAWS {:.3} q/s vs NoShare {:.3} q/s",
            jaws2.throughput_qps,
            noshare.throughput_qps
        );
    }

    #[test]
    fn shared_scans_reduce_disk_reads() {
        let noshare = run_kind(SchedulerKind::NoShare, 9);
        let liferaft2 = run_kind(SchedulerKind::LifeRaft2, 9);
        assert!(
            liferaft2.disk.reads < noshare.disk.reads,
            "LifeRaft {} reads vs NoShare {}",
            liferaft2.disk.reads,
            noshare.disk.reads
        );
    }

    /// A JAWS₂ node over the small trace with `jobs` declared up front.
    fn run_declared(trace: &jaws_workload::Trace, jobs: Vec<Job>) {
        let db = build_db(
            small_db_config(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            16,
            CachePolicyKind::LruK,
        );
        let sched = build_scheduler(
            SchedulerKind::Jaws2 { batch_k: 10 },
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        let mut ex = one_node(db, sched, SimConfig::default());
        ex.declare_jobs(jobs);
        ex.run(trace);
    }

    #[test]
    #[should_panic(expected = "is in no declared job")]
    fn declared_jobs_must_hold_every_trace_query() {
        let trace = TraceGenerator::new(GenConfig::small(5)).generate();
        let mut jobs = trace.jobs.clone();
        let last = jobs.pop().expect("a job");
        let mut kept = last.queries.to_vec();
        kept.pop();
        jobs.push(Job {
            queries: kept.into(),
            ..last
        });
        run_declared(&trace, jobs);
    }

    #[test]
    #[should_panic(expected = "is not in the trace")]
    fn declared_jobs_must_hold_only_trace_queries() {
        let trace = TraceGenerator::new(GenConfig::small(5)).generate();
        let mut jobs = trace.jobs.clone();
        let mut extra = jobs[0].clone();
        let foreign = trace
            .jobs
            .iter()
            .flat_map(|j| j.queries.iter())
            .map(|q| q.id)
            .max();
        extra.queries = vec![Query {
            id: foreign.expect("a query") + 1,
            ..extra.queries[0].clone()
        }]
        .into();
        jobs.push(extra);
        run_declared(&trace, jobs);
    }

    #[test]
    #[should_panic(expected = "is declared twice")]
    fn declared_jobs_must_hold_each_query_once() {
        let trace = TraceGenerator::new(GenConfig::small(5)).generate();
        let mut jobs = trace.jobs.clone();
        jobs.push(jobs[0].clone());
        run_declared(&trace, jobs);
    }

    /// Jobs declared through [`ClusterExecutor::declare_jobs`] are declared again
    /// on every run, so a JAWS₂ node replays its trace a second time.
    #[test]
    fn declared_jobs_hold_for_every_run() {
        let trace = TraceGenerator::new(GenConfig::small(5)).generate();
        let db = build_db(
            small_db_config(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            16,
            CachePolicyKind::LruK,
        );
        let sched = build_scheduler(
            SchedulerKind::Jaws2 { batch_k: 10 },
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        let mut ex = one_node(db, sched, SimConfig::default());
        ex.declare_jobs(trace.jobs.clone());
        for _ in 0..2 {
            let r = ex.run(&trace).aggregate;
            assert_eq!(r.queries_completed, trace.query_count() as u64);
            assert!(!r.truncated);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = run_kind(SchedulerKind::Jaws2 { batch_k: 10 }, 3);
        let b = run_kind(SchedulerKind::Jaws2 { batch_k: 10 }, 3);
        assert_eq!(a.queries_completed, b.queries_completed);
        assert_eq!(a.disk.reads, b.disk.reads);
        assert!((a.makespan_ms - b.makespan_ms).abs() < 1e-6);
        assert!((a.throughput_qps - b.throughput_qps).abs() < 1e-9);
    }

    #[test]
    fn response_times_are_measured_from_submission() {
        // A single one-query job arriving at t=1000 must have response time
        // roughly its own service time, not counted from t=0.
        let q = Query {
            id: 1,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs([(MortonKey(0), 100u32)]),
        };
        let trace = Trace::new(
            8,
            4,
            vec![Job {
                id: 1,
                user: 0,
                kind: JobKind::Batched,
                campaign: 1,
                queries: vec![q].into(),
                arrival_ms: 1000.0,
                think_ms: 0.0,
            }],
        );
        let db = build_db(
            small_db_config(),
            CostModel {
                seek_ms: 10.0,
                atom_read_ms: 100.0,
                position_compute_ms: 1.0,
                batch_dispatch_ms: 0.0,
                stencil_neighbors: 0,
            },
            DataMode::Virtual,
            16,
            CachePolicyKind::Lru,
        );
        let sched = build_scheduler(
            SchedulerKind::LifeRaft2,
            MetricParams {
                atom_read_ms: 100.0,
                position_compute_ms: 1.0,
                atoms_per_timestep: 64,
            },
            25,
            10_000.0,
        );
        let mut ex = one_node(db, sched, SimConfig::default());
        let r = ex.run(&trace).aggregate;
        // Service: seek 10 + read 100 + compute 100 = 210 ms.
        assert!(
            (r.mean_response_ms - 210.0).abs() < 1e-6,
            "{}",
            r.mean_response_ms
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the 48-bit part budget")]
    fn query_ids_beyond_the_part_budget_are_rejected() {
        let q = Query {
            id: 1 << 48,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs([(MortonKey(0), 10u32)]),
        };
        let job = Job {
            id: 1,
            user: 0,
            kind: JobKind::Batched,
            campaign: 1,
            queries: vec![q].into(),
            arrival_ms: 0.0,
            think_ms: 0.0,
        };
        let db = build_db(
            small_db_config(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            16,
            CachePolicyKind::Lru,
        );
        let sched = build_scheduler(
            SchedulerKind::NoShare,
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        one_node(db, sched, SimConfig::default()).run(&Trace::new(8, 4, vec![job]));
    }

    #[test]
    fn time_cap_truncates_gracefully() {
        // Truncation retires every scheduler's pending work
        // (`Scheduler::retire_pending`), queued and gated alike. Bursts
        // 20× denser than `small` leave every scheduler a backlog at the
        // cap, so the check is not vacuous.
        let trace = TraceGenerator::new(GenConfig {
            mean_burst_gap_ms: 1_000.0,
            intra_burst_gap_ms: 50.0,
            ..GenConfig::small(11)
        })
        .generate();
        let kinds = SchedulerKind::evaluation_set().into_iter().chain([
            SchedulerKind::CasJobs {
                threshold_ms: 2_000,
            },
            SchedulerKind::Qos { stretch_x10: 30 },
        ]);
        for kind in kinds {
            let db = build_db(
                small_db_config(),
                CostModel::paper_testbed(),
                DataMode::Virtual,
                16,
                CachePolicyKind::LruK,
            );
            let sched = build_scheduler(kind, MetricParams::paper_testbed(), 25, 10_000.0);
            let mut ex = one_node(
                db,
                sched,
                SimConfig {
                    max_sim_ms: 10_000.0,
                    ..SimConfig::default()
                },
            );
            let r = ex.run(&trace).aggregate;
            let name = kind.name();
            assert!(r.truncated && !ex.scheduler(0).has_pending(), "{name}");
            assert!(r.queries_completed < trace.query_count() as u64, "{name}");
        }
    }

    #[test]
    fn urc_cache_gets_scheduler_knowledge() {
        let trace = TraceGenerator::new(GenConfig::small(13)).generate();
        let db = build_db(
            small_db_config(),
            CostModel::paper_testbed(),
            DataMode::Virtual,
            8,
            CachePolicyKind::Urc,
        );
        let sched = build_scheduler(
            SchedulerKind::Jaws2 { batch_k: 8 },
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        let mut ex = one_node(db, sched, SimConfig::default());
        let r = ex.run(&trace).aggregate;
        assert_eq!(r.cache_policy, "URC");
        assert!(r.cache.hits > 0, "URC never hit");
        assert!(!r.truncated);
    }

    /// A slow single tracking chain: plenty of idle time for the prefetcher.
    fn chain_trace() -> Trace {
        let q = |id: u64, ts: u32, x: u32| Query {
            id,
            user: 0,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            footprint: Footprint::from_pairs([(MortonKey::from_coords(x, 1, 1), 200u32)]),
        };
        Trace::new(
            8,
            4,
            vec![Job {
                id: 1,
                user: 0,
                kind: JobKind::Ordered,
                campaign: 1,
                // Steady +1 drift in x, one timestep per query.
                queries: (0..6).map(|i| q(i + 1, i as u32, (i as u32) % 4)).collect(),
                arrival_ms: 0.0,
                think_ms: 5_000.0,
            }],
        )
    }

    fn run_chain(prefetch: bool) -> (RunReport, u64) {
        let db = build_db(
            DbConfig {
                grid_side: 32,
                atom_side: 8,
                ghost: 2,
                timesteps: 8,
                dt: 0.002,
                seed: 9,
            },
            CostModel::paper_testbed(),
            DataMode::Virtual,
            16,
            CachePolicyKind::LruK,
        );
        let sched = build_scheduler(
            SchedulerKind::Jaws2 { batch_k: 8 },
            MetricParams::paper_testbed(),
            25,
            10_000.0,
        );
        let mut ex = one_node(
            db,
            sched,
            SimConfig {
                prefetch,
                ..SimConfig::default()
            },
        );
        let r = ex.run(&chain_trace());
        let reads = r.prefetch_reads();
        (r.aggregate, reads)
    }

    #[test]
    fn prefetching_issues_speculative_reads_and_cuts_latency() {
        let (base, base_pf) = run_chain(false);
        let (pf, pf_reads) = run_chain(true);
        assert_eq!(base_pf, 0);
        assert!(pf_reads > 0, "predictor never fired");
        assert_eq!(pf.queries_completed, base.queries_completed);
        // Later chain queries hit prefetched atoms: cache hits rise and mean
        // response time drops.
        assert!(
            pf.cache.hits > base.cache.hits,
            "prefetch hits {} vs {}",
            pf.cache.hits,
            base.cache.hits
        );
        assert!(
            pf.mean_response_ms < base.mean_response_ms,
            "prefetch rt {:.1} vs base {:.1}",
            pf.mean_response_ms,
            base.mean_response_ms
        );
    }

    #[test]
    fn prefetching_never_loses_queries() {
        let (pf, _) = run_chain(true);
        assert!(!pf.truncated);
        assert_eq!(pf.jobs_completed, 1);
    }
}
