//! Pins the allocation cost of a cluster replay. A small 4-node JAWS₂
//! cluster behind LRU-K caches, with hot-atom replication and node 1
//! crashing halfway through the arrivals, replays one trace twice through
//! one executor; the second replay must stay at the count the replay
//! reaches when its bookkeeping recycles or shares its buffers: LRU-K
//! histories come from a spare list; a job's projection onto a node lays
//! its queries' footprints out in one buffer; a part that keeps all of its
//! query's atoms shares the query's footprint, other parts' footprints come
//! from the engine's pool, and a gated query's copy shares its part's; a
//! part diverted to a replica outside its job's projection is a one-off
//! query, declared nothing; batches come from the last batch handed back,
//! slot query ids from the workload manager's arena, and the gating graph's
//! edge checks from its own scratch. The second replay reuses the
//! first one's schedulers and caches; the engine's per-replay state
//! (footprint pool, ledgers, per-query table) starts empty each time, so
//! the pin includes refilling it.
//!
//! The counting allocator is process-global, so this file holds a single
//! test: no other test thread allocates while it measures.

use jaws_bench::alloc_counter::{self, CountingAlloc};
use jaws_sim::{
    CachePolicyKind, ClusterConfig, ClusterExecutor, FailurePlan, ReplicationConfig, SchedulerKind,
    SimConfig,
};
use jaws_turbdb::{CostModel, DbConfig};
use jaws_workload::{GenConfig, TraceGenerator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per query of the second replay (1,345 over its 438
/// queries, debug and release alike). While the engine declared a
/// single-query job for every part it diverted outside its job's
/// projection, it made 3.17 (1,387); while every projected query and every
/// part had a footprint buffer of its own, 6.57 (2,874); before the replay
/// recycled LRU-K histories, footprints, batches and slot id buffers, 18.14
/// (7,946).
const WARM_ALLOCS_PER_QUERY: f64 = 3.08;

/// Slack over [`WARM_ALLOCS_PER_QUERY`]: about forty allocations over the
/// replay, a tenth of what one extra allocation per query would add.
const MARGIN: f64 = 0.1;

#[test]
fn warm_lruk_cluster_replay_stays_near_its_allocation_floor() {
    let trace = TraceGenerator::new(GenConfig::small(2009_0720))
        .generate()
        .speedup(20.0);
    let last_arrival = trace
        .jobs
        .iter()
        .map(|j| j.arrival_ms)
        .fold(0.0f64, f64::max);
    let mut ex = ClusterExecutor::new(ClusterConfig {
        nodes: 4,
        db: DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: 5,
        },
        cost: CostModel::paper_testbed(),
        scheduler: SchedulerKind::Jaws2 { batch_k: 15 },
        cache_policy: CachePolicyKind::LruK,
        cache_atoms_per_node: 16,
        run_len: 25,
        gate_timeout_ms: 10_000.0,
        sim: SimConfig::default(),
        failures: FailurePlan::new(17).crash_at(0.5 * last_arrival, 1),
        replication: ReplicationConfig::on(),
    });
    let cold = ex.run(&trace);
    assert!(!cold.aggregate.truncated);
    let before = alloc_counter::count();
    let warm = ex.run(&trace);
    let allocs = alloc_counter::count() - before;
    assert!(!warm.aggregate.truncated);
    let degraded = warm.degraded.as_ref().expect("node 1 crashed");
    assert!(degraded.redispatched_parts > 0, "the crash moved no work");
    let rep = warm.replication.as_ref().expect("replica summary");
    assert!(rep.replica_routed > 0, "no part went to a replica");
    assert_eq!(
        ex.response_log().len(),
        2 * trace.query_count(),
        "both replays complete every query"
    );
    let per_query = allocs as f64 / trace.query_count() as f64;
    assert!(
        per_query <= WARM_ALLOCS_PER_QUERY + MARGIN,
        "warm replay made {per_query:.3} allocations per query \
         ({allocs} over {} queries); the pin is {WARM_ALLOCS_PER_QUERY} + {MARGIN}",
        trace.query_count()
    );
}
