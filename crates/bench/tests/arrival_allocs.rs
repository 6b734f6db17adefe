//! Pins the allocation cost of the scheduler's arrival path. The golden
//! JAWS₂ replay (the 40-job `paper_like` trace on the paper's geometry, as
//! in `crates/sim/tests/golden.rs`) is run twice through one one-node cluster, and
//! the second, warm replay must stay at the count the arrival path reaches
//! when nothing on it copies a query or grows a fresh buffer: sub-queries
//! queue as query ids in the workload manager's id arena, a job's queries
//! are shared with the gating graph instead of cloned, a query held at a
//! gate and each single-node part share the trace query's footprint buffer,
//! alignment and edge checks reuse the graph's scratch, and each batch is
//! built in the buffers of the one before it.
//!
//! The counting allocator is process-global, so this file holds a single
//! test: no other test thread allocates while it measures.

use jaws_bench::alloc_counter::{self, CountingAlloc};
use jaws_bench::exp;
use jaws_scheduler::{Jaws, JawsConfig, MetricParams};
use jaws_sim::{
    build_db, CachePolicyKind, ClusterExecutor, FailurePlan, ReplicationConfig, SimConfig,
};
use jaws_turbdb::DataMode;
use jaws_workload::{GenConfig, TraceGenerator};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per query of the warm replay (56 over its 1,067 queries,
/// debug and release alike). While the gating graph collected its stale
/// queries into a fresh list on each forced release, it made 58. While each
/// query held at a gate copied its footprint, it made 0.17 (173); while
/// slot id buffers were spares reused
/// whatever their capacity and every batch was two fresh vectors, 2.71
/// (2,887); while the arrival path still copied every sub-query list, job
/// and arriving query, 18.95 (20,224).
const WARM_ALLOCS_PER_QUERY: f64 = 0.06;

/// Slack over [`WARM_ALLOCS_PER_QUERY`]: about fifty allocations over the
/// replay, a twentieth of what one extra allocation per query would add.
const MARGIN: f64 = 0.05;

#[test]
fn warm_jaws2_replay_stays_near_its_allocation_floor() {
    let trace = TraceGenerator::new(GenConfig {
        jobs: 40,
        ..GenConfig::paper_like(exp::TRACE_SEED)
    })
    .generate();
    let (db_cfg, cost) = (exp::paper_db(), exp::paper_cost());
    let db = build_db(
        db_cfg,
        cost,
        DataMode::Virtual,
        exp::CACHE_ATOMS,
        CachePolicyKind::Urc,
    );
    let params = MetricParams {
        atom_read_ms: cost.atom_read_ms,
        position_compute_ms: cost.position_compute_ms,
        atoms_per_timestep: db_cfg.atoms_per_timestep(),
    };
    let jaws2 = Jaws::new(JawsConfig {
        run_len: exp::RUN_LEN,
        gate_timeout_ms: exp::GATE_TIMEOUT_MS,
        ..JawsConfig::jaws2(params)
    });
    let mut ex = ClusterExecutor::from_nodes(
        vec![(db, Box::new(jaws2))],
        SimConfig::default(),
        FailurePlan::none(),
        ReplicationConfig::disabled(),
    );
    let cold = ex.run(&trace).aggregate;
    assert!(!cold.truncated);
    let before = alloc_counter::count();
    let warm = ex.run(&trace).aggregate;
    let allocs = alloc_counter::count() - before;
    assert!(!warm.truncated);
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
