//! Discrete-event execution engine for JAWS experiments.
//!
//! The paper measures wall-clock performance of a SQL Server deployment; we
//! measure simulated time on an explicit cost model (T_b per atom transfer,
//! a seek charge for non-sequential reads, T_m per position — the same
//! constants Eq. 1 is written in). The engine replays a trace:
//!
//! * jobs arrive at their trace arrival times;
//! * batched jobs submit all queries immediately, ordered jobs submit query
//!   `i+1` one think-time after query `i` completes (the paper's users
//!   "collect results from a time step, calculate new positions outside the
//!   database, and then submit a new query");
//! * each execution pipeline (one cluster node) repeatedly asks its
//!   scheduler for the next batch, charges its I/O + compute cost, and
//!   advances the clock;
//! * cache residency feeds φ back into Eq. 1, and the scheduler's workload
//!   knowledge feeds the URC cache policy, closing both coordination loops of
//!   §V-B.
//!
//! One discrete-event core ([`engine`]) drives every deployment over one
//! route: N ≥ 1 nodes, each owning a contiguous Morton slab (§V-C). A single
//! server is a cluster of one — [`Executor`] replays as one node over a
//! caller-built database and scheduler, [`ClusterExecutor`] builds N — with
//! the same event loop, client model and [`SimConfig`] knobs (prefetching,
//! `max_sim_ms` truncation, idle re-check). Dispatch within a replay is
//! serial. Per-node state lives in [`node::NodePipeline`].
//!
//! [`sweep`] runs many configurations in parallel threads for the saturation
//! and batch-size sweeps of Figs. 11–12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod engine;
pub mod executor;
pub mod failure;
pub mod node;
pub mod replication;
pub mod report;
pub mod setup;
pub mod sweep;

pub use cluster::{ClusterConfig, ClusterExecutor, ClusterReport, DegradedReport, NodeReport};
pub use engine::{queue_ops, reset_queue_ops, Routing};
pub use executor::{Executor, SimConfig};
pub use failure::{FailureEvent, FailurePlan};
pub use node::NodePipeline;
pub use replication::{ReplicaEntry, ReplicationConfig, ReplicationSummary};
pub use report::{Percentiles, RunReport};
pub use setup::{build_db, build_policy, build_scheduler, CachePolicyKind, SchedulerKind};
pub use sweep::run_parallel;
