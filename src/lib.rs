//! # JAWS: Job-Aware Workload Scheduling for the Exploration of Turbulence Simulations
//!
//! A from-scratch Rust reproduction of the SC 2010 paper (Wang, Perlman,
//! Burns, Malik, Budavári, Meneveau, Szalay). JAWS is a job-aware,
//! data-driven batch scheduler for data-intensive scientific database
//! clusters: it splits queries into per-atom sub-queries, batches sub-queries
//! that touch the same data, aligns ordered jobs so shared reads are
//! co-scheduled, adapts its age bias to workload saturation, and coordinates
//! cache replacement with scheduling.
//!
//! This crate is a facade over the workspace:
//!
//! * [`morton`] — Z-order spatial indexing;
//! * [`turbdb`] — the simulated Turbulence Database Cluster substrate
//!   (synthetic DNS fields, atoms in (timestep, Morton) disk order,
//!   simulated disk, query kernels);
//! * [`cache`] — buffer cache with LRU / LRU-K / SLRU / URC replacement;
//! * [`workload`] — calibrated trace generation and job identification;
//! * [`scheduler`] — NoShare, LifeRaft and JAWS;
//! * [`sim`] — the discrete-event execution engine and sweep drivers;
//! * [`obs`] — deterministic, simulated-time structured tracing/metrics.
//!
//! ## Quickstart
//!
//! ```
//! use jaws::prelude::*;
//!
//! // Generate a small calibrated workload trace.
//! let trace = TraceGenerator::new(GenConfig::small(42)).generate();
//!
//! // Open a (virtual-payload) turbulence database with a 16-atom cache.
//! let db = build_db(
//!     DbConfig { grid_side: 32, atom_side: 8, ghost: 2, timesteps: 8,
//!                dt: 0.002, seed: 42 },
//!     CostModel::paper_testbed(),
//!     DataMode::Virtual,
//!     16,
//!     CachePolicyKind::Urc,
//! );
//!
//! // Run the full JAWS scheduler over the trace.
//! let scheduler = build_scheduler(
//!     SchedulerKind::Jaws2 { batch_k: 15 },
//!     MetricParams::paper_testbed(),
//!     50,
//!     60_000.0,
//! );
//! // One node owning the whole atom grid: a plain server.
//! let mut executor = ClusterExecutor::from_nodes(
//!     vec![(db, scheduler)],
//!     SimConfig::default(),
//!     FailurePlan::none(),
//!     ReplicationConfig::disabled(),
//! );
//! let report = executor.run(&trace).aggregate;
//! assert!(report.queries_completed > 0);
//! println!("{}", report.summary());
//! ```

#![forbid(unsafe_code)]

pub use jaws_cache as cache;
pub use jaws_morton as morton;
pub use jaws_obs as obs;
pub use jaws_scheduler as scheduler;
pub use jaws_sim as sim;
pub use jaws_turbdb as turbdb;
pub use jaws_workload as workload;

/// Everything needed to run an experiment, in one import.
pub mod prelude {
    pub use jaws_cache::{BufferPool, CacheStats, Lru, LruK, Slru, Urc};
    pub use jaws_morton::{AtomId, MortonKey};
    pub use jaws_obs::{Event, JsonlRecorder, NullRecorder, ObsSink, Record, Recorder};
    pub use jaws_scheduler::{
        AlphaController, Batch, GatingConfig, GatingGraph, Jaws, JawsConfig, LifeRaft,
        MetricParams, NoShare, Residency, Scheduler,
    };
    pub use jaws_sim::{
        build_db, build_policy, build_scheduler, run_parallel, CachePolicyKind, ClusterConfig,
        ClusterExecutor, ClusterReport, FailurePlan, ReplicationConfig, RunReport, SchedulerKind,
        SimConfig,
    };
    pub use jaws_turbdb::{
        kernels, AtomData, CostModel, DataMode, DbConfig, SyntheticField, TurbDb,
    };
    pub use jaws_workload::{
        identify_jobs, Footprint, GenConfig, Job, JobIdConfig, JobIdEvaluation, JobKind, Query,
        QueryOp, SubmitRecord, Trace, TraceGenerator,
    };
}
