//! The JAWS scheduling framework — the paper's primary contribution.
//!
//! Three schedulers share one substrate (per-atom *workload queues* ranked by
//! the workload-throughput metric of Eq. 1 and its aged variant, Eq. 2):
//!
//! * [`NoShare`] — evaluates each query independently, in arrival order; the
//!   baseline of §VI.
//! * [`LifeRaft`] — data-driven batch processing (§III): one atom at a time,
//!   chosen by the aged workload-throughput metric with a *fixed* age bias α.
//! * [`Jaws`] — everything in LifeRaft plus (§IV–V): two-level scheduling
//!   (timestep selection, batches of `k` atoms in Morton order), adaptive
//!   starvation resistance (α tracks workload saturation), and job-aware
//!   *gated execution* (Needleman–Wunsch alignment of ordered jobs, gating
//!   edges, co-scheduled release).
//!
//! The shared substrate is one type, [`WorkloadManager`] ([`queues`]): it
//! owns every atom's workload queue together with the views derived from
//! them (Eq. 1 per atom, per-timestep aggregates, the URC snapshot) and keeps
//! those views up to date per change, bit-identical to a full-scan oracle
//! that only the crate's tests compile. Gating state ([`GatingGraph`])
//! lives only as long as its job: a job's entries are dropped once its last
//! query is done.
//!
//! The crate is execution-agnostic: a scheduler consumes query arrivals and
//! produces [`Batch`]es; the `jaws-sim` crate owns the clock, the database and
//! the job think-time loop.

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        reason = "unit tests pin exact float values and use std maps as oracles"
    )
)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod align;
pub mod batch;
pub mod casjobs;
pub mod gating;
pub mod jaws;
pub mod liferaft;
pub mod noshare;
pub mod policy;
pub mod prefetch;
pub mod qos;
pub mod queues;

pub use adaptive::{AlphaController, RunFeedback};
pub use align::align_jobs;
pub use batch::{AtomBatch, Batch, SubQuery};
pub use casjobs::CasJobs;
pub use gating::{GatingGraph, QueryState};
pub use jaws::{Jaws, JawsConfig};
pub use liferaft::LifeRaft;
pub use noshare::NoShare;
pub use policy::{Residency, Scheduler, SchedulerStats};
pub use prefetch::Prefetcher;
pub use qos::QosScheduler;
pub use queues::{finite_or_zero, MetricParams, QueueStats, UtilitySnapshot, WorkloadManager};
