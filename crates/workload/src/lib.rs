//! Workload model and trace generation for the JAWS reproduction.
//!
//! The paper drives its evaluation with a 50k-query trace (roughly 1k jobs)
//! extracted from two years of production SQL logs on the Turbulence cluster
//! (§VI-A). The logs are not public, so this crate generates synthetic traces
//! calibrated to every workload statistic the paper publishes:
//!
//! * over 95% of queries belong to jobs;
//! * job execution times spread over orders of magnitude with 63% lasting
//!   1–30 minutes (Fig. 8);
//! * 88% of jobs touch a single timestep, 3% iterate over ≥100 timesteps
//!   (scaled to the experimental timestep count);
//! * 70% of queries reuse data from about a dozen timesteps clustered at the
//!   start and end of simulation time, with a secondary spike mid-range and a
//!   downward trend from early-terminating jobs (Fig. 9);
//! * arrivals are bursty — "no steady states".
//!
//! Modules:
//!
//! * [`types`] — queries, jobs, footprints (the per-atom position counts the
//!   scheduler consumes).
//! * [`trace`] — a replayable trace with arrival times, serialization, and the
//!   arrival-rate *speed-up* scaling of Fig. 11.
//! * [`gen`] — the calibrated generator.
//! * [`jobid`] — the job-identification heuristics of §IV-A (user id,
//!   operation, timestep continuity, inter-arrival gap) plus an accuracy
//!   evaluation against generator ground truth.
//! * [`stats`] — workload characterization (Figs. 8 and 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod jobid;
pub mod stats;
pub mod trace;
pub mod types;

pub use gen::{GenConfig, TraceGenerator};
pub use jobid::{identify_jobs, JobIdConfig, JobIdEvaluation, SubmitRecord};
pub use trace::{Trace, TraceError};
pub use types::{AtomBuffer, Footprint, Job, JobId, JobKind, Query, QueryId, QueryOp, UserId};
