//! The scheduler interface the execution engine drives.

use crate::batch::Batch;
use crate::queues::UtilitySnapshot;
use jaws_morton::AtomId;
use jaws_workload::{Job, Query, QueryId};
use serde::Serialize;

/// Residency information — φ of Eq. 1. Implemented by the execution engine
/// over the database buffer pool.
///
/// The workload manager caches per-atom metric values between scheduling
/// decisions and only recomputes atoms whose inputs changed. Residency is one
/// of those inputs, so every source reports *change tracking*: an epoch
/// counter plus a change log. A source whose residency never changes reports
/// a constant epoch.
pub trait Residency {
    /// True if the atom is currently cached in memory.
    fn is_resident(&self, atom: &AtomId) -> bool;

    /// Monotone counter that advances whenever any atom's residency flips.
    fn residency_epoch(&self) -> u64;

    /// Calls `visit(atom, now_resident)` for each flip since epoch `since`,
    /// oldest first, and returns true. Returns false without visiting
    /// anything when the log cannot answer (truncated past `since`) — the
    /// consumer must then re-check every atom it cares about.
    fn residency_changes_since(&self, since: u64, visit: &mut dyn FnMut(AtomId, bool)) -> bool;
}

/// Aggregate scheduler statistics for experiment reports.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SchedulerStats {
    /// Batches produced.
    pub batches: u64,
    /// Atom groups scheduled (one atom read amortized per group).
    pub atom_groups: u64,
    /// Sub-queries dispatched.
    pub subqueries: u64,
    /// Queries released by a broken gate (starvation valve; JAWS only).
    pub forced_releases: u64,
}

/// A query scheduler. The execution engine owns the clock and the job loop:
///
/// 1. [`Scheduler::job_declared`] when a job arrives (jobs are visible to the
///    scheduler up front — §IV-A's job identification applied at admission);
/// 2. [`Scheduler::query_available`] when a query is actually submitted (for
///    ordered jobs: after its predecessor completed and the user's think time
///    elapsed);
/// 3. [`Scheduler::next_batch`] whenever the engine is idle;
/// 4. [`Scheduler::on_query_complete`] when every sub-query of a query has
///    been executed.
///
/// Schedulers run single-threaded: one replay steps all its nodes'
/// schedulers on one thread, in simulated-time order. The `Send` bound only
/// lets a replay that owns its schedulers be handed to another thread as a
/// whole.
pub trait Scheduler: Send {
    /// Scheduler name for reports (e.g. `"JAWS_2"`).
    fn name(&self) -> &'static str;

    /// Announces a job before any of its queries run. Job-aware schedulers
    /// build gating structure here; others ignore it. A query whose id no
    /// declared job holds is a one-off query: it has no job-mates to gate
    /// on, so it is schedulable as soon as it is available.
    fn job_declared(&mut self, job: &Job, now_ms: f64);

    /// Submits one query for scheduling (its precedence/think constraints are
    /// already satisfied by the caller).
    fn query_available(&mut self, query: &Query, now_ms: f64);

    /// Produces the next batch, or `None` when nothing is schedulable right
    /// now (which is not the same as empty: gated queries may be waiting on
    /// partners).
    fn next_batch(&mut self, now_ms: f64, residency: &dyn Residency) -> Option<Batch>;

    /// Reports a query completion with its response time.
    fn on_query_complete(&mut self, query: QueryId, response_ms: f64, now_ms: f64);

    /// Hands back a batch from [`Scheduler::next_batch`] once the caller is
    /// done with it, so the scheduler can build a later batch in its
    /// buffers. Schedulers that build every batch afresh keep this default,
    /// which drops it.
    fn recycle_batch(&mut self, batch: Batch) {
        drop(batch);
    }

    /// Withdraws a previously declared query id that will never become
    /// available on this scheduler — dynamic placement routed its atoms to a
    /// replica on another node. Job-aware schedulers must release any gating
    /// structure referencing the id (partners would otherwise stall until the
    /// gate timeout); schedulers without declaration state ignore it.
    fn query_withdrawn(&mut self, query: QueryId, now_ms: f64) {
        let _ = (query, now_ms);
    }

    /// Discards all pending work and per-query bookkeeping. The engine calls
    /// this when a run is truncated at `max_sim_ms`: queries still queued
    /// will never complete, and schedulers keeping per-query state (QoS
    /// deadlines) must drop it rather than leak it — the long-running-daemon
    /// direction reuses scheduler instances across traces.
    fn retire_pending(&mut self, now_ms: f64) {
        let _ = now_ms;
    }

    /// True if the scheduler holds any pending work (queued *or* gated).
    fn has_pending(&self) -> bool;

    /// Crosses a run boundary if the scheduler's run counter says so; returns
    /// true when the cache should be notified (`end_run`, SLRU promotion) —
    /// §V-A divides the workload into runs of `r` consecutive queries.
    fn take_run_boundary(&mut self) -> bool;

    /// Current age-bias α (fixed for LifeRaft, adaptive for JAWS).
    fn alpha(&self) -> f64;

    /// URC's ranking oracle: the current workload-queue utilities. Takes
    /// `&mut self` so schedulers can serve it from incrementally maintained
    /// state (the snapshot is patched in place rather than rebuilt).
    fn utility_snapshot(&mut self, residency: &dyn Residency) -> UtilitySnapshot;

    /// Wires an observability sink for per-decision events (gating rulings,
    /// batch selections with their Eq. 1/Eq. 2 terms, α adjustments).
    /// Schedulers that emit nothing keep this default and ignore the sink.
    fn set_recorder(&mut self, sink: jaws_obs::ObsSink) {
        let _ = sink;
    }

    /// Statistics snapshot.
    fn stats(&self) -> SchedulerStats;
}

/// Test helpers shared across scheduler modules.
#[cfg(test)]
pub mod test_support {
    use super::*;
    use std::collections::HashSet;

    /// A residency set fixed by the test.
    #[derive(Debug, Default)]
    pub struct FixedResidency {
        resident: HashSet<AtomId>,
    }

    impl FixedResidency {
        /// Nothing resident.
        pub fn none() -> Self {
            Self::default()
        }

        /// The given atoms resident.
        pub fn of(atoms: impl IntoIterator<Item = AtomId>) -> Self {
            FixedResidency {
                resident: atoms.into_iter().collect(),
            }
        }
    }

    impl Residency for FixedResidency {
        fn is_resident(&self, atom: &AtomId) -> bool {
            self.resident.contains(atom)
        }

        fn residency_epoch(&self) -> u64 {
            0 // the set never changes
        }

        fn residency_changes_since(
            &self,
            _since: u64,
            _visit: &mut dyn FnMut(AtomId, bool),
        ) -> bool {
            true
        }
    }
}
