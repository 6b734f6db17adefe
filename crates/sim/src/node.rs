//! One simulated execution pipeline — the per-node half of the engine.
//!
//! A [`NodePipeline`] owns everything a cluster node owns in the §V-C
//! deployment: a [`TurbDb`] (buffer pool + simulated disk), a scheduler, the
//! residency adapter feeding φ of Eq. 1 back into the metric, an optional
//! trajectory [`Prefetcher`] (§VII), and busy/idle accounting. The engine
//! ([`crate::engine`]) owns the clock and the event queue; the pipeline only
//! answers "what would you run next and what does it cost".

use jaws_morton::AtomId;
use jaws_obs::ObsSink;
use jaws_scheduler::{Batch, Prefetcher, Residency, Scheduler};
use jaws_turbdb::TurbDb;
use jaws_workload::{Job, JobId, Query, QueryId};

/// Adapter exposing buffer-pool residency (φ of Eq. 1) to the scheduler.
struct DbResidency<'a>(&'a TurbDb);

impl Residency for DbResidency<'_> {
    fn is_resident(&self, atom: &AtomId) -> bool {
        self.0.is_resident(atom)
    }

    fn residency_epoch(&self) -> Option<u64> {
        Some(self.0.residency_epoch())
    }

    fn residency_changes_since(&self, since: u64, visit: &mut dyn FnMut(AtomId, bool)) -> bool {
        let Some(changes) = self.0.residency_changes_since(since) else {
            return false;
        };
        changes.for_each(|(atom, resident)| visit(atom, resident));
        true
    }
}

/// One simulated execution pipeline: a database plus a scheduler plus the
/// per-node bookkeeping the engine needs.
pub struct NodePipeline {
    db: TurbDb,
    scheduler: Box<dyn Scheduler>,
    prefetcher: Option<Prefetcher>,
    busy: bool,
    /// The batch in service, from [`Self::charge_batch`] until the engine
    /// takes it back at its completion.
    in_flight: Option<Batch>,
    idle_check_pending: bool,
    /// Straggler factor from a scripted [`crate::FailurePlan`] slowdown:
    /// every charged batch and speculative-read service time is multiplied
    /// by it. 1.0 (the default) is a healthy node.
    service_multiplier: f64,
    busy_ms: f64,
    parts_completed: u64,
    /// Parts re-dispatched off this node when a scripted crash killed it.
    redispatched_parts: u64,
    prefetch_reads: u64,
    sink: ObsSink,
}

impl NodePipeline {
    /// Builds a pipeline over an opened database and a scheduler. When
    /// `prefetch` is set, idle capacity is spent on trajectory-predicted
    /// speculative reads (§VII).
    pub fn new(db: TurbDb, scheduler: Box<dyn Scheduler>, prefetch: bool) -> Self {
        let prefetcher =
            prefetch.then(|| Prefetcher::new(db.config().atoms_per_side(), db.config().timesteps));
        NodePipeline {
            db,
            scheduler,
            prefetcher,
            busy: false,
            in_flight: None,
            idle_check_pending: false,
            service_multiplier: 1.0,
            busy_ms: 0.0,
            parts_completed: 0,
            redispatched_parts: 0,
            prefetch_reads: 0,
            sink: ObsSink::null(),
        }
    }

    /// Wires a (node-tagged) observability sink into the pipeline and
    /// forwards it to the database and the scheduler. The default sink is
    /// null, so an unwired pipeline pays one branch per emission site.
    pub fn set_recorder(&mut self, sink: ObsSink) {
        self.db.set_recorder(sink.clone());
        self.scheduler.set_recorder(sink.clone());
        self.sink = sink;
    }

    /// Access to the database (post-run inspection).
    pub fn db(&self) -> &TurbDb {
        &self.db
    }

    /// Access to the scheduler (post-run inspection).
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler.as_ref()
    }

    /// Speculative atom reads issued by the prefetcher so far.
    pub fn prefetch_reads(&self) -> u64 {
        self.prefetch_reads
    }

    /// Sub-query parts completed on this pipeline so far.
    pub fn parts_completed(&self) -> u64 {
        self.parts_completed
    }

    /// Parts re-dispatched off this node when it crashed (in flight plus
    /// queued at crash time).
    pub(crate) fn redispatched_parts(&self) -> u64 {
        self.redispatched_parts
    }

    /// Counts the parts a crash of this node re-dispatched to its survivor.
    pub(crate) fn record_redispatch(&mut self, parts: u64) {
        self.redispatched_parts += parts;
    }

    /// Total simulated time this pipeline spent servicing batches.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// True while a batch or speculative read is in flight.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Sets the straggler service-time multiplier (scripted
    /// [`crate::FailurePlan`] slowdown). Applies to every batch and
    /// speculative read charged from now on.
    pub fn set_service_multiplier(&mut self, factor: f64) {
        debug_assert!(
            factor.is_finite() && factor > 0.0,
            "service multiplier must be finite and positive"
        );
        self.service_multiplier = factor;
    }

    /// The straggler service-time multiplier currently in force.
    pub fn service_multiplier(&self) -> f64 {
        self.service_multiplier
    }

    /// Declares a job (or a node-local projection of one) to the scheduler.
    pub fn job_declared(&mut self, job: &Job, now_ms: f64) {
        self.scheduler.job_declared(job, now_ms);
    }

    /// Hands a submitted query (or part) to the scheduler.
    pub fn query_available(&mut self, q: &Query, now_ms: f64) {
        self.scheduler.query_available(q, now_ms);
    }

    /// Withdraws a declared part id that dynamic placement diverted to a
    /// replica on another node — it will never become available here.
    pub fn query_withdrawn(&mut self, part: QueryId, now_ms: f64) {
        self.scheduler.query_withdrawn(part, now_ms);
    }

    /// Drops all pending scheduler work and per-query bookkeeping (the run
    /// was truncated at `max_sim_ms`; queued parts will never complete).
    pub fn retire_pending(&mut self, now_ms: f64) {
        self.scheduler.retire_pending(now_ms);
    }

    /// Feeds an ordered-job observation to the trajectory predictor, if
    /// prefetching is enabled.
    pub fn observe(&mut self, job: JobId, q: &Query) {
        if let Some(p) = &mut self.prefetcher {
            p.observe(job, q);
        }
    }

    /// Drops a finished job's trajectory from the predictor, if prefetching
    /// is enabled.
    pub(crate) fn job_done(&mut self, job: JobId) {
        if let Some(p) = &mut self.prefetcher {
            p.job_done(job);
        }
    }

    /// The trajectory predictor; `None` unless prefetching is enabled.
    #[cfg(test)]
    pub(crate) fn prefetcher(&self) -> Option<&Prefetcher> {
        self.prefetcher.as_ref()
    }

    /// Asks the scheduler for the next batch under current residency.
    pub fn next_batch(&mut self, now_ms: f64) -> Option<Batch> {
        let res = DbResidency(&self.db);
        self.scheduler.next_batch(now_ms, &res)
    }

    /// Charges a batch against the database — atom reads in Morton order,
    /// position compute, then the stencil spill-over pass (§V locality of
    /// reference) — marks the pipeline busy, keeps the batch in service
    /// until the engine takes it back, and returns the service time. `now_ms` is
    /// the dispatch time, used only to stamp observability events (the
    /// engine owns the clock).
    pub fn charge_batch(&mut self, batch: Batch, now_ms: f64) -> f64 {
        let snapshot = {
            let res = DbResidency(&self.db);
            self.scheduler.utility_snapshot(&res)
        };
        let mut service_ms = self.db.batch_dispatch_ms();
        let mut io_ms = 0.0;
        // First pass: the batch atoms themselves, in Morton order
        // (sequential on disk when contiguous).
        for group in &batch.atoms {
            let r = self.db.read_atom_at(group.atom, &snapshot, now_ms);
            service_ms += r.io_ms;
            io_ms += r.io_ms;
            service_ms += self.db.compute_cost_ms(group.positions);
        }
        // Second pass: stencil spill-over into neighboring atoms. Neighbors
        // co-scheduled in this batch, or still cached, cost nothing extra.
        for group in &batch.atoms {
            for n in self.db.stencil_neighbor_ids(group.atom) {
                let r = self.db.read_atom_at(n, &snapshot, now_ms);
                service_ms += r.io_ms;
                io_ms += r.io_ms;
            }
        }
        // A straggling node (scripted slowdown) serves everything slower —
        // dispatch, I/O and compute alike — so the factor scales the whole
        // charge, and the emitted record reports the degraded times.
        service_ms *= self.service_multiplier;
        io_ms *= self.service_multiplier;
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::BatchExecuted {
                    parts: batch.completing_queries.clone(),
                    atom_groups: batch.atoms.len() as u32,
                    service_ms,
                    io_ms,
                },
            );
        }
        self.busy = true;
        self.busy_ms += service_ms;
        self.in_flight = Some(batch);
        service_ms
    }

    /// Takes back the batch in service, whose completion is due; `None` if
    /// no batch was charged since the last take.
    pub(crate) fn take_batch(&mut self) -> Option<Batch> {
        self.in_flight.take()
    }

    /// Hands a completed batch back to the scheduler, which builds a later
    /// batch in its buffers.
    pub(crate) fn recycle_batch(&mut self, batch: Batch) {
        self.scheduler.recycle_batch(batch);
    }

    /// Issues one speculative read if the trajectory predictor has a
    /// non-resident candidate: marks the pipeline busy and returns the I/O
    /// time, or `None` when there is nothing to prefetch. `now_ms` stamps the
    /// [`jaws_obs::Event::PrefetchIssued`] record.
    pub fn try_prefetch(&mut self, now_ms: f64) -> Option<f64> {
        let p = self.prefetcher.as_mut()?;
        let atom = p.next_prefetch(|a| self.db.is_resident(a))?;
        // The candidate is non-resident, so the read below always misses —
        // but the miss consults the utility oracle only if it must *evict*.
        // While the pool is still filling, skip the snapshot refresh (it
        // clones the ranking maps); an empty snapshot is bit-equivalent
        // because it is never read.
        let snapshot = if self.db.cache_at_capacity() {
            let res = DbResidency(&self.db);
            self.scheduler.utility_snapshot(&res)
        } else {
            jaws_scheduler::UtilitySnapshot::empty()
        };
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::PrefetchIssued {
                    timestep: atom.timestep,
                    morton: atom.morton.raw(),
                },
            );
        }
        let r = self.db.read_atom_at(atom, &snapshot, now_ms);
        self.prefetch_reads += 1;
        self.busy = true;
        Some(r.io_ms * self.service_multiplier)
    }

    /// Records one completed part: scheduler notification, run-boundary
    /// bookkeeping (§V-A cache runs), and the part counter.
    pub fn complete_part(&mut self, part: QueryId, response_ms: f64, now_ms: f64) {
        self.parts_completed += 1;
        self.scheduler.on_query_complete(part, response_ms, now_ms);
        if self.scheduler.take_run_boundary() {
            self.db.end_run();
        }
    }

    /// Marks the pipeline idle (a batch or speculative read finished).
    pub fn set_idle(&mut self) {
        self.busy = false;
    }

    /// True when the engine should schedule an idle re-poll: the scheduler
    /// holds gated work and no re-poll is pending yet. Marks the re-poll
    /// pending as a side effect.
    pub fn wants_idle_check(&mut self) -> bool {
        if self.scheduler.has_pending() && !self.idle_check_pending {
            self.idle_check_pending = true;
            return true;
        }
        false
    }

    /// Clears the pending idle re-poll (its event fired).
    pub fn clear_idle_check(&mut self) {
        self.idle_check_pending = false;
    }
}
