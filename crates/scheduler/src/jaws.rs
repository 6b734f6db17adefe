//! JAWS: the Job-Aware Workload Scheduler (§IV–V).
//!
//! On top of LifeRaft's contention-ordered workload queues, JAWS adds:
//!
//! * **Two-level scheduling** (§V): first pick the timestep with the highest
//!   mean aged workload-throughput metric, then schedule up to `k` of that
//!   timestep's atoms whose metric exceeds the timestep mean, executing them
//!   in Morton order — one pass that exploits locality of reference and
//!   sequential disk layout.
//! * **Adaptive starvation resistance** (§V-A): the age bias α starts at
//!   the paper's 0.5 and is tuned incrementally per run of `r` queries by an
//!   [`AlphaController`].
//! * **Job-aware gated execution** (§IV): queries of aligned ordered jobs are
//!   held until their gating partners are ready, then released together so
//!   shared atoms are read once. Disable `job_aware` to get the paper's
//!   JAWS₁ ablation; enable it for the full JAWS₂.

use crate::adaptive::AlphaController;
use crate::batch::{preprocess, Batch};
use crate::gating::GatingGraph;
use crate::policy::{Residency, Scheduler, SchedulerStats};
use crate::queues::{MetricParams, QueueStats, UtilitySnapshot, WorkloadManager};
use jaws_cache::UtilityOracle;
use jaws_morton::{AtomId, FastMap};
use jaws_obs::{Event, GateAction, ObsSink};
use jaws_workload::{Job, Query, QueryId};
use std::cmp::Ordering;

/// Orders pending atoms best-first: descending aged utility, ascending
/// [`AtomId`] tie-break. `total_cmp` plus the id makes this a *strict* total
/// order (no two entries compare equal), which is what lets the bounded
/// top-k selection reproduce the full sort's k-prefix exactly even through
/// an unstable partition.
fn rank_order(a: &(AtomId, f64), b: &(AtomId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Bounded top-k selection: partition the k best-ranked entries to the front
/// with `select_nth_unstable_by` (O(m)), then sort only those k — O(m +
/// k·log k) against the full sort's O(m·log m), the dispatch-hot-path win at
/// large pending timesteps. Because [`rank_order`] is a strict total order,
/// the result is bitwise identical to [`top_k_full_sort`].
fn top_k(mut in_ts: Vec<(AtomId, f64)>, k: usize) -> Vec<(AtomId, f64)> {
    if k == 0 {
        in_ts.clear();
        return in_ts;
    }
    if k < in_ts.len() {
        in_ts.select_nth_unstable_by(k - 1, rank_order);
        in_ts.truncate(k);
    }
    in_ts.sort_by(rank_order);
    in_ts
}

/// Reference selection — full sort, then the k-prefix. Retained as the
/// property-test oracle for [`top_k`].
#[cfg(test)]
fn top_k_full_sort(mut in_ts: Vec<(AtomId, f64)>, k: usize) -> Vec<(AtomId, f64)> {
    in_ts.sort_by(rank_order);
    in_ts.truncate(k);
    in_ts
}

/// The queries one gating-graph call promoted, in promotion order: the held
/// copies in `fired`, with the arriving query spliced in at its index when
/// the graph promoted it from the caller's borrow.
fn promotion_order<'a>(
    fired: &'a [Query],
    arriving: Option<(usize, &'a Query)>,
) -> impl Iterator<Item = &'a Query> {
    let (before, after) = fired.split_at(arriving.map_or(fired.len(), |(at, _)| at));
    before.iter().chain(arriving.map(|(_, q)| q)).chain(after)
}

/// JAWS configuration.
#[derive(Debug, Clone)]
pub struct JawsConfig {
    /// Eq. 1 cost constants.
    pub params: MetricParams,
    /// Batch size `k`: maximum atoms co-scheduled per timestep pass (the
    /// paper sets 15; Fig. 12 sweeps it).
    pub batch_k: usize,
    /// Run length `r` in queries, for α adaptation and cache run boundaries.
    pub run_len: usize,
    /// If true, ordered jobs are aligned and gated (JAWS₂); if false the
    /// scheduler is the paper's JAWS₁.
    pub job_aware: bool,
    /// Gate timeout: the longest a READY query waits on gating partners
    /// before it is force-released, ms.
    pub gate_timeout_ms: f64,
}

/// The initial age bias α; the paper initializes it to 0.5 (§V-A).
const ALPHA0: f64 = 0.5;

impl JawsConfig {
    /// The paper's full configuration: k = 15, run length 50, job-aware.
    pub fn jaws2(params: MetricParams) -> Self {
        JawsConfig {
            params,
            batch_k: 15,
            run_len: 50,
            job_aware: true,
            gate_timeout_ms: 180_000.0,
        }
    }

    /// JAWS₁: two-level scheduling and adaptive α without job-awareness.
    pub fn jaws1(params: MetricParams) -> Self {
        JawsConfig {
            job_aware: false,
            ..Self::jaws2(params)
        }
    }
}

/// The JAWS scheduler.
pub struct Jaws {
    cfg: JawsConfig,
    wm: WorkloadManager,
    gating: GatingGraph,
    alpha_ctl: AlphaController,
    run_boundary: bool,
    stats: SchedulerStats,
    sink: ObsSink,
    /// Dispatch-path scratch: the ranked `(atom, utility)` buffer of the
    /// current timestep, reused across `next_batch` calls (capacity
    /// retained, contents rebuilt each call).
    ranked_scratch: Vec<(AtomId, f64)>,
    /// Dispatch-path scratch: the selected atom ids of the current batch.
    selected_scratch: Vec<AtomId>,
    /// Gating scratch: the queries one gating-graph call promoted, reused
    /// across calls (emptied by [`Jaws::release`]).
    fired_scratch: Vec<Query>,
    /// The buffers of the last batch handed back through
    /// [`Scheduler::recycle_batch`], emptied, for the next batch.
    spare_batch: Batch,
}

impl Jaws {
    /// Creates a JAWS scheduler.
    pub fn new(cfg: JawsConfig) -> Self {
        assert!(cfg.batch_k >= 1, "batch size k must be at least 1");
        Jaws {
            wm: WorkloadManager::new(cfg.params),
            gating: GatingGraph::new(cfg.gate_timeout_ms),
            alpha_ctl: AlphaController::new(ALPHA0, cfg.run_len),
            run_boundary: false,
            stats: SchedulerStats::default(),
            sink: ObsSink::null(),
            ranked_scratch: Vec::new(),
            selected_scratch: Vec::new(),
            fired_scratch: Vec::new(),
            spare_batch: Batch::default(),
            cfg,
        }
    }

    /// The gating graph (diagnostics: admitted edges, forced releases).
    pub fn gating(&self) -> &GatingGraph {
        &self.gating
    }

    /// The workload queues' monotone maintenance counters (diagnostics;
    /// also what the no-op-dispatch regression test pins).
    pub fn queue_stats(&self) -> QueueStats {
        self.wm.stats()
    }

    fn enqueue_query(&mut self, query: &Query, now_ms: f64) {
        self.wm.enqueue(preprocess(query, now_ms));
    }

    /// Enqueues the queries a gating-graph call promoted, in promotion
    /// order, then keeps the emptied buffer as the scratch for the next
    /// call. `arriving` is the query made available by the call, with its
    /// index among the promotions, when the graph promoted it without a
    /// copy.
    fn release(&mut self, mut fired: Vec<Query>, arriving: Option<(usize, &Query)>, now_ms: f64) {
        for q in promotion_order(&fired, arriving) {
            self.enqueue_query(q, now_ms);
        }
        fired.clear();
        self.fired_scratch = fired;
    }

    /// Emits the [`Event::BatchSelected`] record for an accepted batch. Only
    /// reached with a recorder attached, so its per-call allocations stay off
    /// the (unrecorded) dispatch hot path.
    #[expect(
        clippy::too_many_arguments,
        reason = "the record's fields, captured at the one call site in next_batch"
    )]
    fn emit_batch_selected(
        &mut self,
        residency: &dyn Residency,
        best_ts: u32,
        alpha: f64,
        ts_mean: f64,
        in_ts: &[(AtomId, f64)],
        selected: &[AtomId],
        now_ms: f64,
    ) {
        // Capture the utility terms before take_atom drains the queues:
        // Eq. 1 from the residency-aware snapshot (its integration is
        // bitwise-idempotent, so reading it here changes nothing), Eq. 2
        // from the aged ranking the selection actually sorted on.
        let snapshot = self.wm.utility_snapshot(residency);
        // One lookup table over the k finalists, not a linear scan per
        // selected atom (every selected atom is a finalist by
        // construction, including the below-mean fallback).
        let aged_of: FastMap<AtomId, f64> = in_ts.iter().copied().collect();
        let choices = selected
            .iter()
            .map(|a| jaws_obs::AtomChoice {
                morton: a.morton.raw(),
                eq1: snapshot.rank(a).atom_utility,
                aged: aged_of.get(a).copied().unwrap_or(0.0),
            })
            .collect();
        self.sink.emit(
            now_ms,
            Event::BatchSelected {
                timestep: best_ts,
                alpha,
                threshold: ts_mean,
                atoms: choices,
            },
        );
    }

    /// Drains the selected atoms out of the workload queues into a [`Batch`],
    /// updating the dispatch counters. The batch is built in the buffers of
    /// the last batch the engine handed back, so a build allocates only
    /// when the batch outgrows every batch before it; with none handed
    /// back, the atom list is sized once for the selection. Each take
    /// returns the atom's ΣW and sub-query count, appends the queries it
    /// completes to the batch and hands the queue's id chunks back to the
    /// workload manager.
    fn build_batch(&mut self, selected: &[AtomId]) -> Batch {
        let mut batch = std::mem::take(&mut self.spare_batch);
        debug_assert!(
            batch.is_empty() && batch.completing_queries.is_empty(),
            "spare batch not emptied"
        );
        batch.atoms.reserve(selected.len());
        for atom in selected {
            let group = self.wm.take_atom(atom, &mut batch.completing_queries);
            self.stats.subqueries += group.subqueries as u64;
            batch.atoms.push(group);
        }
        self.stats.batches += 1;
        self.stats.atom_groups += batch.atoms.len() as u64;
        batch
    }
}

impl Scheduler for Jaws {
    fn name(&self) -> &'static str {
        if self.cfg.job_aware {
            "JAWS_2"
        } else {
            "JAWS_1"
        }
    }

    fn job_declared(&mut self, job: &Job, _now_ms: f64) {
        if self.cfg.job_aware {
            self.gating.add_job(job);
        }
    }

    fn query_available(&mut self, query: &Query, now_ms: f64) {
        // The first arrival anchors the first α run's throughput window.
        self.alpha_ctl.note_arrival(now_ms);
        if self.cfg.job_aware {
            let mut fired = std::mem::take(&mut self.fired_scratch);
            let arriving = self
                .gating
                .query_available(query, now_ms, &mut fired)
                .map(|at| (at, query));
            if self.sink.enabled() {
                if arriving.is_none() {
                    self.sink.emit(
                        now_ms,
                        Event::GateDecision {
                            query: query.id,
                            action: GateAction::Held,
                        },
                    );
                }
                for q in promotion_order(&fired, arriving) {
                    self.sink.emit(
                        now_ms,
                        Event::GateDecision {
                            query: q.id,
                            action: GateAction::Released,
                        },
                    );
                }
            }
            self.release(fired, arriving, now_ms);
        } else {
            self.enqueue_query(query, now_ms);
        }
    }

    fn next_batch(&mut self, now_ms: f64, residency: &dyn Residency) -> Option<Batch> {
        if self.cfg.job_aware {
            // Starvation valve: break gates that out-waited their budget.
            let mut released = std::mem::take(&mut self.fired_scratch);
            self.gating.release_stale(now_ms, &mut released);
            if !released.is_empty() {
                self.stats.forced_releases += released.len() as u64;
                if self.sink.enabled() {
                    for q in &released {
                        self.sink.emit(
                            now_ms,
                            Event::GateDecision {
                                query: q.id,
                                action: GateAction::ForceReleased,
                            },
                        );
                    }
                }
            }
            self.release(released, None, now_ms);
        }
        if self.wm.is_empty() {
            return None;
        }
        let alpha = self.alpha();
        // Coarse level: the timestep with the highest mean aged utility,
        // where the mean runs over *all* atoms of the timestep (§V) — i.e.
        // the densest pending timestep wins. Answered from the workload
        // manager's per-timestep aggregates (O(#timesteps)), not a scan of
        // every pending atom.
        let best_ts = self.wm.best_timestep(now_ms, alpha, residency)?;
        // Fine level: up to k atoms of that timestep with utility above the
        // (all-atoms) mean, best first; always at least the maximum. The
        // threshold only bites for very large k, which is why "the impact
        // beyond 50 is marginal" (Fig. 12). Both working buffers are taken
        // from (and returned to) the scheduler's scratch, so a warmed-up
        // dispatch allocates nothing here.
        let mut in_ts = std::mem::take(&mut self.ranked_scratch);
        self.wm
            .timestep_aged_utilities(best_ts, now_ms, alpha, residency, &mut in_ts);
        let sum: f64 = in_ts.iter().map(|&(_, u)| u).sum();
        let ts_mean = sum / self.cfg.params.atoms_per_timestep.max(1) as f64;
        // Bounded top-k instead of a full sort of the pending timestep: the
        // k survivors (and their order) are bitwise identical to the sorted
        // prefix because the ranking is a strict total order.
        let in_ts = top_k(in_ts, self.cfg.batch_k);
        let mut selected = std::mem::take(&mut self.selected_scratch);
        selected.extend(
            in_ts
                .iter()
                .filter(|&&(_, u)| u >= ts_mean)
                .map(|&(a, _)| a),
        );
        if selected.is_empty() {
            // top_k put the highest-utility atom first.
            #[expect(
                clippy::expect_used,
                reason = "invariant: best_timestep returned Some, so the chosen timestep \
                          holds at least one pending atom"
            )]
            let &(first, _) = in_ts.first().expect("best timestep has a pending atom");
            selected.push(first);
        }
        // Execute in Morton order: "the k atoms are sorted in Morton order
        // and the corresponding sub-queries from each atom are evaluated in
        // that order".
        selected.sort_unstable();
        if self.sink.enabled() {
            self.emit_batch_selected(
                residency, best_ts, alpha, ts_mean, &in_ts, &selected, now_ms,
            );
        }
        let batch = self.build_batch(&selected);
        self.ranked_scratch = in_ts;
        selected.clear();
        self.selected_scratch = selected;
        Some(batch)
    }

    fn on_query_complete(&mut self, query: QueryId, response_ms: f64, now_ms: f64) {
        if self.alpha_ctl.on_query_complete(response_ms, now_ms) {
            self.run_boundary = true;
            if self.sink.enabled() {
                if let Some(&(alpha, fb)) = self.alpha_ctl.history().last() {
                    self.sink.emit(
                        now_ms,
                        Event::AlphaAdjusted {
                            alpha,
                            mean_response_ms: fb.mean_response_ms,
                            throughput_qps: fb.throughput_qps,
                        },
                    );
                }
            }
        }
        if self.cfg.job_aware {
            let mut fired = std::mem::take(&mut self.fired_scratch);
            self.gating.query_done(query, &mut fired);
            self.release(fired, None, now_ms);
        }
    }

    fn recycle_batch(&mut self, mut batch: Batch) {
        batch.atoms.clear();
        batch.completing_queries.clear();
        self.spare_batch = batch;
    }

    fn query_withdrawn(&mut self, query: QueryId, now_ms: f64) {
        // Dynamic placement diverted the id's atoms to a replica on another
        // node: its job-mates must not keep waiting for it at a gate.
        // `query_done` removes the id from the gating graph and fires any
        // alignment it was the last holdout of. A withdrawn id was declared
        // but never became available here, so the graph holds no copy of it.
        if self.cfg.job_aware {
            let mut fired = std::mem::take(&mut self.fired_scratch);
            self.gating.query_done(query, &mut fired);
            self.release(fired, None, now_ms);
        }
    }

    fn retire_pending(&mut self, _now_ms: f64) {
        self.wm.clear();
        self.gating.retire_held();
    }

    fn has_pending(&self) -> bool {
        !self.wm.is_empty() || self.gating.held_queries() > 0
    }

    fn take_run_boundary(&mut self) -> bool {
        std::mem::take(&mut self.run_boundary)
    }

    fn alpha(&self) -> f64 {
        self.alpha_ctl.alpha()
    }

    fn utility_snapshot(&mut self, residency: &dyn Residency) -> UtilitySnapshot {
        self.wm.utility_snapshot(residency)
    }

    fn set_recorder(&mut self, sink: ObsSink) {
        self.sink = sink;
    }

    fn stats(&self) -> SchedulerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::FixedResidency;
    use jaws_morton::{AtomId, MortonKey};
    use jaws_workload::{Footprint, JobKind, QueryOp};

    fn params() -> MetricParams {
        MetricParams {
            atom_read_ms: 100.0,
            position_compute_ms: 1.0,
            atoms_per_timestep: 64,
        }
    }

    fn q(id: u64, ts: u32, atoms: &[(u64, u32)]) -> Query {
        Query {
            id,
            user: 0,
            op: QueryOp::Velocity,
            timestep: ts,
            footprint: Footprint::from_pairs(atoms.iter().map(|&(m, c)| (MortonKey(m), c))),
        }
    }

    fn jaws1() -> Jaws {
        Jaws::new(JawsConfig {
            batch_k: 3,
            ..JawsConfig::jaws1(params())
        })
    }

    #[test]
    fn two_level_selects_the_densest_timestep() {
        let mut s = jaws1();
        let none = FixedResidency::none();
        // Timestep 0: two hot atoms. Timestep 5: one lukewarm atom.
        s.query_available(&q(1, 0, &[(0, 300), (1, 300)]), 0.0);
        s.query_available(&q(2, 5, &[(0, 50)]), 0.0);
        let b = s.next_batch(1.0, &none).unwrap();
        assert!(b.atoms.iter().all(|a| a.atom.timestep == 0));
        assert_eq!(b.atom_count(), 2, "both hot atoms in one pass");
    }

    #[test]
    fn batch_respects_k_and_morton_order() {
        let mut s = Jaws::new(JawsConfig {
            batch_k: 2,
            ..JawsConfig::jaws1(params())
        });
        let none = FixedResidency::none();
        s.query_available(&q(1, 0, &[(9, 100), (2, 100), (5, 100), (7, 100)]), 0.0);
        let b = s.next_batch(1.0, &none).unwrap();
        assert_eq!(b.atom_count(), 2, "capped at k");
        let order: Vec<u64> = b.atoms.iter().map(|a| a.atom.morton.raw()).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "Morton execution order");
    }

    #[test]
    fn above_mean_filter_excludes_cold_atoms() {
        // A tiny 4-atom timestep makes the all-atoms mean discriminating.
        let mut s = Jaws::new(JawsConfig {
            batch_k: 10,
            ..JawsConfig::jaws1(MetricParams {
                atoms_per_timestep: 4,
                ..params()
            })
        });
        let none = FixedResidency::none();
        // One very hot atom and three tiny ones in the same timestep.
        s.query_available(&q(1, 0, &[(0, 1000)]), 0.0);
        s.query_available(&q(2, 0, &[(1, 1), (2, 1), (3, 1)]), 0.0);
        let b = s.next_batch(1.0, &none).unwrap();
        assert!(
            b.atom_count() < 4,
            "cold atoms below the timestep mean are left for later"
        );
        assert_eq!(b.atoms[0].atom, AtomId::new(0, MortonKey(0)));
    }

    #[test]
    fn completions_are_reported_once_per_query() {
        let mut s = jaws1();
        let none = FixedResidency::none();
        s.query_available(&q(1, 0, &[(0, 10), (1, 10)]), 0.0);
        let b = s.next_batch(1.0, &none).unwrap();
        assert_eq!(b.completing_queries, vec![1]);
        assert!(!s.has_pending());
    }

    #[test]
    fn jaws2_holds_gated_queries_until_partners_arrive() {
        let mut s = Jaws::new(JawsConfig {
            batch_k: 4,
            ..JawsConfig::jaws2(params())
        });
        let none = FixedResidency::none();
        let mk_job = |jid: u64, base: u64| Job {
            id: jid,
            user: jid as u32,
            kind: JobKind::Ordered,
            campaign: jid,
            queries: vec![q(base, 0, &[(1, 50)]), q(base + 1, 1, &[(2, 50)])].into(),
            arrival_ms: 0.0,
            think_ms: 0.0,
        };
        let j1 = mk_job(1, 100);
        let j2 = mk_job(2, 200);
        s.job_declared(&j1, 0.0);
        s.job_declared(&j2, 0.0);
        // Only job 1's first query is available: it is gated with job 2's.
        s.query_available(&j1.queries[0], 0.0);
        assert!(s.next_batch(1.0, &none).is_none(), "held by the gate");
        assert!(s.has_pending(), "held queries still count as pending");
        // Partner arrives: both release together and share the atom read.
        s.query_available(&j2.queries[0], 2.0);
        let b = s.next_batch(3.0, &none).unwrap();
        assert_eq!(b.atom_count(), 1);
        assert_eq!(b.positions(), 100, "both queries in one pass over atom 1");
        assert_eq!(b.completing_queries.len(), 2);
    }

    #[test]
    fn jaws2_gate_timeout_releases_held_queries() {
        let mut s = Jaws::new(JawsConfig {
            batch_k: 4,
            gate_timeout_ms: 1_000.0,
            ..JawsConfig::jaws2(params())
        });
        let none = FixedResidency::none();
        let mk_job = |jid: u64, base: u64| Job {
            id: jid,
            user: jid as u32,
            kind: JobKind::Ordered,
            campaign: jid,
            queries: vec![q(base, 0, &[(1, 50)]), q(base + 1, 1, &[(2, 50)])].into(),
            arrival_ms: 0.0,
            think_ms: 0.0,
        };
        s.job_declared(&mk_job(1, 100), 0.0);
        s.job_declared(&mk_job(2, 200), 0.0);
        s.query_available(&mk_job(1, 100).queries[0], 0.0);
        assert!(s.next_batch(1.0, &none).is_none());
        // Partner never shows up; the valve opens.
        let b = s.next_batch(5_000.0, &none).expect("force-released");
        assert_eq!(b.positions(), 50);
        assert!(s.stats().forced_releases >= 1);
    }

    #[test]
    fn retiring_drops_the_queries_held_at_a_gate() {
        let mut s = Jaws::new(JawsConfig::jaws2(params()));
        let mk_job = |jid: u64, base: u64| Job {
            id: jid,
            user: jid as u32,
            kind: JobKind::Ordered,
            campaign: jid,
            queries: vec![q(base, 0, &[(1, 50)]), q(base + 1, 1, &[(2, 50)])].into(),
            arrival_ms: 0.0,
            think_ms: 0.0,
        };
        s.job_declared(&mk_job(1, 100), 0.0);
        s.job_declared(&mk_job(2, 200), 0.0);
        s.query_available(&mk_job(1, 100).queries[0], 0.0);
        assert_eq!(s.gating().held_queries(), 1, "held by the gate");
        assert!(s.has_pending());
        s.retire_pending(1.0);
        assert!(!s.has_pending(), "a retired gate holds nothing");
        assert_eq!(s.gating().held_queries(), 0);
        assert!(s.next_batch(1e9, &FixedResidency::none()).is_none());
    }

    #[test]
    fn run_boundaries_propagate() {
        let mut s = Jaws::new(JawsConfig {
            run_len: 2,
            ..JawsConfig::jaws1(params())
        });
        s.on_query_complete(1, 10.0, 100.0);
        assert!(!s.take_run_boundary());
        s.on_query_complete(2, 10.0, 200.0);
        assert!(s.take_run_boundary());
        assert!(!s.take_run_boundary());
    }

    #[test]
    fn empty_scheduler_yields_nothing() {
        let mut s = jaws1();
        assert!(s.next_batch(0.0, &FixedResidency::none()).is_none());
        assert!(!s.has_pending());
    }

    #[test]
    fn noop_dispatch_performs_zero_arrangement_folds() {
        // A dispatch attempt that produces nothing — here the gate holds
        // every available query — must not trigger incidental
        // recomputation in the workload queues. Before the
        // generation-counter short-circuit, gate rulings and α probes inside
        // next_batch re-derived timestep means on every call.
        let mut s = Jaws::new(JawsConfig {
            batch_k: 4,
            ..JawsConfig::jaws2(params())
        });
        let none = FixedResidency::none();
        let mk_job = |jid: u64, base: u64| Job {
            id: jid,
            user: jid as u32,
            kind: JobKind::Ordered,
            campaign: jid,
            queries: vec![q(base, 0, &[(1, 50)]), q(base + 1, 1, &[(2, 50)])].into(),
            arrival_ms: 0.0,
            think_ms: 0.0,
        };
        s.job_declared(&mk_job(1, 100), 0.0);
        s.job_declared(&mk_job(2, 200), 0.0);
        // Job 1's first query arrives alone and is gated on job 2's.
        s.query_available(&mk_job(1, 100).queries[0], 0.0);
        let before = s.queue_stats();
        for i in 0..5 {
            assert!(s.next_batch(1.0 + i as f64, &none).is_none(), "held");
        }
        let after = s.queue_stats();
        assert_eq!(after.eq1_recomputes, before.eq1_recomputes, "Eq. 1 folds");
        assert_eq!(after.ts_refolds, before.ts_refolds, "aggregate refolds");
        assert_eq!(after.coarse_scans, before.coarse_scans, "coarse scans");
        assert_eq!(after.residency_probes, before.residency_probes, "probes");
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Jaws::new(JawsConfig::jaws2(params())).name(), "JAWS_2");
        assert_eq!(Jaws::new(JawsConfig::jaws1(params())).name(), "JAWS_1");
    }

    #[test]
    fn top_k_handles_exact_utility_ties_deterministically() {
        let mk = |m: u64, u: f64| (AtomId::new(0, MortonKey(m)), u);
        let v = vec![
            mk(5, 1.0),
            mk(1, 2.0),
            mk(9, 1.0),
            mk(3, 1.0),
            mk(7, 2.0),
            mk(2, 0.5),
        ];
        for k in [1usize, 2, 3, 4, 6, 10] {
            assert_eq!(top_k(v.clone(), k), top_k_full_sort(v.clone(), k), "k={k}");
        }
        assert!(top_k(v, 0).is_empty());
    }

    mod top_k_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The bounded selection must pick the *bitwise identical* atom
            /// set — same ids, same utility bits, same order — as the
            /// retained full-sort reference, across random workloads, age
            /// bias, and the paper's k range. Small morton/count ranges force
            /// heavy overlap (merged queues) and exact utility ties, so the
            /// AtomId tie-break is genuinely exercised.
            #[test]
            fn bounded_top_k_matches_full_sort_reference(
                atoms in proptest::collection::vec((0u64..16, 1u32..6), 1..48),
                alpha in 0.0f64..=1.0,
                k_idx in 0usize..3,
                now in 1.0f64..10_000.0,
            ) {
                let k = [1usize, 15, 50][k_idx];
                let mut wm = WorkloadManager::new(params());
                for (i, &(m, c)) in atoms.iter().enumerate() {
                    wm.enqueue(preprocess(&q(i as u64 + 1, 0, &[(m, c)]), (i % 7) as f64));
                }
                let none = FixedResidency::none();
                let mut ranked = Vec::new();
                wm.timestep_aged_utilities(0, now, alpha, &none, &mut ranked);
                let reference = top_k_full_sort(ranked.clone(), k);
                let fast = top_k(ranked, k);
                prop_assert_eq!(reference.len(), fast.len());
                for (r, f) in reference.iter().zip(&fast) {
                    prop_assert_eq!(r.0, f.0);
                    prop_assert_eq!(r.1.to_bits(), f.1.to_bits());
                }
            }
        }
    }
}
