//! QoS scheduling: proportional completion-time guarantees (§VII).
//!
//! The paper's first future-work direction: "techniques that provide
//! predictable and fair completion time guarantees that are proportional to
//! query size (e.g. short queries are delayed less than long queries). We
//! observe that even with real-time constraints that bound the completion
//! time of queries, there is still elasticity in the workload that permits
//! the reordering of queries to exploit data sharing."
//!
//! [`QosScheduler`] implements that idea: every query receives a deadline
//! `submit + stretch × estimated service time`, so a query ten times larger
//! tolerates ten times the delay. Atoms are served in earliest-deadline-first
//! order — but a pass still drains the atom's *entire* workload queue, so the
//! elasticity between deadlines is spent on data sharing exactly as the
//! paper anticipates. The *stretch* of a completed query (response time ÷
//! estimated service time) is the fairness measure: a proportional scheduler
//! keeps the stretch distribution tight across query sizes.
//!
//! ## Total order (determinism)
//!
//! Atom selection is a total order (lint rule D001/F002): earliest deadline
//! first via `f64::total_cmp`, ties broken by ascending `AtomId`. Deadline
//! state lives in `BTreeMap`s, so the `min_by` scan visits candidates in
//! ascending `AtomId` order and the result is independent of insertion
//! history. Within an atom pass, queries complete in workload-queue
//! (enqueue) order, which the executor produced deterministically.

use crate::batch::{preprocess, Batch};
use crate::policy::{Residency, Scheduler, SchedulerStats};
use crate::queues::{MetricParams, UtilitySnapshot, WorkloadManager};
use jaws_morton::{AtomId, FastMap};
use jaws_obs::ObsSink;
use jaws_workload::{Job, Query, QueryId};
use std::collections::BTreeMap;

/// Earliest-deadline-first batch scheduler with proportional deadlines.
#[derive(Debug)]
pub struct QosScheduler {
    wm: WorkloadManager,
    /// Deadline stretch: a query may be delayed up to `stretch ×` its own
    /// estimated service time before its deadline passes.
    stretch: f64,
    /// Per-query absolute deadline, ms.
    deadline: FastMap<QueryId, f64>,
    /// Per-atom earliest deadline among pending sub-queries.
    atom_deadline: BTreeMap<AtomId, f64>,
    run_len: usize,
    completed_in_run: usize,
    run_boundary: bool,
    stats: SchedulerStats,
    sink: ObsSink,
}

impl QosScheduler {
    /// Creates a QoS scheduler with the given deadline stretch (≥ 1).
    pub fn new(params: MetricParams, stretch: f64, run_len: usize) -> Self {
        assert!(stretch >= 1.0, "stretch below 1 is infeasible");
        assert!(run_len > 0);
        QosScheduler {
            wm: WorkloadManager::new(params),
            stretch,
            deadline: FastMap::default(),
            atom_deadline: BTreeMap::new(),
            run_len,
            completed_in_run: 0,
            run_boundary: false,
            stats: SchedulerStats::default(),
            sink: ObsSink::null(),
        }
    }

    /// Estimated service time of a query, ms.
    pub fn estimate_ms(&self, q: &Query) -> f64 {
        let p = self.wm.params();
        q.footprint.atom_count() as f64 * p.atom_read_ms
            + q.positions() as f64 * p.position_compute_ms
    }
}

impl Scheduler for QosScheduler {
    fn name(&self) -> &'static str {
        "JAWS-QoS"
    }

    fn job_declared(&mut self, _job: &Job, _now_ms: f64) {}

    fn query_available(&mut self, query: &Query, now_ms: f64) {
        let est = self.estimate_ms(query);
        let d = now_ms + self.stretch * est;
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::DeadlineAssigned {
                    query: query.id,
                    estimate_ms: est,
                    deadline_ms: d,
                },
            );
        }
        self.deadline.insert(query.id, d);
        for sub in preprocess(query, now_ms) {
            let e = self.atom_deadline.entry(sub.atom).or_insert(f64::INFINITY);
            *e = e.min(d);
            self.wm.enqueue([sub]);
        }
    }

    fn next_batch(&mut self, _now_ms: f64, _residency: &dyn Residency) -> Option<Batch> {
        // Earliest deadline first over atoms; the whole workload queue of the
        // chosen atom rides along (data sharing within the deadline slack).
        // Total order: (deadline via total_cmp, AtomId) — see module docs.
        let (&atom, _) = self
            .atom_deadline
            .iter()
            .min_by(|a, b| a.1.total_cmp(b.1).then_with(|| a.0.cmp(b.0)))?;
        self.atom_deadline.remove(&atom);
        let mut completing = Vec::new();
        let group = self.wm.take_atom(&atom, &mut completing);
        for c in &completing {
            self.deadline.remove(c);
        }
        self.stats.batches += 1;
        self.stats.atom_groups += 1;
        self.stats.subqueries += group.subqueries.len() as u64;
        Some(Batch {
            atoms: vec![group],
            completing_queries: completing,
        })
    }

    fn on_query_complete(&mut self, _query: QueryId, _response_ms: f64, _now_ms: f64) {
        self.completed_in_run += 1;
        if self.completed_in_run >= self.run_len {
            self.completed_in_run = 0;
            self.run_boundary = true;
        }
    }

    fn query_withdrawn(&mut self, query: QueryId, _now_ms: f64) {
        // Deadlines are assigned at availability, so a withdrawn (declared
        // but never-submitted) id has no state here. Kept explicit: if a
        // future QoS admits at declaration time, this is where its deadline
        // must be dropped.
        debug_assert!(!self.deadline.contains_key(&query));
    }

    fn retire_pending(&mut self, _now_ms: f64) {
        // Truncation: queued queries will never complete, so every map must
        // empty or the daemon direction leaks one entry per abandoned query.
        self.wm.clear();
        self.deadline.clear();
        self.atom_deadline.clear();
    }

    fn has_pending(&self) -> bool {
        !self.wm.is_empty()
    }

    fn take_run_boundary(&mut self) -> bool {
        std::mem::take(&mut self.run_boundary)
    }

    fn alpha(&self) -> f64 {
        1.0 // deadline order generalizes arrival order
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
    use jaws_morton::MortonKey;
    use jaws_workload::{Footprint, QueryOp};

    fn q(id: u64, atoms: u64, positions: u32) -> Query {
        Query {
            id,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs(
                (0..atoms).map(|m| (MortonKey(m + id * 100), positions / atoms as u32)),
            ),
        }
    }

    fn sched(stretch: f64) -> QosScheduler {
        QosScheduler::new(MetricParams::paper_testbed(), stretch, 100)
    }

    #[test]
    fn deadlines_are_proportional_to_size() {
        let s = sched(3.0);
        let small = q(1, 1, 100);
        let large = q(2, 10, 1000);
        assert!(s.estimate_ms(&large) > 5.0 * s.estimate_ms(&small));
    }

    #[test]
    fn small_late_query_overtakes_large_early_one() {
        let mut s = sched(2.0);
        let none = FixedResidency::none();
        // Large query arrives first, tiny query shortly after: the tiny one's
        // deadline lands earlier, so its atom is served first.
        s.query_available(&q(1, 10, 2000), 0.0);
        s.query_available(&q(2, 1, 20), 10.0);
        let b = s.next_batch(20.0, &none).unwrap();
        assert_eq!(b.completing_queries, vec![2], "EDF favors the small query");
    }

    #[test]
    fn large_query_is_not_starved_forever() {
        let mut s = sched(2.0);
        let none = FixedResidency::none();
        s.query_available(&q(1, 2, 100), 0.0); // deadline ≈ 2*(160+5)
                                               // A stream of small queries arriving later has later deadlines than
                                               // the old large one eventually.
        for i in 0..5 {
            s.query_available(&q(10 + i, 1, 10), 400.0 + i as f64);
        }
        let b = s.next_batch(500.0, &none).unwrap();
        // The large query's atoms (deadline ≈ 330) precede the small ones
        // (deadline ≈ 560+).
        assert!(b.atoms[0].atom.morton.raw() < 200, "old large query first");
    }

    #[test]
    fn sharing_still_happens_within_a_pass() {
        let mut s = sched(2.0);
        let none = FixedResidency::none();
        let shared = |id: u64, positions: u32| Query {
            id,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs([(MortonKey(7), positions)]),
        };
        s.query_available(&shared(1, 50), 0.0);
        s.query_available(&shared(2, 70), 1.0);
        let batch = s.next_batch(2.0, &none).unwrap();
        assert_eq!(batch.positions(), 120, "both queries in one pass");
        assert_eq!(batch.completing_queries.len(), 2);
    }

    #[test]
    fn drains_completely() {
        let mut s = sched(1.5);
        let none = FixedResidency::none();
        for i in 0..6 {
            s.query_available(&q(i + 1, 2, 100), i as f64);
        }
        let mut done = 0;
        while let Some(b) = s.next_batch(100.0, &none) {
            done += b.completing_queries.len();
        }
        assert_eq!(done, 6);
        assert!(!s.has_pending());
    }

    #[test]
    fn retiring_pending_work_empties_every_deadline_map() {
        // Simulates `max_sim_ms` truncation: some atoms served, others never
        // selected. Before the retire hook existed, the unserved queries'
        // entries stayed in `deadline`/`atom_deadline` forever — unbounded
        // growth for a scheduler reused across traces.
        let mut s = sched(2.0);
        let none = FixedResidency::none();
        for i in 0..3 {
            s.query_available(&q(i + 1, 1, 100), i as f64); // complete in one pass
        }
        for i in 3..6 {
            s.query_available(&q(i + 1, 2, 100), i as f64); // span two atoms
        }
        let b = s.next_batch(10.0, &none).unwrap();
        assert!(!b.completing_queries.is_empty(), "one atom pass served");
        s.retire_pending(20.0);
        assert!(s.deadline.is_empty(), "deadlines leaked: {:?}", s.deadline);
        assert!(
            s.atom_deadline.is_empty(),
            "atom deadlines leaked: {:?}",
            s.atom_deadline
        );
        assert!(!s.has_pending(), "workload manager still holds sub-queries");
        assert!(s.next_batch(30.0, &none).is_none());
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn stretch_below_one_rejected() {
        let _ = sched(0.5);
    }
}
