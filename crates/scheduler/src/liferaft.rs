//! LifeRaft: data-driven batch processing with a fixed age bias (§III).
//!
//! LifeRaft "evaluates data atoms in contention order": every scheduling
//! decision picks the single atom with the highest aged workload-throughput
//! metric (Eq. 2) and serves *all* pending sub-queries against it in one pass.
//! The age bias α is set at initialization and never changes — the paper's
//! LifeRaft₁ is `alpha = 1` (arrival order with co-scheduling) and LifeRaft₂
//! is `alpha = 0` (pure contention). There is no two-level framework: "a
//! single atom is scheduled at a time" (§VI).

use crate::batch::{preprocess, Batch};
use crate::policy::{Residency, Scheduler, SchedulerStats};
use crate::queues::{MetricParams, UtilitySnapshot, WorkloadManager};
use jaws_workload::{Job, Query, QueryId};

/// The single-atom contention-order scheduler.
#[derive(Debug)]
pub struct LifeRaft {
    wm: WorkloadManager,
    alpha: f64,
    run_len: usize,
    completed_in_run: usize,
    run_boundary: bool,
    stats: SchedulerStats,
}

impl LifeRaft {
    /// Creates a LifeRaft scheduler with fixed age bias `alpha` ∈ \[0, 1\].
    pub fn new(params: MetricParams, alpha: f64, run_len: usize) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert!(run_len > 0);
        LifeRaft {
            wm: WorkloadManager::new(params),
            alpha,
            run_len,
            completed_in_run: 0,
            run_boundary: false,
            stats: SchedulerStats::default(),
        }
    }

    /// The paper's LifeRaft₁: arrival-order bias (α = 1).
    pub fn arrival_order(params: MetricParams, run_len: usize) -> Self {
        Self::new(params, 1.0, run_len)
    }

    /// The paper's LifeRaft₂: contention bias (α = 0).
    pub fn contention(params: MetricParams, run_len: usize) -> Self {
        Self::new(params, 0.0, run_len)
    }
}

impl Scheduler for LifeRaft {
    fn name(&self) -> &'static str {
        if self.alpha >= 1.0 {
            "LifeRaft_1"
        } else if self.alpha <= 0.0 {
            "LifeRaft_2"
        } else {
            "LifeRaft"
        }
    }

    fn job_declared(&mut self, _job: &Job, _now_ms: f64) {}

    fn query_available(&mut self, query: &Query, now_ms: f64) {
        self.wm.enqueue(preprocess(query, now_ms));
    }

    fn next_batch(&mut self, now_ms: f64, residency: &dyn Residency) -> Option<Batch> {
        // Argmax over aged utilities (ties to the smaller atom id), served
        // from the workload manager's incremental state instead of a full
        // per-dispatch scan.
        let (atom, _) = self.wm.best_atom(now_ms, self.alpha, residency)?;
        let mut completing = Vec::new();
        let group = self.wm.take_atom(&atom, &mut completing);
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

    fn retire_pending(&mut self, _now_ms: f64) {
        self.wm.clear();
    }

    fn has_pending(&self) -> bool {
        !self.wm.is_empty()
    }

    fn take_run_boundary(&mut self) -> bool {
        std::mem::take(&mut self.run_boundary)
    }

    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn utility_snapshot(&mut self, residency: &dyn Residency) -> UtilitySnapshot {
        self.wm.utility_snapshot(residency)
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
    use jaws_workload::{Footprint, QueryOp};

    fn q(id: u64, atoms: &[(u64, u32)]) -> Query {
        Query {
            id,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs(atoms.iter().map(|&(m, c)| (MortonKey(m), c))),
        }
    }

    fn params() -> MetricParams {
        MetricParams {
            atom_read_ms: 100.0,
            position_compute_ms: 1.0,
            atoms_per_timestep: 64,
        }
    }

    #[test]
    fn contention_mode_serves_the_hottest_atom_first() {
        let mut s = LifeRaft::contention(params(), 100);
        let none = FixedResidency::none();
        s.query_available(&q(1, &[(0, 10)]), 0.0);
        s.query_available(&q(2, &[(1, 200)]), 1.0);
        s.query_available(&q(3, &[(1, 200)]), 2.0);
        let b = s.next_batch(10.0, &none).unwrap();
        assert_eq!(b.atoms[0].atom, AtomId::new(0, MortonKey(1)));
        assert_eq!(b.positions(), 400, "both queries co-scheduled in one pass");
        assert_eq!(b.completing_queries.len(), 2);
    }

    #[test]
    fn arrival_mode_serves_the_oldest_atom_first() {
        let mut s = LifeRaft::arrival_order(params(), 100);
        let none = FixedResidency::none();
        s.query_available(&q(1, &[(0, 1)]), 0.0); // old, tiny
        s.query_available(&q(2, &[(1, 500)]), 50.0); // new, huge
        let b = s.next_batch(100.0, &none).unwrap();
        assert_eq!(b.atoms[0].atom, AtomId::new(0, MortonKey(0)));
    }

    #[test]
    fn arrival_mode_still_co_schedules_shared_atoms() {
        // "It differs from NoShare in that queries referencing the same data
        // as the current query in arrival order are co-scheduled."
        let mut s = LifeRaft::arrival_order(params(), 100);
        let none = FixedResidency::none();
        s.query_available(&q(1, &[(4, 10)]), 0.0);
        s.query_available(&q(2, &[(4, 20)]), 90.0);
        let b = s.next_batch(100.0, &none).unwrap();
        assert_eq!(b.positions(), 30);
        assert_eq!(b.completing_queries.len(), 2);
        assert!(!s.has_pending());
    }

    #[test]
    fn one_atom_per_batch() {
        let mut s = LifeRaft::contention(params(), 100);
        let none = FixedResidency::none();
        s.query_available(&q(1, &[(0, 10), (1, 10), (2, 10)]), 0.0);
        let b = s.next_batch(1.0, &none).unwrap();
        assert_eq!(b.atom_count(), 1, "LifeRaft lacks two-level batching");
        assert!(
            b.completing_queries.is_empty(),
            "query still has atoms left"
        );
        assert!(s.has_pending());
    }

    #[test]
    fn residency_biases_selection_toward_cached_atoms() {
        let mut s = LifeRaft::contention(params(), 100);
        s.query_available(&q(1, &[(0, 50)]), 0.0);
        s.query_available(&q(2, &[(1, 50)]), 0.0);
        // Atom 1 cached: φ = 0 makes it strictly cheaper, so it goes first.
        let res = FixedResidency::of([AtomId::new(0, MortonKey(1))]);
        let b = s.next_batch(1.0, &res).unwrap();
        assert_eq!(b.atoms[0].atom, AtomId::new(0, MortonKey(1)));
    }

    #[test]
    fn empty_scheduler_yields_no_batch() {
        let mut s = LifeRaft::contention(params(), 100);
        assert!(s.next_batch(0.0, &FixedResidency::none()).is_none());
        assert!(!s.has_pending());
    }

    #[test]
    fn names_reflect_the_paper_variants() {
        assert_eq!(LifeRaft::arrival_order(params(), 10).name(), "LifeRaft_1");
        assert_eq!(LifeRaft::contention(params(), 10).name(), "LifeRaft_2");
        assert_eq!(LifeRaft::new(params(), 0.5, 10).name(), "LifeRaft");
    }
}
