//! NoShare: the no-data-sharing baseline of §VI.
//!
//! "NoShare evaluates each query independently (no I/O is shared) and in
//! arrival order." Every batch carries exactly one query's sub-queries, so
//! concurrent queries touching the same atom each trigger their own pass over
//! the data (the buffer cache may still absorb some of the redundancy, as it
//! would under any scheduler).

use crate::batch::{preprocess, AtomBatch, Batch};
use crate::policy::{Residency, Scheduler, SchedulerStats};
use crate::queues::UtilitySnapshot;
use jaws_workload::{Job, Query, QueryId};
use std::collections::VecDeque;

/// The arrival-order, one-query-per-batch scheduler.
#[derive(Debug)]
pub struct NoShare {
    fifo: VecDeque<Query>,
    run_len: usize,
    completed_in_run: usize,
    run_boundary: bool,
    stats: SchedulerStats,
}

impl NoShare {
    /// Creates a NoShare scheduler; `run_len` only drives the cache's run
    /// boundary (SLRU promotion cadence) so all schedulers share it.
    pub fn new(run_len: usize) -> Self {
        assert!(run_len > 0);
        NoShare {
            fifo: VecDeque::new(),
            run_len,
            completed_in_run: 0,
            run_boundary: false,
            stats: SchedulerStats::default(),
        }
    }
}

impl Scheduler for NoShare {
    fn name(&self) -> &'static str {
        "NoShare"
    }

    fn job_declared(&mut self, _job: &Job, _now_ms: f64) {}

    fn query_available(&mut self, query: &Query, _now_ms: f64) {
        self.fifo.push_back(query.clone());
    }

    fn next_batch(&mut self, now_ms: f64, _residency: &dyn Residency) -> Option<Batch> {
        let query = self.fifo.pop_front()?;
        let qid = query.id;
        // Sub-queries of this query only, in Morton order (preprocess output
        // is already sorted) — "points from each query are sorted and
        // evaluated in Morton order so that each atom is read only once".
        let atoms: Vec<AtomBatch> = preprocess(&query, now_ms)
            .into_iter()
            .map(|s| AtomBatch {
                atom: s.atom,
                subqueries: vec![s],
            })
            .collect();
        self.stats.batches += 1;
        self.stats.atom_groups += atoms.len() as u64;
        self.stats.subqueries += atoms.len() as u64;
        Some(Batch {
            atoms,
            completing_queries: vec![qid],
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
        self.fifo.clear();
    }

    fn has_pending(&self) -> bool {
        !self.fifo.is_empty()
    }

    fn take_run_boundary(&mut self) -> bool {
        std::mem::take(&mut self.run_boundary)
    }

    fn alpha(&self) -> f64 {
        1.0 // arrival order by construction
    }

    fn utility_snapshot(&mut self, _residency: &dyn Residency) -> UtilitySnapshot {
        UtilitySnapshot::empty()
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

    fn q(id: u64, atoms: &[(u64, u32)]) -> Query {
        Query {
            id,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs(atoms.iter().map(|&(m, c)| (MortonKey(m), c))),
        }
    }

    #[test]
    fn serves_queries_in_arrival_order() {
        let mut s = NoShare::new(100);
        let none = FixedResidency::none();
        s.query_available(&q(1, &[(0, 5)]), 0.0);
        s.query_available(&q(2, &[(0, 5)]), 1.0);
        let b1 = s.next_batch(10.0, &none).unwrap();
        let b2 = s.next_batch(20.0, &none).unwrap();
        assert_eq!(b1.completing_queries, vec![1]);
        assert_eq!(b2.completing_queries, vec![2]);
        assert!(s.next_batch(30.0, &none).is_none());
    }

    #[test]
    fn no_co_scheduling_even_on_shared_atoms() {
        let mut s = NoShare::new(100);
        let none = FixedResidency::none();
        s.query_available(&q(1, &[(7, 5)]), 0.0);
        s.query_available(&q(2, &[(7, 9)]), 0.0);
        let b1 = s.next_batch(0.0, &none).unwrap();
        // Query 2's positions are NOT folded into query 1's pass over atom 7.
        assert_eq!(b1.positions(), 5);
        assert_eq!(b1.atoms.len(), 1);
        assert!(s.has_pending());
    }

    #[test]
    fn batch_covers_all_atoms_of_the_query_in_morton_order() {
        let mut s = NoShare::new(100);
        let none = FixedResidency::none();
        s.query_available(&q(1, &[(9, 1), (2, 1), (5, 1)]), 0.0);
        let b = s.next_batch(0.0, &none).unwrap();
        let order: Vec<u64> = b.atoms.iter().map(|a| a.atom.morton.raw()).collect();
        assert_eq!(order, vec![2, 5, 9]);
    }

    #[test]
    fn run_boundary_every_r_completions() {
        let mut s = NoShare::new(2);
        s.on_query_complete(1, 0.0, 0.0);
        assert!(!s.take_run_boundary());
        s.on_query_complete(2, 0.0, 0.0);
        assert!(s.take_run_boundary());
        assert!(!s.take_run_boundary(), "boundary consumed");
    }
}
