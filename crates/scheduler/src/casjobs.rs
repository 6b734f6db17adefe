//! CasJobs-style multi-queue baseline (related work, §II).
//!
//! "The CasJobs system for the Sloan Digital Sky Survey avoids the starvation
//! of short queries from data-intensive scan queries by using a multi-queue
//! job submission system in which queries from each class are assigned to
//! different servers. … However, the distinction between long and short
//! queries is arbitrary so that the longest short queries interfere with the
//! short queue and the shortest long queries experience starvation."
//!
//! This scheduler reproduces that design on one pipeline: queries are
//! classified by their *estimated* service time against a fixed threshold;
//! the short queue has strict priority; within each queue, arrival order;
//! and — like CasJobs and NoShare, unlike LifeRaft/JAWS — no data sharing:
//! each pass serves exactly one query. It exists as a baseline to show that
//! JAWS "does not rely on ad hoc mechanisms to distinguish long and short
//! running queries": JAWS serves both classes well without the threshold.

use crate::batch::{preprocess, AtomBatch, Batch};
use crate::policy::{Residency, Scheduler, SchedulerStats};
use crate::queues::{MetricParams, UtilitySnapshot};
use jaws_workload::{Job, Query, QueryId};
use std::collections::VecDeque;

/// The two-class, arrival-order, no-sharing scheduler.
#[derive(Debug)]
pub struct CasJobs {
    params: MetricParams,
    /// Estimated-service threshold separating short from long queries, ms.
    threshold_ms: f64,
    short: VecDeque<Query>,
    long: VecDeque<Query>,
    run_len: usize,
    completed_in_run: usize,
    run_boundary: bool,
    stats: SchedulerStats,
    short_served: u64,
    long_served: u64,
}

impl CasJobs {
    /// Creates a CasJobs-style scheduler with the given class threshold.
    pub fn new(params: MetricParams, threshold_ms: f64, run_len: usize) -> Self {
        assert!(threshold_ms > 0.0 && run_len > 0);
        CasJobs {
            params,
            threshold_ms,
            short: VecDeque::new(),
            long: VecDeque::new(),
            run_len,
            completed_in_run: 0,
            run_boundary: false,
            stats: SchedulerStats::default(),
            short_served: 0,
            long_served: 0,
        }
    }

    /// Estimated service time of a query under the cost constants, ms.
    pub fn estimate_ms(&self, q: &Query) -> f64 {
        q.footprint.atom_count() as f64 * self.params.atom_read_ms
            + q.positions() as f64 * self.params.position_compute_ms
    }

    /// Queries served from the short / long queue so far.
    pub fn served(&self) -> (u64, u64) {
        (self.short_served, self.long_served)
    }
}

impl Scheduler for CasJobs {
    fn name(&self) -> &'static str {
        "CasJobs"
    }

    fn job_declared(&mut self, _job: &Job, _now_ms: f64) {}

    fn query_available(&mut self, query: &Query, _now_ms: f64) {
        if self.estimate_ms(query) <= self.threshold_ms {
            self.short.push_back(query.clone());
        } else {
            self.long.push_back(query.clone());
        }
    }

    fn next_batch(&mut self, now_ms: f64, _residency: &dyn Residency) -> Option<Batch> {
        let (query, from_short) = if let Some(q) = self.short.pop_front() {
            (q, true)
        } else {
            (self.long.pop_front()?, false)
        };
        if from_short {
            self.short_served += 1;
        } else {
            self.long_served += 1;
        }
        let qid = query.id;
        let atoms: Vec<AtomBatch> = preprocess(&query, now_ms).map(AtomBatch::single).collect();
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
        self.short.clear();
        self.long.clear();
    }

    fn has_pending(&self) -> bool {
        !self.short.is_empty() || !self.long.is_empty()
    }

    fn take_run_boundary(&mut self) -> bool {
        std::mem::take(&mut self.run_boundary)
    }

    fn alpha(&self) -> f64 {
        1.0 // arrival order within each class
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

    fn q(id: u64, atoms: u64, positions: u32) -> Query {
        Query {
            id,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs(
                (0..atoms).map(|m| (MortonKey(m), positions / atoms as u32)),
            ),
        }
    }

    fn sched() -> CasJobs {
        // Threshold 200 ms: 1-atom queries are short, 5-atom queries long.
        CasJobs::new(MetricParams::paper_testbed(), 200.0, 100)
    }

    #[test]
    fn short_queries_preempt_long_ones() {
        let mut s = sched();
        let none = FixedResidency::none();
        s.query_available(&q(1, 5, 500), 0.0); // long, arrived first
        s.query_available(&q(2, 1, 50), 1.0); // short, arrived second
        let b = s.next_batch(2.0, &none).unwrap();
        assert_eq!(b.completing_queries, vec![2], "short class served first");
        let b = s.next_batch(3.0, &none).unwrap();
        assert_eq!(b.completing_queries, vec![1]);
        assert_eq!(s.served(), (1, 1));
    }

    #[test]
    fn within_a_class_arrival_order_holds() {
        let mut s = sched();
        let none = FixedResidency::none();
        s.query_available(&q(1, 1, 50), 0.0);
        s.query_available(&q(2, 1, 50), 1.0);
        assert_eq!(
            s.next_batch(2.0, &none).unwrap().completing_queries,
            vec![1]
        );
        assert_eq!(
            s.next_batch(3.0, &none).unwrap().completing_queries,
            vec![2]
        );
    }

    #[test]
    fn no_sharing_between_queries() {
        let mut s = sched();
        let none = FixedResidency::none();
        s.query_available(&q(1, 1, 50), 0.0);
        s.query_available(&q(2, 1, 50), 0.0); // same atom
        let b = s.next_batch(0.0, &none).unwrap();
        assert_eq!(b.positions(), 50, "only the first query's positions");
        assert!(s.has_pending());
    }

    #[test]
    fn the_arbitrary_threshold_misclassifies_borderline_queries() {
        // The paper's criticism in miniature: two nearly identical queries
        // land in different classes.
        let s = sched();
        let borderline_short = q(1, 2, 400); // 2*80 + 400*0.05 = 180 ms
        let borderline_long = q(2, 2, 900); // 2*80 + 900*0.05 = 205 ms
        assert!(s.estimate_ms(&borderline_short) <= 200.0);
        assert!(s.estimate_ms(&borderline_long) > 200.0);
    }

    #[test]
    fn drains_both_queues() {
        let mut s = sched();
        let none = FixedResidency::none();
        for i in 0..4 {
            s.query_available(&q(i, if i % 2 == 0 { 1 } else { 5 }, 100), i as f64);
        }
        let mut served = 0;
        while s.next_batch(10.0, &none).is_some() {
            served += 1;
        }
        assert_eq!(served, 4);
        assert!(!s.has_pending());
    }
}
