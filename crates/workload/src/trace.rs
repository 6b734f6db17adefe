//! Replayable traces: jobs with arrival times, serialization, speed-up.

use crate::types::{Job, JobKind, Query};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// A workload trace: jobs sorted by arrival time, plus the geometry they were
/// generated against (so a replay can validate it targets the right database).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Timesteps the trace addresses.
    pub timesteps: u32,
    /// Atoms per side of the atom grid the footprints address.
    pub atoms_per_side: u32,
    /// Jobs, sorted by `arrival_ms`.
    pub jobs: Vec<Job>,
}

impl Trace {
    /// Builds a trace, sorting jobs by arrival.
    pub fn new(timesteps: u32, atoms_per_side: u32, mut jobs: Vec<Job>) -> Self {
        jobs.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
        Trace {
            timesteps,
            atoms_per_side,
            jobs,
        }
    }

    /// Total query count.
    pub fn query_count(&self) -> usize {
        self.jobs.iter().map(|j| j.queries.len()).sum()
    }

    /// Total queried positions.
    pub fn position_count(&self) -> u64 {
        self.jobs.iter().map(Job::positions).sum()
    }

    /// Fraction of queries that belong to multi-query jobs (the paper reports
    /// over 95%).
    pub fn fraction_in_jobs(&self) -> f64 {
        let total = self.query_count() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let in_jobs: usize = self
            .jobs
            .iter()
            .filter(|j| j.queries.len() > 1)
            .map(|j| j.queries.len())
            .sum();
        in_jobs as f64 / total
    }

    /// Applies the saturation *speed-up* of Fig. 11: "if users submit job jᵢ
    /// two minutes following jᵢ₋₁ … a speed-up of two indicates that jᵢ is now
    /// submitted in one minute". Inter-arrival gaps are divided by `factor`;
    /// think times (inside jobs) are untouched.
    pub fn speedup(&self, factor: f64) -> Trace {
        assert!(factor > 0.0, "speed-up must be positive");
        let mut out = self.clone();
        if let Some(first) = self.jobs.first().map(|j| j.arrival_ms) {
            for j in &mut out.jobs {
                j.arrival_ms = first + (j.arrival_ms - first) / factor;
            }
        }
        out
    }

    /// Flat iterator over `(job, query)` pairs.
    pub fn queries(&self) -> impl Iterator<Item = (&Job, &Query)> {
        self.jobs
            .iter()
            .flat_map(|j| j.queries.iter().map(move |q| (j, q)))
    }

    /// Number of ordered jobs.
    pub fn ordered_job_count(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.kind == JobKind::Ordered)
            .count()
    }

    /// Serializes to JSON.
    pub fn save_json<W: Write>(&self, w: W) -> serde_json::Result<()> {
        serde_json::to_writer(w, self)
    }

    /// Deserializes from JSON.
    pub fn load_json<R: Read>(r: R) -> serde_json::Result<Trace> {
        serde_json::from_reader(r)
    }

    /// Validates internal consistency: arrivals sorted, query ids unique,
    /// footprints within the atom grid, timesteps within range.
    pub fn validate(&self) {
        let max_morton = (self.atoms_per_side as u64).pow(3);
        let mut last = f64::NEG_INFINITY;
        let mut ids = std::collections::HashSet::new();
        for j in &self.jobs {
            assert!(j.arrival_ms >= last, "jobs not sorted by arrival");
            last = j.arrival_ms;
            assert!(!j.queries.is_empty(), "empty job {}", j.id);
            for q in j.queries.iter() {
                assert!(ids.insert(q.id), "duplicate query id {}", q.id);
                assert!(q.timestep < self.timesteps, "timestep out of range");
                assert!(!q.footprint.atoms().is_empty(), "empty footprint {}", q.id);
                for &(m, c) in q.footprint.atoms() {
                    assert!(m.raw() < max_morton, "atom outside grid");
                    assert!(c > 0, "zero-count footprint entry");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Footprint, JobKind, QueryOp};
    use jaws_morton::MortonKey;

    fn q(id: u64, ts: u32) -> Query {
        Query {
            id,
            user: 1,
            op: QueryOp::Velocity,
            timestep: ts,
            footprint: Footprint::from_pairs([(MortonKey(id % 8), 10u32)]),
        }
    }

    fn job(id: u64, arrival: f64, queries: Vec<Query>) -> Job {
        Job {
            id,
            user: 1,
            kind: JobKind::Ordered,
            campaign: id,
            queries: queries.into(),
            arrival_ms: arrival,
            think_ms: 50.0,
        }
    }

    fn sample() -> Trace {
        Trace::new(
            4,
            2,
            vec![
                job(2, 1000.0, vec![q(3, 1), q(4, 2)]),
                job(1, 0.0, vec![q(1, 0), q(2, 1)]),
                job(3, 5000.0, vec![q(5, 3)]),
            ],
        )
    }

    #[test]
    fn construction_sorts_by_arrival() {
        let t = sample();
        assert_eq!(
            t.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        t.validate();
    }

    #[test]
    fn counts() {
        let t = sample();
        assert_eq!(t.query_count(), 5);
        assert_eq!(t.position_count(), 50);
        assert_eq!(t.ordered_job_count(), 3);
        // 4 of 5 queries sit in multi-query jobs.
        assert!((t.fraction_in_jobs() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn speedup_compresses_gaps_but_not_the_origin() {
        let t = sample().speedup(2.0);
        let arr: Vec<f64> = t.jobs.iter().map(|j| j.arrival_ms).collect();
        assert_eq!(arr, vec![0.0, 500.0, 2500.0]);
        // Slow-down works too.
        let s = sample().speedup(0.5);
        assert_eq!(s.jobs[2].arrival_ms, 10000.0);
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        t.save_json(&mut buf).unwrap();
        let back = Trace::load_json(buf.as_slice()).unwrap();
        assert_eq!(back.query_count(), t.query_count());
        assert_eq!(back.jobs[1].queries[0].id, t.jobs[1].queries[0].id);
        back.validate();
    }

    #[test]
    #[should_panic(expected = "timestep out of range")]
    fn validate_catches_bad_timestep() {
        let t = Trace::new(2, 2, vec![job(1, 0.0, vec![q(1, 5)])]);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "duplicate query id")]
    fn validate_catches_duplicate_ids() {
        let t = Trace::new(4, 2, vec![job(1, 0.0, vec![q(1, 0), q(1, 1)])]);
        t.validate();
    }
}
