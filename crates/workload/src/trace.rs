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

    /// Deserializes from JSON and [validates](Trace::validate) the result,
    /// so an inconsistent trace never reaches a caller.
    pub fn load_json<R: Read>(r: R) -> Result<Trace, TraceError> {
        let trace: Trace = serde_json::from_reader(r).map_err(TraceError::Json)?;
        trace.validate()?;
        Ok(trace)
    }

    /// Checks internal consistency: arrivals sorted, every job non-empty,
    /// query ids unique, timesteps within range, footprints non-empty,
    /// canonical (atoms strictly ascending by Morton key, so none repeats),
    /// inside the atom grid and free of zero counts. The error names the
    /// first violated rule.
    pub fn validate(&self) -> Result<(), TraceError> {
        let invalid = |rule: String| Err(TraceError::Invalid(rule));
        let max_morton = (self.atoms_per_side as u64).pow(3);
        let mut last = f64::NEG_INFINITY;
        let mut ids = std::collections::HashSet::new();
        for j in &self.jobs {
            if j.arrival_ms.is_nan() || j.arrival_ms < last {
                return invalid(format!(
                    "jobs not sorted by arrival: job {} arrives at {} ms, after one at {last} ms",
                    j.id, j.arrival_ms
                ));
            }
            last = j.arrival_ms;
            if j.queries.is_empty() {
                return invalid(format!("empty job {}", j.id));
            }
            for q in j.queries.iter() {
                if !ids.insert(q.id) {
                    return invalid(format!("duplicate query id {}", q.id));
                }
                if q.timestep >= self.timesteps {
                    return invalid(format!(
                        "timestep out of range: query {} reads timestep {} of {}",
                        q.id, q.timestep, self.timesteps
                    ));
                }
                if q.footprint.atoms().is_empty() {
                    return invalid(format!("empty footprint in query {}", q.id));
                }
                if let Some(w) = q.footprint.atoms().windows(2).find(|w| w[0].0 >= w[1].0) {
                    let (a, b) = (w[0].0.raw(), w[1].0.raw());
                    return invalid(if a == b {
                        format!("repeated atom in footprint: query {}, Morton key {a}", q.id)
                    } else {
                        format!(
                            "footprint not ascending by Morton key: query {}, key {b} after {a}",
                            q.id
                        )
                    });
                }
                for &(m, c) in q.footprint.atoms() {
                    if m.raw() >= max_morton {
                        return invalid(format!(
                            "atom outside grid: query {} reads Morton key {} of a {}³ grid",
                            q.id,
                            m.raw(),
                            self.atoms_per_side
                        ));
                    }
                    if c == 0 {
                        return invalid(format!(
                            "zero-count footprint entry: query {}, Morton key {}",
                            q.id,
                            m.raw()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why a trace could not be loaded.
#[derive(Debug)]
pub enum TraceError {
    /// The input is not a trace's JSON.
    Json(serde_json::Error),
    /// The trace breaks a consistency rule of [`Trace::validate`], named in
    /// the message.
    Invalid(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "{e}"),
            TraceError::Invalid(rule) => write!(f, "invalid trace: {rule}"),
        }
    }
}

impl std::error::Error for TraceError {}

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
        t.validate().unwrap();
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
    }

    /// The saved JSON of `trace`.
    fn json(trace: &Trace) -> String {
        let mut buf = Vec::new();
        trace.save_json(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// The error [`Trace::load_json`] gives for `json`.
    fn load_error(json: &str) -> String {
        match Trace::load_json(json.as_bytes()) {
            Ok(_) => panic!("an invalid trace loaded: {json}"),
            Err(e) => e.to_string(),
        }
    }

    /// The saved JSON of a one-query trace on a 2³ grid whose query reads
    /// `atoms`. A loaded footprint is read as written, so it can hold what
    /// `Footprint::from_pairs` would have dropped.
    fn one_query(atoms: &str) -> String {
        let t = Trace::new(4, 2, vec![job(1, 0.0, vec![q(1, 0)])]);
        json(&t).replace(r#""atoms":[[1,10]]"#, &format!(r#""atoms":{atoms}"#))
    }

    #[test]
    fn load_rejects_unsorted_arrivals() {
        let mut t = sample();
        t.jobs.swap(0, 1);
        assert!(load_error(&json(&t)).contains("jobs not sorted by arrival"));
    }

    #[test]
    fn load_rejects_an_empty_job() {
        let t = Trace::new(4, 2, vec![job(1, 0.0, vec![])]);
        assert!(load_error(&json(&t)).contains("empty job 1"));
    }

    #[test]
    fn load_rejects_duplicate_ids() {
        let t = Trace::new(4, 2, vec![job(1, 0.0, vec![q(1, 0), q(1, 1)])]);
        assert!(load_error(&json(&t)).contains("duplicate query id 1"));
    }

    #[test]
    fn load_rejects_a_timestep_out_of_range() {
        let t = Trace::new(2, 2, vec![job(1, 0.0, vec![q(1, 5)])]);
        assert!(load_error(&json(&t)).contains("timestep out of range"));
    }

    #[test]
    fn load_rejects_an_atom_outside_the_grid() {
        assert!(load_error(&one_query("[[8,10]]")).contains("atom outside grid"));
    }

    #[test]
    fn load_rejects_a_zero_count() {
        assert!(load_error(&one_query("[[1,0]]")).contains("zero-count footprint entry"));
    }

    #[test]
    fn load_rejects_an_unsorted_footprint() {
        assert!(load_error(&one_query("[[3,10],[1,10]]")).contains("footprint not ascending"));
    }

    #[test]
    fn load_rejects_a_repeated_atom() {
        assert!(load_error(&one_query("[[1,10],[1,5]]")).contains("repeated atom in footprint"));
    }

    #[test]
    fn load_rejects_an_empty_footprint() {
        assert!(load_error(&one_query("[]")).contains("empty footprint"));
    }

    #[test]
    fn load_rejects_malformed_json() {
        let e = Trace::load_json(&br#"{"timesteps": 4"#[..]).unwrap_err();
        assert!(matches!(e, TraceError::Json(_)), "{e}");
    }
}
