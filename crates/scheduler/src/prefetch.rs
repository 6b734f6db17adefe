//! Trajectory-based prefetching — the paper's §VII extension.
//!
//! "We can extrapolate the trajectory of jobs in time and space (i.e. the
//! velocity of the bounding box or time step delta between consecutive
//! queries) to predict which data atoms are accessed by subsequent queries.
//! This can also help mask the cost of random reads by pre-fetching large
//! amounts of data."
//!
//! The [`Prefetcher`] watches each ordered job's query stream, estimates the
//! footprint centroid drift and timestep delta from the last two queries, and
//! predicts the next query's atom set by translating the last footprint along
//! the drift. The execution engine issues these predictions when the pipeline
//! would otherwise idle, so prefetching only ever uses spare capacity.

use jaws_morton::{AtomId, FastMap, FastSet, MortonKey};
use jaws_workload::{JobId, Query};
use std::collections::VecDeque;

/// Per-job trajectory state.
#[derive(Debug, Clone)]
struct Trajectory {
    /// Centroid of the previous query's footprint, in atom coordinates.
    prev_centroid: [f64; 3],
    prev_timestep: u32,
    /// Latest observed footprint (atom keys only).
    last_atoms: Vec<MortonKey>,
    last_centroid: [f64; 3],
    last_timestep: u32,
    observations: u32,
}

/// Footprint centroid in (fractional) atom coordinates.
fn centroid(q: &Query) -> [f64; 3] {
    let (mut cx, mut cy, mut cz) = (0.0f64, 0.0f64, 0.0f64);
    let mut w = 0.0;
    for &(m, count) in q.footprint.atoms() {
        let (x, y, z) = m.coords();
        let cw = count as f64;
        cx += x as f64 * cw;
        cy += y as f64 * cw;
        cz += z as f64 * cw;
        w += cw;
    }
    let mut c = [cx, cy, cz];
    if w > 0.0 {
        for v in &mut c {
            *v /= w;
        }
    }
    c
}

/// The trajectory predictor plus its prefetch queue.
#[derive(Debug)]
pub struct Prefetcher {
    atoms_per_side: u32,
    max_timestep: u32,
    jobs: FastMap<JobId, Trajectory>,
    /// Predicted atoms awaiting idle capacity, most recent predictions last.
    queue: VecDeque<AtomId>,
    queued: FastSet<AtomId>,
    /// Predictions issued (for hit-rate diagnostics).
    issued: u64,
}

impl Prefetcher {
    /// Creates a predictor for the given atom-grid geometry.
    pub fn new(atoms_per_side: u32, timesteps: u32) -> Self {
        assert!(atoms_per_side > 0 && timesteps > 0);
        Prefetcher {
            atoms_per_side,
            max_timestep: timesteps - 1,
            jobs: FastMap::default(),
            queue: VecDeque::new(),
            queued: FastSet::default(),
            issued: 0,
        }
    }

    /// Observes a submitted query of job `job`, updating its trajectory and
    /// (from the second observation on) predicting the follow-up footprint.
    pub fn observe(&mut self, job: JobId, q: &Query) {
        let c = centroid(q);
        let atoms: Vec<MortonKey> = q.footprint.atoms().iter().map(|&(m, _)| m).collect();
        match self.jobs.get_mut(&job) {
            None => {
                self.jobs.insert(
                    job,
                    Trajectory {
                        prev_centroid: c,
                        prev_timestep: q.timestep,
                        last_atoms: atoms,
                        last_centroid: c,
                        last_timestep: q.timestep,
                        observations: 1,
                    },
                );
            }
            Some(entry) => {
                entry.prev_centroid = entry.last_centroid;
                entry.prev_timestep = entry.last_timestep;
                entry.last_centroid = c;
                entry.last_timestep = q.timestep;
                entry.last_atoms = atoms;
                entry.observations += 1;
                self.predict(job);
            }
        }
    }

    /// Predicts job `job`'s next footprint and enqueues it.
    fn predict(&mut self, job: JobId) {
        let Some(t) = self.jobs.get(&job) else {
            return;
        };
        // Timestep delta: ordered particle tracking advances steadily.
        let dt = t.last_timestep as i64 - t.prev_timestep as i64;
        let next_ts = t.last_timestep as i64 + dt;
        if dt == 0 || next_ts < 0 || next_ts > self.max_timestep as i64 {
            return; // stationary (batched) or falling off the archive
        }
        // Bounding-box velocity: centroid drift per query.
        let [lx, ly, lz] = t.last_centroid;
        let [px, py, pz] = t.prev_centroid;
        let (dx, dy, dz) = (lx - px, ly - py, lz - pz);
        let side = self.atoms_per_side as i64;
        let predictions: Vec<AtomId> = t
            .last_atoms
            .iter()
            .map(|m| {
                let (x, y, z) = m.coords();
                let nx = (x as f64 + dx).round() as i64;
                let ny = (y as f64 + dy).round() as i64;
                let nz = (z as f64 + dz).round() as i64;
                AtomId::from_coords(
                    next_ts as u32,
                    nx.rem_euclid(side) as u32,
                    ny.rem_euclid(side) as u32,
                    nz.rem_euclid(side) as u32,
                )
            })
            .collect();
        for p in predictions {
            if self.queued.insert(p) {
                self.queue.push_back(p);
            }
        }
        // Bound memory: drop the stalest predictions beyond a window.
        while self.queue.len() > 4096 {
            if let Some(old) = self.queue.pop_front() {
                self.queued.remove(&old);
            }
        }
    }

    /// Pops the next atom worth prefetching that is not already resident.
    pub fn next_prefetch(&mut self, is_resident: impl Fn(&AtomId) -> bool) -> Option<AtomId> {
        while let Some(a) = self.queue.pop_front() {
            self.queued.remove(&a);
            if !is_resident(&a) {
                self.issued += 1;
                return Some(a);
            }
        }
        None
    }

    /// Drops a completed job's trajectory state.
    pub fn job_done(&mut self, job: JobId) {
        self.jobs.remove(&job);
    }

    /// Jobs whose trajectory is kept.
    pub fn tracked_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Predictions handed to the engine so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Pending predictions.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaws_workload::{Footprint, QueryOp};

    fn q(id: u64, ts: u32, atoms: &[(u32, u32, u32)]) -> Query {
        Query {
            id,
            user: 0,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            footprint: Footprint::from_pairs(
                atoms
                    .iter()
                    .map(|&(x, y, z)| (MortonKey::from_coords(x, y, z), 10u32)),
            ),
        }
    }

    #[test]
    fn first_observation_predicts_nothing() {
        let mut p = Prefetcher::new(16, 31);
        p.observe(1, &q(1, 0, &[(4, 4, 4)]));
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn steady_drift_is_extrapolated() {
        let mut p = Prefetcher::new(16, 31);
        p.observe(1, &q(1, 3, &[(4, 4, 4)]));
        p.observe(1, &q(2, 4, &[(5, 4, 4)])); // +1 in x per step
        assert_eq!(p.pending(), 1);
        let a = p.next_prefetch(|_| false).expect("prediction");
        assert_eq!(a, AtomId::from_coords(5, 6, 4, 4));
    }

    #[test]
    fn stationary_jobs_are_not_prefetched() {
        let mut p = Prefetcher::new(16, 31);
        p.observe(1, &q(1, 5, &[(4, 4, 4)]));
        p.observe(1, &q(2, 5, &[(4, 4, 4)])); // batched: same timestep
        assert_eq!(p.pending(), 0, "dt = 0 means no trajectory");
    }

    #[test]
    fn predictions_stop_at_the_archive_boundary() {
        let mut p = Prefetcher::new(16, 4);
        p.observe(1, &q(1, 2, &[(4, 4, 4)]));
        p.observe(1, &q(2, 3, &[(4, 4, 4)])); // next would be ts 4 (absent)
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn resident_atoms_are_skipped() {
        let mut p = Prefetcher::new(16, 31);
        p.observe(1, &q(1, 0, &[(4, 4, 4), (5, 4, 4)]));
        p.observe(1, &q(2, 1, &[(4, 4, 4), (5, 4, 4)]));
        assert_eq!(p.pending(), 2);
        // Everything resident: nothing to issue.
        assert!(p.next_prefetch(|_| true).is_none());
        assert_eq!(p.pending(), 0);
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn backward_tracking_is_supported() {
        // "tracking particles forward and backwards through time" (§III-A).
        let mut p = Prefetcher::new(16, 31);
        p.observe(1, &q(1, 10, &[(4, 4, 4)]));
        p.observe(1, &q(2, 9, &[(4, 4, 4)]));
        let a = p.next_prefetch(|_| false).expect("prediction");
        assert_eq!(a.timestep, 8);
    }

    #[test]
    fn spatial_wrap_around() {
        let mut p = Prefetcher::new(16, 31);
        p.observe(1, &q(1, 0, &[(14, 0, 0)]));
        p.observe(1, &q(2, 1, &[(15, 0, 0)]));
        let a = p.next_prefetch(|_| false).expect("prediction");
        assert_eq!(a, AtomId::from_coords(2, 0, 0, 0), "wraps periodically");
    }

    #[test]
    fn job_done_clears_state() {
        let mut p = Prefetcher::new(16, 31);
        p.observe(1, &q(1, 0, &[(4, 4, 4)]));
        p.job_done(1);
        assert_eq!(p.tracked_jobs(), 0);
        p.observe(1, &q(2, 1, &[(5, 4, 4)]));
        assert_eq!(p.pending(), 0, "trajectory restarted from scratch");
    }

    #[test]
    fn duplicate_predictions_are_deduplicated() {
        let mut p = Prefetcher::new(16, 31);
        // Two jobs tracking the same structure predict the same atoms.
        for job in [1u64, 2] {
            p.observe(job, &q(job * 10, 0, &[(4, 4, 4)]));
            p.observe(job, &q(job * 10 + 1, 1, &[(5, 4, 4)]));
        }
        assert_eq!(p.pending(), 1, "same prediction queued once");
    }
}
