//! Calibrated trace generator.
//!
//! Reproduces the structure of the production Turbulence workload that §VI-A
//! characterizes. The generator is organized around *bursts*: the paper
//! observes that "queries which overlap in the time step accessed occur close
//! temporally (i.e. concurrent experiments by the same user)", so a burst
//! groups a user's concurrent jobs on one region of interest and one timestep
//! neighbourhood. This correlation — not any individual parameter — is what
//! creates the data-sharing opportunities JAWS exploits.

use crate::trace::Trace;
use crate::types::{Footprint, Job, JobKind, Query, QueryId, QueryOp, UserId};
use jaws_morton::MortonKey;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Generator parameters. Defaults ([`GenConfig::paper_like`]) are calibrated
/// to the published workload statistics; every knob is exposed so experiments
/// can sweep it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenConfig {
    /// RNG seed — traces are bit-reproducible per seed.
    pub seed: u64,
    /// Timesteps in the target database (31 in the paper's sample).
    pub timesteps: u32,
    /// Atoms per side of the atom grid (16 in production).
    pub atoms_per_side: u32,
    /// Number of jobs to generate (~1k in the evaluation trace).
    pub jobs: usize,
    /// Distinct users ("dozens of users").
    pub users: u32,
    /// Mean gap between burst starts, ms.
    pub mean_burst_gap_ms: f64,
    /// Mean jobs per burst.
    pub mean_burst_size: f64,
    /// Mean gap between job arrivals inside a burst, ms.
    pub intra_burst_gap_ms: f64,
    /// Number of persistent regions of interest (turbulent structures that
    /// are "repeatedly queried by multiple users", §V-B).
    pub hotspots: usize,
    /// Probability that a burst targets a hotspot rather than a random region.
    pub hotspot_prob: f64,
    /// Fraction of jobs touching a single timestep (0.88 in the paper).
    pub single_timestep_frac: f64,
    /// Fraction of jobs iterating over (almost) all timesteps (0.03).
    pub long_job_frac: f64,
    /// Fraction of single-query (one-off) jobs (<0.05).
    pub oneoff_frac: f64,
    /// Mean positions per query (the trace averages ~600k/8M ≈ thousands;
    /// scaled down with the database).
    pub mean_positions: f64,
    /// Think-time range for ordered jobs, ms (log-uniform).
    pub think_ms_range: (f64, f64),
    /// Submission-pacing range for batched jobs' client loops, ms
    /// (log-uniform). Open-loop: pacing does not wait for completions.
    pub batched_pace_range: (f64, f64),
    /// Queries per batched job, mean (log-normal-ish).
    pub mean_batched_queries: f64,
}

impl GenConfig {
    /// Calibration matching §VI-A at the paper's experimental scale:
    /// 31 timesteps, 16³ atoms per timestep, ~1k jobs / ~50k queries.
    pub fn paper_like(seed: u64) -> Self {
        GenConfig {
            seed,
            timesteps: 31,
            atoms_per_side: 16,
            jobs: 1000,
            users: 24,
            mean_burst_gap_ms: 1_000.0,
            mean_burst_size: 4.0,
            intra_burst_gap_ms: 400.0,
            hotspots: 6,
            hotspot_prob: 0.7,
            single_timestep_frac: 0.88,
            long_job_frac: 0.03,
            oneoff_frac: 0.05,
            mean_positions: 600.0,
            think_ms_range: (3_000.0, 30_000.0),
            batched_pace_range: (2_000.0, 15_000.0),
            mean_batched_queries: 30.0,
        }
        .validated()
    }

    /// A small configuration for unit and integration tests.
    pub fn small(seed: u64) -> Self {
        GenConfig {
            seed,
            timesteps: 8,
            atoms_per_side: 4,
            jobs: 60,
            users: 6,
            mean_burst_gap_ms: 20_000.0,
            mean_burst_size: 3.0,
            intra_burst_gap_ms: 1_000.0,
            hotspots: 3,
            hotspot_prob: 0.6,
            single_timestep_frac: 0.7,
            long_job_frac: 0.1,
            oneoff_frac: 0.05,
            mean_positions: 120.0,
            think_ms_range: (100.0, 2_000.0),
            batched_pace_range: (100.0, 800.0),
            mean_batched_queries: 8.0,
        }
        .validated()
    }

    fn validated(self) -> Self {
        assert!(self.jobs > 0 && self.timesteps > 0 && self.atoms_per_side > 0);
        assert!((0.0..=1.0).contains(&self.hotspot_prob));
        assert!((0.0..=1.0).contains(&self.single_timestep_frac));
        assert!(self.think_ms_range.0 <= self.think_ms_range.1);
        self
    }
}

/// A region of interest: a slowly drifting Gaussian blob in atom space.
#[derive(Debug, Clone, Copy)]
struct Region {
    center: [f64; 3],
    sigma: f64,
}

/// The trace generator.
pub struct TraceGenerator {
    cfg: GenConfig,
    rng: ChaCha8Rng,
    next_query_id: QueryId,
}

impl TraceGenerator {
    /// Creates a generator for `cfg`.
    pub fn new(cfg: GenConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        TraceGenerator {
            cfg,
            rng,
            next_query_id: 1,
        }
    }

    /// Generates the full trace.
    pub fn generate(mut self) -> Trace {
        let hotspots: Vec<Region> = (0..self.cfg.hotspots)
            .map(|_| self.random_region(1.3))
            .collect();
        let mut jobs = Vec::with_capacity(self.cfg.jobs);
        let mut t = 0.0f64;
        let mut job_id = 1u64;
        let mut campaign = 0u64;
        while jobs.len() < self.cfg.jobs {
            // Start a burst: one user, one region, one timestep neighbourhood.
            let user: UserId = self.rng.gen_range(0..self.cfg.users);
            let region = if self.rng.gen_bool(self.cfg.hotspot_prob) && !hotspots.is_empty() {
                hotspots[self.rng.gen_range(0..hotspots.len())]
            } else {
                self.random_region(1.0)
            };
            let ts_center = self.sample_timestep();
            // One user's client loop drives the whole burst: its jobs share
            // the same per-step post-processing (think) time, up to jitter.
            let (lo, hi) = self.cfg.think_ms_range;
            let burst_think_ms = lo * (hi / lo).powf(self.rng.gen_range(0.0..1.0));
            // A burst is one experiment campaign: either concurrent particle
            // *tracking* runs over the same structure (ordered jobs — §VII's
            // "experimenting with particles of different masses") or
            // statistics gathering over one timestep (batched jobs). The
            // tracked structure advects with the mean flow, so all jobs of a
            // tracking burst share its drift.
            let tracking_burst = self.rng.gen_bool(1.0 - self.cfg.single_timestep_frac);
            let burst_drift = [
                self.rng.gen_range(-0.25..0.25),
                self.rng.gen_range(-0.25..0.25),
                self.rng.gen_range(-0.25..0.25),
            ];
            let burst_size = 1 + self.sample_geometric(self.cfg.mean_burst_size - 1.0);
            campaign += 1;
            for _ in 0..burst_size {
                if jobs.len() >= self.cfg.jobs {
                    break;
                }
                let think_ms = burst_think_ms * self.rng.gen_range(0.75..1.3);
                let mut job = self.make_job(
                    job_id,
                    user,
                    region,
                    ts_center,
                    think_ms,
                    tracking_burst,
                    burst_drift,
                    t,
                );
                job.campaign = campaign;
                jobs.push(job);
                job_id += 1;
                t += self.sample_exp(self.cfg.intra_burst_gap_ms);
            }
            t += self.sample_exp(self.cfg.mean_burst_gap_ms);
        }
        let trace = Trace::new(self.cfg.timesteps, self.cfg.atoms_per_side, jobs);
        if let Err(e) = trace.validate() {
            panic!("the generator broke its own trace: {e}");
        }
        trace
    }

    /// Timestep access model of Fig. 9: heavy clusters at the start and end of
    /// simulation time (70% of queries in about a dozen steps), a secondary
    /// spike around 15–20% into the range, and a downward trend that reflects
    /// jobs terminating midway.
    fn sample_timestep(&mut self) -> u32 {
        let t_count = self.cfg.timesteps;
        let weights = timestep_weights(t_count);
        let total: f64 = weights.iter().sum();
        let mut x = self.rng.gen_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i as u32;
            }
            x -= w;
        }
        t_count - 1
    }

    fn random_region(&mut self, sigma_scale: f64) -> Region {
        let a = self.cfg.atoms_per_side as f64;
        Region {
            center: [
                self.rng.gen_range(0.0..a),
                self.rng.gen_range(0.0..a),
                self.rng.gen_range(0.0..a),
            ],
            // Queries "focus on a small spatial region": footprints of a
            // handful of atoms, like the production hot structures.
            sigma: self.rng.gen_range(0.3..0.7) * sigma_scale,
        }
    }

    fn sample_exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    fn sample_geometric(&mut self, mean: f64) -> usize {
        if mean <= 0.0 {
            return 0;
        }
        let p = 1.0 / (1.0 + mean);
        let mut n = 0;
        while !self.rng.gen_bool(p) && n < 10_000 {
            n += 1;
        }
        n
    }

    fn sample_positions(&mut self) -> u32 {
        // Log-normal-ish: median near mean_positions, heavy right tail
        // ("queries are long running" vs "many queries are short-lived and
        // highly selective").
        let z: f64 = self.rng.gen_range(-1.0..1.0) + self.rng.gen_range(-1.0..1.0);
        let v = self.cfg.mean_positions * (z * 1.2).exp();
        (v.max(1.0).min(self.cfg.mean_positions * 50.0)) as u32
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one job's draws from the campaign; a struct would be built once per call"
    )]
    fn make_job(
        &mut self,
        id: u64,
        user: UserId,
        region: Region,
        ts_center: u32,
        think_ms: f64,
        tracking_burst: bool,
        burst_drift: [f64; 3],
        arrival_ms: f64,
    ) -> Job {
        let t_count = self.cfg.timesteps;
        let oneoff = self.rng.gen_bool(self.cfg.oneoff_frac);
        // Timestep span drives the job shape (§VI-A): single-step jobs are
        // batched statistics gathering, multi-step jobs are ordered particle
        // tracking.
        let span: u32 = if oneoff || !tracking_burst {
            1
        } else if self
            .rng
            .gen_bool(self.cfg.long_job_frac / (1.0 - self.cfg.single_timestep_frac).max(0.01))
        {
            // Iterate over (almost) all of simulation time.
            self.rng.gen_range((3 * t_count / 4).max(2)..=t_count)
        } else {
            // Particle-tracking experiments iterate over many timesteps.
            4 + self.sample_geometric(8.0).min(t_count as usize - 4) as u32
        };
        let span = span.min(t_count);
        if span > 1 {
            self.make_ordered_job(
                id,
                user,
                region,
                ts_center,
                span,
                think_ms,
                burst_drift,
                arrival_ms,
            )
        } else {
            let (lo, hi) = self.cfg.batched_pace_range;
            let pace_ms = lo * (hi / lo).powf(self.rng.gen_range(0.0..1.0));
            self.make_batched_job(id, user, region, ts_center, oneoff, pace_ms, arrival_ms)
        }
    }

    /// Particle-tracking style ordered job: one query per timestep, footprint
    /// drifting slowly through atom space ("tens of thousands of points …
    /// track the diffusion of these points over time").
    #[expect(
        clippy::too_many_arguments,
        reason = "one job's draws from the campaign; a struct would be built once per call"
    )]
    fn make_ordered_job(
        &mut self,
        id: u64,
        user: UserId,
        region: Region,
        ts_center: u32,
        span: u32,
        think_ms: f64,
        burst_drift: [f64; 3],
        arrival_ms: f64,
    ) -> Job {
        let t_count = self.cfg.timesteps;
        // Start so the span fits; favour forward tracking from ts_center.
        let start = ts_center.min(t_count - span);
        // The tracked structure's drift is shared by the whole campaign;
        // individual runs (different particle masses/seeds) deviate slightly.
        let drift = [
            burst_drift[0] + self.rng.gen_range(-0.05..0.05),
            burst_drift[1] + self.rng.gen_range(-0.05..0.05),
            burst_drift[2] + self.rng.gen_range(-0.05..0.05),
        ];
        let positions = self.sample_positions();
        let mut center = region.center;
        let mut queries = Vec::with_capacity(span as usize);
        for s in 0..span {
            let footprint = self.footprint_around(center, region.sigma, positions);
            queries.push(Query {
                id: self.alloc_query_id(),
                user,
                op: QueryOp::ParticleTrack,
                timestep: start + s,
                footprint,
            });
            for (c, d) in center.iter_mut().zip(&drift) {
                *c = (*c + d).rem_euclid(self.cfg.atoms_per_side as f64);
            }
        }
        Job {
            id,
            user,
            kind: JobKind::Ordered,
            campaign: 0, // assigned by the burst loop
            queries: queries.into(),
            arrival_ms,
            think_ms,
        }
    }

    /// Single-timestep batched job (aggregate statistics, repeated looks at
    /// the same region) or a one-off query.
    #[expect(
        clippy::too_many_arguments,
        reason = "one job's draws from the campaign; a struct would be built once per call"
    )]
    fn make_batched_job(
        &mut self,
        id: u64,
        user: UserId,
        region: Region,
        ts: u32,
        oneoff: bool,
        think_ms: f64,
        arrival_ms: f64,
    ) -> Job {
        let nq = if oneoff {
            1
        } else {
            2 + self.sample_geometric(self.cfg.mean_batched_queries - 2.0)
        };
        let op = if self.rng.gen_bool(0.5) {
            QueryOp::RegionStats
        } else {
            QueryOp::Velocity
        };
        let queries = (0..nq)
            .map(|_| {
                let positions = self.sample_positions();
                // "little movement": small jitter around the region center.
                let jitter = [
                    self.rng.gen_range(-0.3..0.3),
                    self.rng.gen_range(-0.3..0.3),
                    self.rng.gen_range(-0.3..0.3),
                ];
                let c = [
                    (region.center[0] + jitter[0]).rem_euclid(self.cfg.atoms_per_side as f64),
                    (region.center[1] + jitter[1]).rem_euclid(self.cfg.atoms_per_side as f64),
                    (region.center[2] + jitter[2]).rem_euclid(self.cfg.atoms_per_side as f64),
                ];
                Query {
                    id: self.alloc_query_id(),
                    user,
                    op,
                    timestep: ts,
                    footprint: self.footprint_around(c, region.sigma, positions),
                }
            })
            .collect();
        Job {
            id,
            user,
            kind: JobKind::Batched,
            campaign: 0, // assigned by the burst loop
            queries,
            arrival_ms,
            // Submission pacing of the client loop; one-offs have none.
            think_ms: if oneoff { 0.0 } else { think_ms },
        }
    }

    /// Distributes `positions` over the atoms near `center` with Gaussian
    /// weights truncated at 2σ, periodic in the atom grid.
    fn footprint_around(&mut self, center: [f64; 3], sigma: f64, positions: u32) -> Footprint {
        let a = self.cfg.atoms_per_side as i64;
        let reach = (2.0 * sigma).ceil() as i64;
        let mut weighted: Vec<(MortonKey, f64)> = Vec::new();
        let mut total = 0.0;
        for dz in -reach..=reach {
            for dy in -reach..=reach {
                for dx in -reach..=reach {
                    let cx = (center[0].round() as i64 + dx).rem_euclid(a) as u32;
                    let cy = (center[1].round() as i64 + dy).rem_euclid(a) as u32;
                    let cz = (center[2].round() as i64 + dz).rem_euclid(a) as u32;
                    let d2 = (dx * dx + dy * dy + dz * dz) as f64;
                    let w = (-d2 / (2.0 * sigma * sigma)).exp();
                    if w > 0.05 {
                        weighted.push((MortonKey::from_coords(cx, cy, cz), w));
                        total += w;
                    }
                }
            }
        }
        debug_assert!(!weighted.is_empty());
        // Deterministic largest-remainder apportionment of the positions.
        let mut pairs: Vec<(MortonKey, u32)> = weighted
            .iter()
            .map(|&(m, w)| (m, (w / total * positions as f64) as u32))
            .collect();
        let assigned: u32 = pairs.iter().map(|&(_, c)| c).sum();
        if let Some(max) = pairs.iter_mut().max_by(|x, y| x.1.cmp(&y.1)) {
            max.1 += positions - assigned;
        }
        Footprint::from_pairs(pairs)
    }

    fn alloc_query_id(&mut self) -> QueryId {
        let id = self.next_query_id;
        self.next_query_id += 1;
        id
    }
}

/// The Fig. 9 timestep weight curve: end clusters, a mid-range spike, and a
/// downward trend. Exposed so the characterization binary can print the model
/// alongside the realized histogram.
pub fn timestep_weights(timesteps: u32) -> Vec<f64> {
    let t_count = timesteps as f64;
    (0..timesteps)
        .map(|t| {
            let f = t as f64 / (t_count - 1.0).max(1.0);
            // Downward trend: jobs iterating over all of time terminate midway.
            let trend = 1.0 - 0.55 * f;
            // Clusters at the start and end of simulation time.
            let start_cluster = 6.0 * (-f / 0.08).exp();
            let end_cluster = 3.5 * (-(1.0 - f) / 0.06).exp();
            // Secondary spike (the paper's 0.25–0.4 s bump ≈ 12–20% of range).
            let spike = 2.0 * (-((f - 0.16) / 0.05).powi(2)).exp();
            trend + start_cluster + end_cluster + spike
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::JobKind;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = TraceGenerator::new(GenConfig::small(3)).generate();
        let b = TraceGenerator::new(GenConfig::small(3)).generate();
        let c = TraceGenerator::new(GenConfig::small(4)).generate();
        assert_eq!(a.query_count(), b.query_count());
        assert_eq!(
            a.jobs.iter().map(|j| j.id).collect::<Vec<_>>(),
            b.jobs.iter().map(|j| j.id).collect::<Vec<_>>()
        );
        assert_eq!(
            a.jobs[0].queries[0].footprint,
            b.jobs[0].queries[0].footprint
        );
        assert_ne!(a.query_count(), c.query_count());
    }

    #[test]
    fn trace_validates_and_has_requested_jobs() {
        let t = TraceGenerator::new(GenConfig::small(1)).generate();
        assert_eq!(t.jobs.len(), 60);
        t.validate().unwrap();
    }

    #[test]
    fn most_queries_belong_to_jobs() {
        let t = TraceGenerator::new(GenConfig::paper_like(1)).generate();
        assert!(
            t.fraction_in_jobs() > 0.9,
            "only {:.2} of queries in jobs",
            t.fraction_in_jobs()
        );
    }

    #[test]
    fn ordered_jobs_iterate_consecutive_timesteps() {
        let t = TraceGenerator::new(GenConfig::small(5)).generate();
        let ordered: Vec<_> = t
            .jobs
            .iter()
            .filter(|j| j.kind == JobKind::Ordered)
            .collect();
        assert!(!ordered.is_empty());
        for j in ordered {
            for w in j.queries.windows(2) {
                assert_eq!(
                    w[1].timestep,
                    w[0].timestep + 1,
                    "job {} skips timesteps",
                    j.id
                );
            }
        }
    }

    #[test]
    fn batched_jobs_stay_on_one_timestep() {
        let t = TraceGenerator::new(GenConfig::small(6)).generate();
        for j in t.jobs.iter().filter(|j| j.kind == JobKind::Batched) {
            assert_eq!(j.timestep_span(), 1, "batched job {} spans time", j.id);
        }
    }

    #[test]
    fn timestep_distribution_matches_fig9_shape() {
        let t = TraceGenerator::new(GenConfig::paper_like(2)).generate();
        let mut hist = vec![0u64; 31];
        for (_, q) in t.queries() {
            hist[q.timestep as usize] += 1;
        }
        let total: u64 = hist.iter().sum();
        // Clusters at the ends: the first 4 + last 4 timesteps carry a large
        // share of accesses.
        let ends: u64 = hist[..4].iter().sum::<u64>() + hist[27..].iter().sum::<u64>();
        assert!(
            ends as f64 / total as f64 > 0.3,
            "end clusters too weak: {:.2}",
            ends as f64 / total as f64
        );
        // Downward trend: first third beats last third exclusive of the end
        // cluster.
        let early: u64 = hist[4..12].iter().sum();
        let late: u64 = hist[18..26].iter().sum();
        assert!(early > late, "no downward trend: {early} vs {late}");
    }

    #[test]
    fn footprints_are_compact_blobs() {
        let t = TraceGenerator::new(GenConfig::small(7)).generate();
        for (_, q) in t.queries() {
            assert!(q.footprint.atom_count() >= 1);
            assert!(
                q.footprint.atom_count() <= 64,
                "footprint too diffuse: {}",
                q.footprint.atom_count()
            );
            // Positions fully apportioned.
            assert!(q.positions() >= 1);
        }
    }

    #[test]
    fn hotspots_create_cross_job_sharing() {
        let t = TraceGenerator::new(GenConfig::paper_like(3)).generate();
        // Count job pairs whose first queries share data — hotspot correlation
        // must make this common among temporally adjacent jobs.
        let mut sharing = 0;
        let mut checked = 0;
        for w in t.jobs.windows(2) {
            checked += 1;
            let a = &w[0].queries[0];
            if w[1].queries.iter().any(|b| a.shares_data(b)) {
                sharing += 1;
            }
        }
        assert!(
            sharing as f64 / checked as f64 > 0.1,
            "adjacent jobs rarely share: {sharing}/{checked}"
        );
    }

    #[test]
    fn weights_model_has_the_published_features() {
        let w = timestep_weights(31);
        assert_eq!(w.len(), 31);
        assert!(w[0] > w[10], "start cluster");
        assert!(w[30] > w[24], "end cluster");
        assert!(w[10] > w[24] * 0.99, "downward trend");
        // Spike around 16% of the range (timestep ~5).
        assert!(w[5] > w[9], "mid spike");
    }

    #[test]
    fn arrivals_are_bursty() {
        let t = TraceGenerator::new(GenConfig::paper_like(4)).generate();
        let gaps: Vec<f64> = t
            .jobs
            .windows(2)
            .map(|w| w[1].arrival_ms - w[0].arrival_ms)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let cv = {
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        assert!(cv > 1.1, "coefficient of variation {cv:.2} not bursty");
    }
}
