//! Job identification heuristics (§IV-A).
//!
//! In production, scientists drive experiments through loops *outside* the
//! database, so the cluster only sees a flat query stream. The paper
//! identifies "a sequence of queries as belonging to the same job using a
//! combination of user IDs, spatial or temporal operation performed, time
//! steps queried, and wall-clock time between consecutive queries. The
//! techniques are heuristic, but highly accurate in practice."
//!
//! [`identify_jobs`] implements that combination over a submission log;
//! [`JobIdEvaluation`] scores the grouping against generator ground truth
//! using pairwise precision/recall (two queries count as a pair when they are
//! placed in the same job).

use crate::trace::Trace;
use crate::types::{JobId, JobKind, QueryId, QueryOp, UserId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One line of the (simulated) SQL submission log.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SubmitRecord {
    /// The submitted query.
    pub query: QueryId,
    /// Authenticated user.
    pub user: UserId,
    /// Operation class (the service endpoint called).
    pub op: QueryOp,
    /// Timestep addressed.
    pub timestep: u32,
    /// Wall-clock submission time, ms.
    pub submit_ms: f64,
    /// Ground-truth job (not visible to the heuristic; used for scoring).
    pub true_job: JobId,
    /// Ground-truth campaign (burst of interchangeable concurrent jobs).
    pub true_campaign: u64,
}

impl SubmitRecord {
    /// Builds the nominal submission log of a trace: each ordered query is
    /// submitted one estimated-service-plus-think-time after its predecessor;
    /// batched queries are submitted back-to-back at job arrival.
    ///
    /// `atom_read_ms` and `position_compute_ms` are the cost-model constants
    /// used for the service estimate.
    pub fn log_from_trace(
        trace: &Trace,
        atom_read_ms: f64,
        position_compute_ms: f64,
    ) -> Vec<SubmitRecord> {
        let mut log = Vec::with_capacity(trace.query_count());
        for job in &trace.jobs {
            let mut t = job.arrival_ms;
            for q in job.queries.iter() {
                log.push(SubmitRecord {
                    query: q.id,
                    user: q.user,
                    op: q.op,
                    timestep: q.timestep,
                    submit_ms: t,
                    true_job: job.id,
                    true_campaign: job.campaign,
                });
                let service = q.footprint.atom_count() as f64 * atom_read_ms
                    + q.positions() as f64 * position_compute_ms;
                t += match job.kind {
                    JobKind::Ordered => service + job.think_ms,
                    JobKind::Batched => job.think_ms.max(1.0), // client pacing
                };
            }
        }
        log.sort_by(|a, b| a.submit_ms.total_cmp(&b.submit_ms));
        log
    }
}

/// Thresholds of the grouping heuristic.
///
/// Two continuation patterns exist in the production log: *ordered* jobs
/// advance the timestep with a think-time gap (the user post-processes results
/// between queries), while *batched* jobs stream same-timestep queries at the
/// client loop's pacing. Distinguishing the two cadences keeps distinct
/// batched jobs submitted minutes apart from merging. Same-user campaigns of
/// *concurrent identical experiments* remain intrinsically ambiguous — no
/// log-only heuristic can split two interleaved runs over the same timesteps
/// — which bounds achievable precision below 100%.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JobIdConfig {
    /// Maximum wall-clock gap between consecutive *timestep-advancing*
    /// queries of one job (think time + service), ms.
    pub max_gap_ms: f64,
    /// Maximum gap between consecutive *same-timestep* queries of one job
    /// (client-loop submission cadence), ms.
    pub same_timestep_gap_ms: f64,
    /// Maximum timestep advance between consecutive queries of one job
    /// (ordered jobs step one timestep at a time).
    pub max_timestep_delta: u32,
}

impl Default for JobIdConfig {
    fn default() -> Self {
        JobIdConfig {
            max_gap_ms: 120_000.0,
            same_timestep_gap_ms: 30_000.0,
            max_timestep_delta: 1,
        }
    }
}

/// Groups a submission log into predicted jobs; returns, for each record
/// index, the predicted job number.
pub fn identify_jobs(log: &[SubmitRecord], cfg: JobIdConfig) -> Vec<usize> {
    #[derive(Debug)]
    struct OpenJob {
        pred_id: usize,
        last_submit_ms: f64,
        last_timestep: u32,
    }
    // Open jobs keyed by (user, op): the paper's identifying combination.
    let mut open: HashMap<(UserId, QueryOp), Vec<OpenJob>> = HashMap::new();
    let mut assignment = vec![usize::MAX; log.len()];
    let mut next_pred = 0usize;
    for (i, r) in log.iter().enumerate() {
        let slot = open.entry((r.user, r.op)).or_default();
        // Retire jobs whose last activity is too old.
        slot.retain(|j| r.submit_ms - j.last_submit_ms <= cfg.max_gap_ms);
        // Attach to the open job whose timestep continues naturally; prefer
        // the most recently active match.
        let candidate = slot
            .iter_mut()
            .filter(|j| {
                let ts = r.timestep;
                let gap = r.submit_ms - j.last_submit_ms;
                if ts == j.last_timestep {
                    gap <= cfg.same_timestep_gap_ms
                } else {
                    ts > j.last_timestep
                        && ts - j.last_timestep <= cfg.max_timestep_delta
                        && gap <= cfg.max_gap_ms
                }
            })
            .max_by(|a, b| a.last_submit_ms.total_cmp(&b.last_submit_ms));
        match candidate {
            Some(j) => {
                assignment[i] = j.pred_id;
                j.last_submit_ms = r.submit_ms;
                j.last_timestep = r.timestep;
            }
            None => {
                let pred_id = next_pred;
                next_pred += 1;
                assignment[i] = pred_id;
                slot.push(OpenJob {
                    pred_id,
                    last_submit_ms: r.submit_ms,
                    last_timestep: r.timestep,
                });
            }
        }
    }
    assignment
}

/// Pairwise precision/recall of a predicted grouping against ground truth.
///
/// Scored at two granularities. *Job-level* requires the exact experiment run;
/// *campaign-level* accepts co-grouping within the burst of interchangeable
/// concurrent runs (one user's identical experiments, e.g. different particle
/// masses, are indistinguishable in a flat log — and interchangeable to the
/// scheduler, which only needs the shared precedence structure).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct JobIdEvaluation {
    /// Of the query pairs the heuristic co-grouped, the fraction that truly
    /// belong to the same job.
    pub precision: f64,
    /// Of the query pairs that truly belong to the same job, the fraction the
    /// heuristic co-grouped.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Precision against campaign ground truth (co-grouped pairs in the same
    /// campaign count as correct).
    pub campaign_precision: f64,
    /// Recall of same-job pairs (campaign recall would reward merging whole
    /// bursts; same-job pairs are what the scheduler needs co-identified).
    pub campaign_f1: f64,
}

impl JobIdEvaluation {
    /// Scores `assignment` (from [`identify_jobs`]) against the `true_job`
    /// labels in `log`, exactly over all pairs via contingency counts.
    pub fn score(log: &[SubmitRecord], assignment: &[usize]) -> Self {
        assert_eq!(log.len(), assignment.len());
        let choose2 = |n: u64| n * n.saturating_sub(1) / 2;
        let mut pred_sizes: HashMap<usize, u64> = HashMap::new();
        let mut job_sizes: HashMap<JobId, u64> = HashMap::new();
        let mut job_cell: HashMap<(usize, JobId), u64> = HashMap::new();
        let mut camp_cell: HashMap<(usize, u64), u64> = HashMap::new();
        for (r, &a) in log.iter().zip(assignment) {
            *pred_sizes.entry(a).or_default() += 1;
            *job_sizes.entry(r.true_job).or_default() += 1;
            *job_cell.entry((a, r.true_job)).or_default() += 1;
            *camp_cell.entry((a, r.true_campaign)).or_default() += 1;
        }
        let pred_pairs: u64 = pred_sizes.values().map(|&n| choose2(n)).sum();
        let true_pairs: u64 = job_sizes.values().map(|&n| choose2(n)).sum();
        let both_job: u64 = job_cell.values().map(|&n| choose2(n)).sum();
        let both_camp: u64 = camp_cell.values().map(|&n| choose2(n)).sum();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        let precision = ratio(both_job, pred_pairs);
        let recall = ratio(both_job, true_pairs);
        let campaign_precision = ratio(both_camp, pred_pairs);
        let f1_of = |p: f64, r: f64| {
            if p + r == 0.0 {
                0.0
            } else {
                2.0 * p * r / (p + r)
            }
        };
        JobIdEvaluation {
            precision,
            recall,
            f1: f1_of(precision, recall),
            campaign_precision,
            campaign_f1: f1_of(campaign_precision, recall),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, TraceGenerator};

    fn rec(query: u64, user: u32, ts: u32, t: f64, job: u64) -> SubmitRecord {
        SubmitRecord {
            query,
            user,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            submit_ms: t,
            true_job: job,
            true_campaign: job,
        }
    }

    #[test]
    fn one_user_one_job_is_grouped_together() {
        let log = vec![
            rec(1, 0, 0, 0.0, 1),
            rec(2, 0, 1, 100.0, 1),
            rec(3, 0, 2, 200.0, 1),
        ];
        let a = identify_jobs(&log, JobIdConfig::default());
        assert_eq!(a, vec![0, 0, 0]);
        let e = JobIdEvaluation::score(&log, &a);
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 1.0);
    }

    #[test]
    fn different_users_never_merge() {
        let log = vec![rec(1, 0, 0, 0.0, 1), rec(2, 1, 1, 10.0, 2)];
        let a = identify_jobs(&log, JobIdConfig::default());
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn long_gap_splits_a_job() {
        let log = vec![rec(1, 0, 0, 0.0, 1), rec(2, 0, 1, 500_000.0, 1)];
        let a = identify_jobs(&log, JobIdConfig::default());
        assert_ne!(a[0], a[1], "gap beyond threshold starts a new job");
        let e = JobIdEvaluation::score(&log, &a);
        assert_eq!(e.recall, 0.0);
        assert_eq!(e.precision, 1.0, "no false merges");
    }

    #[test]
    fn timestep_jump_splits_a_job() {
        let log = vec![rec(1, 0, 0, 0.0, 1), rec(2, 0, 7, 100.0, 2)];
        let a = identify_jobs(&log, JobIdConfig::default());
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn interleaved_users_are_separated() {
        // Two users, each tracking particles, interleaved in time.
        let log = vec![
            rec(1, 0, 0, 0.0, 1),
            rec(2, 1, 0, 10.0, 2),
            rec(3, 0, 1, 20.0, 1),
            rec(4, 1, 1, 30.0, 2),
            rec(5, 0, 2, 40.0, 1),
            rec(6, 1, 2, 50.0, 2),
        ];
        let a = identify_jobs(&log, JobIdConfig::default());
        assert_eq!(a[0], a[2]);
        assert_eq!(a[2], a[4]);
        assert_eq!(a[1], a[3]);
        assert_eq!(a[3], a[5]);
        assert_ne!(a[0], a[1]);
        let e = JobIdEvaluation::score(&log, &a);
        assert_eq!(e.f1, 1.0);
    }

    #[test]
    fn heuristic_is_highly_accurate_on_generated_traces() {
        // The paper: "heuristic, but highly accurate in practice".
        let trace = TraceGenerator::new(GenConfig::small(9)).generate();
        let log = SubmitRecord::log_from_trace(&trace, 80.0, 0.05);
        let a = identify_jobs(&log, JobIdConfig::default());
        let e = JobIdEvaluation::score(&log, &a);
        // Concurrent identical experiments by one user are intrinsically
        // ambiguous in a flat log, which bounds job-level precision; at the
        // campaign level — all the scheduler needs — the heuristic must be
        // "highly accurate in practice".
        assert!(e.recall > 0.6, "recall {:.3}", e.recall);
        assert!(
            e.campaign_precision > 0.85,
            "campaign precision {:.3}",
            e.campaign_precision
        );
        assert!(e.campaign_f1 > 0.7, "campaign f1 {:.3}", e.campaign_f1);
    }

    #[test]
    fn evaluation_handles_empty_log() {
        let e = JobIdEvaluation::score(&[], &[]);
        assert_eq!(e.precision, 1.0);
        assert_eq!(e.recall, 1.0);
    }
}

/// Reconstructs [`Job`](crate::types::Job) declarations from a predicted grouping, for feeding a
/// job-aware scheduler in place of ground truth (the §IV-A loop: identify
/// jobs from the log, then schedule with the identified structure).
///
/// Queries of each predicted job are ordered by submission time; a group
/// whose timesteps strictly ascend is declared [`JobKind::Ordered`]
/// (particle-tracking shape), anything else [`JobKind::Batched`]. Arrival and
/// think time are taken from the observed submission gaps.
pub fn reconstruct_jobs(
    trace: &Trace,
    log: &[SubmitRecord],
    assignment: &[usize],
) -> Vec<crate::types::Job> {
    use crate::types::{Job, Query};
    assert_eq!(log.len(), assignment.len());
    let mut by_id: HashMap<QueryId, &Query> = HashMap::new();
    for job in &trace.jobs {
        for q in job.queries.iter() {
            by_id.insert(q.id, q);
        }
    }
    let mut groups: HashMap<usize, Vec<&SubmitRecord>> = HashMap::new();
    for (r, &a) in log.iter().zip(assignment) {
        groups.entry(a).or_default().push(r);
    }
    let mut jobs: Vec<Job> = groups
        .into_iter()
        .map(|(pred, mut records)| {
            records.sort_by(|a, b| a.submit_ms.total_cmp(&b.submit_ms));
            let ordered =
                records.len() > 1 && records.windows(2).all(|w| w[1].timestep > w[0].timestep);
            let think_ms = if records.len() > 1 {
                let span = records.last().unwrap().submit_ms - records[0].submit_ms;
                span / (records.len() - 1) as f64
            } else {
                0.0
            };
            Job {
                id: pred as u64 + 1,
                user: records[0].user,
                kind: if ordered {
                    JobKind::Ordered
                } else {
                    JobKind::Batched
                },
                campaign: pred as u64 + 1,
                queries: records.iter().map(|r| (*by_id[&r.query]).clone()).collect(),
                arrival_ms: records[0].submit_ms,
                think_ms,
            }
        })
        .collect();
    jobs.sort_by(|a, b| a.arrival_ms.total_cmp(&b.arrival_ms));
    jobs
}

#[cfg(test)]
mod reconstruct_tests {
    use super::*;
    use crate::gen::{GenConfig, TraceGenerator};

    #[test]
    fn reconstruction_preserves_every_query_once() {
        let trace = TraceGenerator::new(GenConfig::small(61)).generate();
        let log = SubmitRecord::log_from_trace(&trace, 80.0, 0.05);
        let assignment = identify_jobs(&log, JobIdConfig::default());
        let jobs = reconstruct_jobs(&trace, &log, &assignment);
        let total: usize = jobs.iter().map(|j| j.queries.len()).sum();
        assert_eq!(total, trace.query_count());
        let mut ids: Vec<QueryId> = jobs
            .iter()
            .flat_map(|j| j.queries.iter().map(|q| q.id))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.query_count(), "no duplicates");
    }

    #[test]
    fn reconstructed_ordered_jobs_ascend_in_timestep() {
        let trace = TraceGenerator::new(GenConfig::small(63)).generate();
        let log = SubmitRecord::log_from_trace(&trace, 80.0, 0.05);
        let assignment = identify_jobs(&log, JobIdConfig::default());
        let jobs = reconstruct_jobs(&trace, &log, &assignment);
        assert!(jobs.iter().any(|j| j.kind == JobKind::Ordered));
        for j in jobs.iter().filter(|j| j.kind == JobKind::Ordered) {
            for w in j.queries.windows(2) {
                assert!(w[1].timestep > w[0].timestep, "job {} not ascending", j.id);
            }
        }
    }

    #[test]
    fn arrivals_sorted_and_think_nonnegative() {
        let trace = TraceGenerator::new(GenConfig::small(65)).generate();
        let log = SubmitRecord::log_from_trace(&trace, 80.0, 0.05);
        let assignment = identify_jobs(&log, JobIdConfig::default());
        let jobs = reconstruct_jobs(&trace, &log, &assignment);
        for w in jobs.windows(2) {
            assert!(w[0].arrival_ms <= w[1].arrival_ms);
        }
        assert!(jobs.iter().all(|j| j.think_ms >= 0.0));
    }
}
