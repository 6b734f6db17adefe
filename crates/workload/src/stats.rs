//! Workload characterization: the inputs to Figs. 8 and 9.

use crate::trace::Trace;
use serde::Serialize;

/// Execution-time buckets of Fig. 8.
pub const DURATION_BUCKETS: [(&str, f64, f64); 6] = [
    ("<1 min", 0.0, 60_000.0),
    ("1-5 min", 60_000.0, 300_000.0),
    ("5-30 min", 300_000.0, 1_800_000.0),
    ("30-60 min", 1_800_000.0, 3_600_000.0),
    ("1-12 hr", 3_600_000.0, 43_200_000.0),
    (">12 hr", 43_200_000.0, f64::INFINITY),
];

/// A labelled histogram bucket.
#[derive(Debug, Clone, Serialize)]
pub struct Bucket {
    /// Human-readable label.
    pub label: String,
    /// Number of items in the bucket.
    pub count: u64,
    /// Fraction of the total.
    pub fraction: f64,
}

/// Distribution of jobs by (nominal) execution time — Fig. 8.
///
/// `atom_read_ms`/`position_compute_ms` are the cost constants used for the
/// service-time estimate.
pub fn job_duration_histogram(
    trace: &Trace,
    atom_read_ms: f64,
    position_compute_ms: f64,
) -> Vec<Bucket> {
    let durations: Vec<f64> = trace
        .jobs
        .iter()
        .map(|j| j.nominal_duration_ms(atom_read_ms, position_compute_ms))
        .collect();
    let total = durations.len().max(1) as f64;
    DURATION_BUCKETS
        .iter()
        .map(|&(label, lo, hi)| {
            let count = durations.iter().filter(|&&d| d >= lo && d < hi).count() as u64;
            Bucket {
                label: label.to_string(),
                count,
                fraction: count as f64 / total,
            }
        })
        .collect()
}

/// Distribution of queries by timestep accessed — Fig. 9.
pub fn timestep_histogram(trace: &Trace) -> Vec<u64> {
    let mut hist = vec![0u64; trace.timesteps as usize];
    for (_, q) in trace.queries() {
        hist[q.timestep as usize] += 1;
    }
    hist
}

/// Fraction of queries landing in the `n` most accessed timesteps (the paper:
/// "70% of queries reuse data from a dozen time steps").
pub fn top_timestep_share(trace: &Trace, n: usize) -> f64 {
    let mut hist = timestep_histogram(trace);
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    hist.sort_unstable_by(|a, b| b.cmp(a));
    hist.iter().take(n).sum::<u64>() as f64 / total as f64
}

/// Share of jobs touching exactly one timestep (the paper reports 88%).
pub fn single_timestep_job_share(trace: &Trace) -> f64 {
    if trace.jobs.is_empty() {
        return 0.0;
    }
    let single = trace.jobs.iter().filter(|j| j.timestep_span() == 1).count();
    single as f64 / trace.jobs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::new(GenConfig::paper_like(11)).generate()
    }

    #[test]
    fn duration_histogram_covers_every_job() {
        let t = trace();
        let h = job_duration_histogram(&t, 80.0, 0.05);
        let total: u64 = h.iter().map(|b| b.count).sum();
        assert_eq!(
            total,
            t.jobs.len() as u64,
            "every job in exactly one bucket"
        );
        let frac_sum: f64 = h.iter().map(|b| b.fraction).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn durations_spread_across_buckets_like_fig8() {
        let t = trace();
        let h = job_duration_histogram(&t, 80.0, 0.05);
        // A majority of jobs fall between 1 and 30 minutes (paper: 63%),
        // with non-trivial mass both below and above.
        let mid = h[1].fraction + h[2].fraction;
        assert!(mid > 0.35, "1-30 min share {:.2}", mid);
        assert!(h[0].count > 0, "some short jobs");
        assert!(h[3].count + h[4].count + h[5].count > 0, "some long jobs");
    }

    #[test]
    fn top_timesteps_concentrate_access_like_fig9() {
        let t = trace();
        // The paper: 70% of queries in about a dozen (of 1024 production)
        // timesteps. At 31 steps, the top 12 must carry well over half.
        let share = top_timestep_share(&t, 12);
        assert!(share > 0.55, "top-12 share {:.2}", share);
        assert!(top_timestep_share(&t, 31) > 0.999);
    }

    #[test]
    fn most_jobs_touch_one_timestep() {
        let t = trace();
        let s = single_timestep_job_share(&t);
        assert!(s > 0.6, "single-timestep share {s:.2}");
    }

    #[test]
    fn histogram_total_matches_query_count() {
        let t = trace();
        let h = timestep_histogram(&t);
        assert_eq!(h.iter().sum::<u64>(), t.query_count() as u64);
    }
}

/// Fraction of queried positions landing on the `n` most accessed atoms
/// (across all timesteps, by spatial Morton key) — §VI-A: "we observed
/// similar reuse along the spatial dimension, although the skew is less
/// pronounced".
pub fn top_atom_share(trace: &Trace, n: usize) -> f64 {
    use std::collections::HashMap;
    let mut per_atom: HashMap<u64, u64> = HashMap::new();
    let mut total = 0u64;
    for (_, q) in trace.queries() {
        for &(m, c) in q.footprint.atoms() {
            *per_atom.entry(m.raw()).or_default() += c as u64;
            total += c as u64;
        }
    }
    if total == 0 {
        return 0.0;
    }
    let mut counts: Vec<u64> = per_atom.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts.iter().take(n).sum::<u64>() as f64 / total as f64
}

#[cfg(test)]
mod spatial_tests {
    use super::*;
    use crate::gen::{GenConfig, TraceGenerator};

    #[test]
    fn spatial_reuse_is_present_but_less_skewed_than_temporal() {
        let t = TraceGenerator::new(GenConfig::paper_like(11)).generate();
        // Hotspots concentrate positions: the top 5% of atoms (205 of 4096)
        // carry far more than 5% of positions…
        let share = top_atom_share(&t, 205);
        assert!(share > 0.3, "spatial reuse too weak: {share:.2}");
        // …but spatial skew is less pronounced than temporal skew, exactly
        // the paper's observation (top ~39% of timesteps vs top 5% of atoms
        // is not a like-for-like comparison, so compare equal fractions:
        // top 12/31 timesteps vs top 1586/4096 atoms).
        let temporal = top_timestep_share(&t, 12);
        let spatial_same_frac = top_atom_share(&t, 4096 * 12 / 31);
        assert!(
            spatial_same_frac >= temporal * 0.8,
            "spatial {spatial_same_frac:.2} vs temporal {temporal:.2}"
        );
    }

    #[test]
    fn top_atom_share_is_monotone_and_bounded() {
        let t = TraceGenerator::new(GenConfig::small(13)).generate();
        let s10 = top_atom_share(&t, 10);
        let s30 = top_atom_share(&t, 30);
        assert!(s10 <= s30);
        assert!(top_atom_share(&t, 64) > 0.999);
    }
}
