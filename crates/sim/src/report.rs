//! Run reports: the measurements every experiment binary prints.

use jaws_cache::CacheStats;
use jaws_scheduler::SchedulerStats;
use jaws_turbdb::DiskStats;
use jaws_workload::QueryId;
use serde::Serialize;

/// Response-time percentiles in ms.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed.
    pub max: f64,
}

impl Percentiles {
    /// Computes percentiles from unsorted samples (empty → zeros), using the
    /// standard nearest-rank convention: the q-th percentile of n sorted
    /// samples is the one at 1-based rank `⌈q·n⌉`. The previous
    /// `round((n−1)·q)` index rounded half away from zero, which returned the
    /// *larger* of two samples as the median and saturated p95 to the max for
    /// small n.
    pub fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| {
            // The epsilon guards exact-product cases against float error:
            // 0.95 * 100.0 is 95.000000000000014, whose bare ceil would be
            // rank 96 instead of the intended 95.
            let rank = ((q * samples.len() as f64) - 1e-9).ceil().max(1.0) as usize;
            samples[rank.min(samples.len()) - 1]
        };
        Percentiles {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            // Sorted ascending, so quantile 1.0 is the maximum — no direct
            // `last().expect` on a slice the empty-check above already guards.
            max: at(1.0),
        }
    }
}

/// Raw per-run totals the engine hands to report assembly.
pub(crate) struct RunTotals {
    /// `(trace query id, response ms)` in completion order.
    pub response_log: Vec<(QueryId, f64)>,
    /// Jobs whose every query completed.
    pub jobs_completed: u64,
    /// Arrival time of the first trace job, ms.
    pub first_arrival: f64,
    /// Completion time of the last query, ms.
    pub last_completion: f64,
    /// True if the run hit its simulated-time cap or left queries behind.
    pub truncated: bool,
}

/// Assembles a [`RunReport`] from engine totals plus the database, cache and
/// scheduler statistics summed over the nodes — the one place the derived
/// metrics (makespan, throughput, percentiles, per-query overheads) are
/// computed, called by [`crate::ClusterExecutor::run`].
pub(crate) fn assemble(
    scheduler: String,
    cache_policy: String,
    totals: &RunTotals,
    cache: CacheStats,
    disk: DiskStats,
    scheduler_stats: SchedulerStats,
    alpha_final: f64,
) -> RunReport {
    let mut responses: Vec<f64> = totals.response_log.iter().map(|&(_, rt)| rt).collect();
    let completed = responses.len() as u64;
    let makespan_ms = (totals.last_completion - totals.first_arrival).max(1e-9);
    let mean_response_ms = if responses.is_empty() {
        0.0
    } else {
        responses.iter().sum::<f64>() / responses.len() as f64
    };
    RunReport {
        scheduler,
        cache_policy,
        queries_completed: completed,
        jobs_completed: totals.jobs_completed,
        makespan_ms,
        throughput_qps: completed as f64 / (makespan_ms / 1000.0),
        mean_response_ms,
        response: Percentiles::from_samples(&mut responses),
        cache,
        disk,
        scheduler_stats,
        cache_overhead_ms_per_query: if completed == 0 {
            0.0
        } else {
            cache.policy_overhead_ns as f64 / completed as f64 / 1e6
        },
        seconds_per_query: if completed == 0 {
            0.0
        } else {
            makespan_ms / 1000.0 / completed as f64
        },
        alpha_final,
        truncated: totals.truncated,
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Scheduler name (`NoShare`, `LifeRaft_1`, `LifeRaft_2`, `JAWS_1`,
    /// `JAWS_2`).
    pub scheduler: String,
    /// Cache policy name (`LRU`, `LRU-K`, `SLRU`, `URC`).
    pub cache_policy: String,
    /// Queries completed.
    pub queries_completed: u64,
    /// Jobs fully completed.
    pub jobs_completed: u64,
    /// Simulated time from first arrival to last completion, ms.
    pub makespan_ms: f64,
    /// Query throughput over the makespan, queries/s — the paper's headline
    /// metric (Figs. 10–12).
    pub throughput_qps: f64,
    /// Mean query response time (submission → completion), ms.
    pub mean_response_ms: f64,
    /// Response-time percentiles, ms.
    pub response: Percentiles,
    /// Buffer-cache statistics (hit ratio of Table I).
    pub cache: CacheStats,
    /// Simulated-disk statistics.
    pub disk: DiskStats,
    /// Scheduler statistics.
    pub scheduler_stats: SchedulerStats,
    /// Measured cache-policy maintenance overhead per query, ms (Table I's
    /// Overhead/Qry column; wall-clock, not simulated).
    pub cache_overhead_ms_per_query: f64,
    /// Mean simulated seconds per query (Table I's Seconds/Qry).
    pub seconds_per_query: f64,
    /// Final age bias α.
    pub alpha_final: f64,
    /// True if the run hit its simulated-time cap before draining the trace.
    pub truncated: bool,
}

impl RunReport {
    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{:<11} {:<6} {:>7.3} q/s  rt mean {:>9.1} ms  p95 {:>9.1} ms  hit {:>5.1}%  {:>6} queries{}",
            self.scheduler,
            self.cache_policy,
            self.throughput_qps,
            self.mean_response_ms,
            self.response.p95,
            self.cache.hit_ratio() * 100.0,
            self.queries_completed,
            if self.truncated { "  [TRUNCATED]" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let mut s: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let p = Percentiles::from_samples(&mut s);
        // Nearest-rank ⌈q·n⌉: the value at 1-based rank q·n for n = 100.
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
    }

    #[test]
    fn percentile_of_two_samples_is_the_smaller() {
        // Regression: round((n−1)·q) rounded 0.5 away from zero and returned
        // the larger sample as p50 of two; ⌈0.5·2⌉ = rank 1 is the smaller.
        let p = Percentiles::from_samples(&mut [10.0, 20.0]);
        assert_eq!(p.p50, 10.0);
        // And p95 of a small sample set must not saturate to the max:
        // ⌈0.95·2⌉ = rank 2 here, but with n = 10, rank 10 only at q ≥ 0.9.
        let mut ten: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        let p = Percentiles::from_samples(&mut ten);
        assert_eq!(p.p50, 5.0);
        assert_eq!(p.p95, 10.0);
    }

    #[test]
    fn percentiles_of_empty_and_single() {
        assert_eq!(Percentiles::from_samples(&mut []).max, 0.0);
        let p = Percentiles::from_samples(&mut [42.0]);
        assert_eq!(p.p50, 42.0);
        assert_eq!(p.max, 42.0);
    }

    #[test]
    fn percentiles_sort_unsorted_input() {
        let p = Percentiles::from_samples(&mut [3.0, 1.0, 2.0]);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.max, 3.0);
    }
}
