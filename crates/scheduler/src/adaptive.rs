//! Adaptive starvation resistance: the α controller of §V-A.
//!
//! JAWS "divides the workload into runs of r consecutive queries each,
//! measures query performance for each run, and then adjusts α incrementally
//! based on observed performance trade-offs compared with past runs":
//!
//! 1. if rt(i)/rt(i−1) ≥ 1 and tp(i)/tp(i−1) < rt(i)/rt(i−1):
//!    αᵢ₊₁ = αᵢ − min{rt-ratio − tp-ratio, αᵢ}  (bias towards contention);
//! 2. if rt(i)/rt(i−1) < 1 and tp(i)/tp(i−1) < rt(i)/rt(i−1):
//!    αᵢ₊₁ = αᵢ + min{rt-ratio − tp-ratio, 1 − αᵢ}  (bias towards age).
//!
//! Rule 2's increment term is negative as literally printed (tp-ratio exceeds
//! rt-ratio is false in its guard, so rt-ratio − tp-ratio > 0 there); we apply
//! the magnitude |rt-ratio − tp-ratio| in both rules, clamped to keep
//! α ∈ \[0, 1\].
//!
//! To avoid rapid variation, performance is smoothed across runs:
//! rt′(i) = 0.2·rt(i) + 0.8·rt′(i−1) and likewise for throughput. And "it can
//! be difficult to recover from a poor initial choice for α if workload
//! saturation exhibits little change over an extended period", so the
//! controller perturbs α to explore the trade-off curve when two consecutive
//! runs show no movement.

use serde::Serialize;

/// Measured performance of one run of `r` consecutive queries.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunFeedback {
    /// Mean query response time during the run, ms.
    pub mean_response_ms: f64,
    /// Query throughput during the run, queries/s.
    pub throughput_qps: f64,
}

/// The incremental α controller.
#[derive(Debug, Clone)]
pub struct AlphaController {
    alpha: f64,
    run_len: usize,
    completed_in_run: usize,
    run_started_ms: f64,
    /// Whether `run_started_ms` was pinned by an observed arrival (the
    /// correct anchor for the first run's throughput window).
    anchored: bool,
    /// Arrivals not yet matched by a completion. When a run closes with an
    /// empty queue the anchor is re-armed, so an idle gap before the next
    /// arrival is excluded from the next run's throughput window.
    outstanding: u64,
    response_sum_ms: f64,
    /// Smoothed rt′/tp′ of the previous run.
    prev: Option<RunFeedback>,
    /// Runs with negligible movement, for trade-off-curve exploration.
    flat_runs: u32,
    explore_sign: f64,
    history: Vec<(f64, RunFeedback)>,
}

impl AlphaController {
    /// Threshold below which two runs count as "no change".
    const FLAT_EPS: f64 = 0.02;
    /// Exploration step applied after two flat runs.
    const EXPLORE_STEP: f64 = 0.1;

    /// Creates a controller with initial bias `alpha0` (the paper initializes
    /// 0.5) and run length `run_len` queries.
    pub fn new(alpha0: f64, run_len: usize) -> Self {
        assert!((0.0..=1.0).contains(&alpha0), "alpha must be in [0,1]");
        assert!(run_len > 0, "runs must contain at least one query");
        AlphaController {
            alpha: alpha0,
            run_len,
            completed_in_run: 0,
            run_started_ms: 0.0,
            anchored: false,
            outstanding: 0,
            response_sum_ms: 0.0,
            prev: None,
            flat_runs: 0,
            explore_sign: 1.0,
            history: Vec::new(),
        }
    }

    /// Current age bias.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// (α, run feedback) pairs recorded at each run boundary.
    pub fn history(&self) -> &[(f64, RunFeedback)] {
        &self.history
    }

    /// Notes that a query became available at `now_ms`. The first arrival
    /// anchors the first run's throughput window; without it the window was
    /// back-dated to `now − response` of the first *completion*, which (when
    /// several queries queue before the first finishes) starts the clock far
    /// too late and inflates the first `throughput_qps` sample that α
    /// adaptation feeds on.
    ///
    /// The same anchoring re-arms at every run boundary that drains the
    /// queue: the first arrival after an idle gap re-pins the window, so the
    /// gap does not deflate the next run's `throughput_qps`.
    pub fn note_arrival(&mut self, now_ms: f64) {
        self.outstanding += 1;
        if !self.anchored {
            self.run_started_ms = now_ms.max(0.0);
            self.anchored = true;
        }
    }

    /// Records a query completion. Returns `true` when this completion closed
    /// a run (the caller should propagate the boundary to the cache for
    /// SLRU's batch promotion).
    pub fn on_query_complete(&mut self, response_ms: f64, now_ms: f64) -> bool {
        if !self.anchored && self.completed_in_run == 0 && self.history.is_empty() {
            // No arrival was ever noted (a caller driving completions
            // directly): fall back to back-dating the first run's start by
            // the first response time.
            self.run_started_ms = (now_ms - response_ms).max(0.0);
            self.anchored = true;
        }
        self.response_sum_ms += response_ms;
        self.completed_in_run += 1;
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.completed_in_run < self.run_len {
            return false;
        }
        let elapsed_ms = (now_ms - self.run_started_ms).max(1e-6);
        let raw = RunFeedback {
            mean_response_ms: self.response_sum_ms / self.run_len as f64,
            throughput_qps: self.run_len as f64 / (elapsed_ms / 1000.0),
        };
        self.close_run(raw);
        self.completed_in_run = 0;
        self.response_sum_ms = 0.0;
        self.run_started_ms = now_ms;
        if self.outstanding == 0 {
            // The closing completion drained the queue. Pinning the next
            // run's start here would absorb any idle gap before the next
            // arrival into that run's throughput window; re-arm instead so
            // the next `note_arrival` re-anchors.
            self.anchored = false;
        }
        true
    }

    fn close_run(&mut self, raw: RunFeedback) {
        let smoothed = match self.prev {
            None => raw,
            Some(p) => RunFeedback {
                mean_response_ms: 0.2 * raw.mean_response_ms + 0.8 * p.mean_response_ms,
                throughput_qps: 0.2 * raw.throughput_qps + 0.8 * p.throughput_qps,
            },
        };
        if let Some(p) = self.prev {
            let rt_ratio = smoothed.mean_response_ms / p.mean_response_ms.max(1e-9);
            let tp_ratio = smoothed.throughput_qps / p.throughput_qps.max(1e-9);
            let delta = (rt_ratio - tp_ratio).abs();
            if rt_ratio >= 1.0 && tp_ratio < rt_ratio {
                // Saturation rising without commensurate throughput: chase
                // contention (lower α).
                self.alpha -= delta.min(self.alpha);
                self.flat_runs = 0;
            } else if rt_ratio < 1.0 && tp_ratio < rt_ratio {
                // Saturation falling and throughput sagging: spend slack on
                // response time (raise α).
                self.alpha += delta.min(1.0 - self.alpha);
                self.flat_runs = 0;
            } else if (rt_ratio - 1.0).abs() < Self::FLAT_EPS
                && (tp_ratio - 1.0).abs() < Self::FLAT_EPS
            {
                // No movement: explore the trade-off curve so α cannot stay
                // stuck at a bad initial value.
                self.flat_runs += 1;
                if self.flat_runs >= 2 {
                    let step = Self::EXPLORE_STEP * self.explore_sign;
                    let next = (self.alpha + step).clamp(0.0, 1.0);
                    // total_cmp, not `==`: "the clamp absorbed the whole
                    // step" must be an exact, total comparison (`float_cmp`).
                    if next.total_cmp(&self.alpha).is_eq() {
                        self.explore_sign = -self.explore_sign;
                    } else {
                        self.alpha = next;
                    }
                    self.flat_runs = 0;
                }
            } else {
                self.flat_runs = 0;
            }
        }
        self.prev = Some(smoothed);
        self.history.push((self.alpha, smoothed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives one full run with uniform response times and a chosen duration.
    fn push_run(c: &mut AlphaController, start_ms: f64, rt_ms: f64, run_secs: f64) -> f64 {
        let r = c.run_len;
        for i in 0..r {
            let t = start_ms + run_secs * 1000.0 * (i + 1) as f64 / r as f64;
            c.on_query_complete(rt_ms, t);
        }
        start_ms + run_secs * 1000.0
    }

    #[test]
    fn run_boundary_fires_every_r_queries() {
        let mut c = AlphaController::new(0.5, 3);
        assert!(!c.on_query_complete(10.0, 100.0));
        assert!(!c.on_query_complete(10.0, 200.0));
        assert!(c.on_query_complete(10.0, 300.0), "third completion closes");
        assert!(!c.on_query_complete(10.0, 400.0));
    }

    #[test]
    fn rising_saturation_lowers_alpha() {
        let mut c = AlphaController::new(0.5, 10);
        let t = push_run(&mut c, 0.0, 100.0, 10.0);
        // Response times explode while throughput stays flat: rule (1).
        push_run(&mut c, t, 500.0, 10.0);
        assert!(c.alpha() < 0.5, "alpha {} should drop", c.alpha());
        assert!(c.alpha() >= 0.0);
    }

    #[test]
    fn falling_saturation_with_sagging_throughput_raises_alpha() {
        let mut c = AlphaController::new(0.5, 10);
        let t = push_run(&mut c, 0.0, 500.0, 5.0);
        // Response time improves but throughput collapses harder: rule (2).
        push_run(&mut c, t, 400.0, 50.0);
        assert!(c.alpha() > 0.5, "alpha {} should rise", c.alpha());
        assert!(c.alpha() <= 1.0);
    }

    #[test]
    fn alpha_stays_clamped_under_extreme_swings() {
        let mut c = AlphaController::new(0.5, 5);
        let mut t = push_run(&mut c, 0.0, 10.0, 1.0);
        for i in 0..20 {
            // Alternate violent rises and falls in saturation.
            let rt = if i % 2 == 0 { 10_000.0 } else { 1.0 };
            t = push_run(&mut c, t, rt, 1.0);
            assert!((0.0..=1.0).contains(&c.alpha()), "alpha {}", c.alpha());
        }
    }

    #[test]
    fn flat_workload_triggers_exploration() {
        let mut c = AlphaController::new(0.5, 5);
        let mut t = 0.0;
        for _ in 0..6 {
            t = push_run(&mut c, t, 100.0, 10.0);
        }
        assert!(
            (c.alpha() - 0.5).abs() > 1e-9,
            "alpha {} never explored despite a flat workload",
            c.alpha()
        );
    }

    #[test]
    fn exploration_reverses_at_the_boundary() {
        let mut c = AlphaController::new(1.0, 2);
        let mut t = 0.0;
        for _ in 0..8 {
            t = push_run(&mut c, t, 100.0, 10.0);
        }
        assert!(c.alpha() < 1.0, "stuck at the upper clamp");
    }

    #[test]
    fn smoothing_damps_a_single_spike() {
        let mut c = AlphaController::new(0.5, 10);
        let t = push_run(&mut c, 0.0, 100.0, 10.0);
        // One spiky run: the 0.2/0.8 EWMA records 0.2·1000 + 0.8·100 = 280,
        // not the raw 1000 — a 2.8× apparent rise instead of 10×.
        push_run(&mut c, t, 1_000.0, 10.0);
        let (_, fb) = c.history().last().unwrap();
        assert!(
            (fb.mean_response_ms - 280.0).abs() < 1e-6,
            "{}",
            fb.mean_response_ms
        );
        assert!(c.alpha() < 0.5, "saturation rise still lowers alpha");
        assert!((0.0..=1.0).contains(&c.alpha()));
    }

    #[test]
    fn history_records_each_run() {
        let mut c = AlphaController::new(0.5, 4);
        let t = push_run(&mut c, 0.0, 50.0, 2.0);
        push_run(&mut c, t, 60.0, 2.0);
        assert_eq!(c.history().len(), 2);
    }

    #[test]
    fn first_run_is_anchored_at_first_arrival_not_first_completion() {
        // Four queries all arrive at t=0 and drain serially, 1 s each. The
        // run really spans 4 s → 1 q/s. Without the arrival anchor the run
        // start was back-dated to (1000 − 1000) = 0 only for the *first*
        // completion's response; with queueing, later completions have larger
        // responses, and the old anchor `now − response` of completion #1
        // understated the window whenever the first query was also the
        // fastest. Make the distortion visible: first response small.
        let mut c = AlphaController::new(0.5, 4);
        c.note_arrival(0.0);
        c.note_arrival(0.0); // only the first arrival anchors
        c.on_query_complete(500.0, 3_500.0); // fast first query
        c.on_query_complete(1_000.0, 3_600.0);
        c.on_query_complete(2_000.0, 3_800.0);
        assert!(c.on_query_complete(3_000.0, 4_000.0));
        let (_, fb) = c.history().last().unwrap();
        // Anchored at the first arrival (t = 0): 4 queries / 4 s = 1 q/s.
        // The old code anchored at 3500 − 500 = 3000 ms → 8 q/s.
        assert!(
            (fb.throughput_qps - 1.0).abs() < 1e-9,
            "throughput {} should be 1 q/s",
            fb.throughput_qps
        );
    }

    #[test]
    fn completion_only_callers_still_get_a_backdated_anchor() {
        // Drivers that never call note_arrival (unit tests, ablations) keep
        // the old fallback: first run starts at now − response of the first
        // completion.
        let mut c = AlphaController::new(0.5, 2);
        c.on_query_complete(1_000.0, 1_000.0);
        assert!(c.on_query_complete(1_000.0, 2_000.0));
        let (_, fb) = c.history().last().unwrap();
        assert!(
            (fb.throughput_qps - 1.0).abs() < 1e-9,
            "{}",
            fb.throughput_qps
        );
    }

    #[test]
    fn idle_gap_between_runs_does_not_deflate_throughput() {
        // Run 1: two arrivals at t=0 drain by t=2 s → 1 q/s. Then the system
        // sits idle for 98 s before the next two queries arrive and drain in
        // 2 s — another genuine 1 q/s run. The old code pinned run 2's start
        // at run 1's closing completion (t=2 s), so the idle gap inflated the
        // window to 100 s and rule 2 saw a phantom throughput collapse.
        let mut c = AlphaController::new(0.5, 2);
        c.note_arrival(0.0);
        c.note_arrival(0.0);
        c.on_query_complete(1_000.0, 1_000.0);
        assert!(c.on_query_complete(1_000.0, 2_000.0), "run 1 closes");
        c.note_arrival(100_000.0);
        c.note_arrival(100_000.0);
        c.on_query_complete(1_000.0, 101_000.0);
        assert!(c.on_query_complete(1_000.0, 102_000.0), "run 2 closes");
        let (_, fb) = c.history().last().unwrap();
        // Raw run-2 throughput is 2 q / 2 s = 1 q/s, and the EWMA of two
        // identical samples is still 1 q/s. Pre-fix the raw sample was
        // 2 q / 100 s = 0.02 q/s → smoothed 0.804.
        assert!(
            (fb.throughput_qps - 1.0).abs() < 1e-9,
            "throughput {} deflated by the idle gap",
            fb.throughput_qps
        );
    }

    #[test]
    fn continuous_load_keeps_back_to_back_run_windows() {
        // With queries still outstanding at the boundary, run 2's window must
        // stay pinned at run 1's close (no re-arming mid-stream).
        let mut c = AlphaController::new(0.5, 2);
        for _ in 0..4 {
            c.note_arrival(0.0);
        }
        c.on_query_complete(1_000.0, 1_000.0);
        assert!(c.on_query_complete(2_000.0, 2_000.0));
        c.on_query_complete(3_000.0, 3_000.0);
        assert!(c.on_query_complete(4_000.0, 4_000.0));
        let (_, fb) = c.history().last().unwrap();
        // Run 2 spans 2 s (from the run-1 close at t=2 s to t=4 s): raw
        // 1 q/s, smoothed with run 1's identical 1 q/s → 1 q/s.
        assert!(
            (fb.throughput_qps - 1.0).abs() < 1e-9,
            "{}",
            fb.throughput_qps
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_out_of_range_alpha() {
        let _ = AlphaController::new(1.5, 10);
    }
}
