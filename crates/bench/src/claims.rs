//! The paper's §VI comparisons, decided in one place.
//!
//! Each figure function reads the runs it needs from [`Runs`] and returns
//! one [`Comparison`] per claim of the paper: the paper's value, the measured
//! value and the test the measurement must pass for the claim to hold. The
//! figure bins print them under their tables with [`print()`];
//! `tests/paper_claims.rs` asserts on the same rows.

use jaws_sim::sweep::RunSpec;
use jaws_sim::{run_parallel, CachePolicyKind, RunReport, SchedulerKind};
use jaws_workload::Trace;
use std::fmt;
use Expect::{Above, Below, Within};

/// JAWS₂ at the paper's default batch size.
const JAWS2: SchedulerKind = SchedulerKind::Jaws2 { batch_k: 15 };

/// Fig. 11's arrival-rate speed-ups, lowest first.
pub const SPEEDUPS: [f64; 7] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Fig. 12's batch sizes k, smallest first.
pub const BATCH_KS: [usize; 10] = [1, 2, 5, 10, 15, 20, 30, 50, 75, 100];

/// Replayed runs, in spec order, looked up by what they ran.
pub struct Runs(Vec<(RunSpec, RunReport)>);

impl Runs {
    /// Replays every spec against `trace` (see [`run_parallel`]).
    pub fn replay(specs: &[RunSpec], trace: &Trace) -> Self {
        Runs(run_parallel(specs, trace))
    }

    /// The runs in spec order, for printing tables.
    pub fn iter(&self) -> impl Iterator<Item = &(RunSpec, RunReport)> {
        self.0.iter()
    }

    /// The run of `kind` under `policy` at arrival-rate `speedup`. Panics
    /// if no spec asked for it. `speedup` is matched exactly: pass the
    /// constant the spec was built from.
    pub fn get(&self, kind: SchedulerKind, policy: CachePolicyKind, speedup: f64) -> &RunReport {
        self.0
            .iter()
            .find(|(s, _)| s.scheduler == kind && s.cache_policy == policy && s.speedup == speedup)
            .map(|(_, r)| r)
            .unwrap_or_else(|| panic!("no run of {kind:?} under {policy:?} at speed-up {speedup}"))
    }

    /// `scheduler` under LRU-K at the trace's own arrival rate.
    pub fn scheduler(&self, scheduler: SchedulerKind) -> &RunReport {
        self.get(scheduler, CachePolicyKind::LruK, 1.0)
    }

    /// JAWS₂ (k = 15) under `policy` at the trace's own arrival rate.
    pub fn policy(&self, policy: CachePolicyKind) -> &RunReport {
        self.get(JAWS2, policy, 1.0)
    }
}

/// What a measurement must satisfy for the paper's claim to hold.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Strictly above.
    Above(f64),
    /// Strictly below.
    Below(f64),
    /// Within the closed range.
    Within(f64, f64),
}

impl fmt::Display for Expect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Above(v) => write!(f, "> {v}"),
            Below(v) => write!(f, "< {v}"),
            Within(lo, hi) => write!(f, "in {lo}..{hi}"),
        }
    }
}

/// One claim of the paper against what the replay measured.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is measured, e.g. `JAWS_2 / NoShare qps`.
    pub what: &'static str,
    /// The paper's value, as the paper states it.
    pub paper: &'static str,
    /// The measured value, in `unit`.
    pub measured: f64,
    /// `x` for a ratio, `pt` for percentage points, `%` for a change, or
    /// empty for a count.
    pub unit: &'static str,
    /// The claim holds when `measured` meets this.
    pub expect: Expect,
}

impl Comparison {
    /// True if the measurement reproduces the paper's claim.
    pub fn holds(&self) -> bool {
        match self.expect {
            Above(v) => self.measured > v,
            Below(v) => self.measured < v,
            Within(lo, hi) => (lo..=hi).contains(&self.measured),
        }
    }
}

/// One figure's rows: `(what, paper, measured, unit, expect)` each.
type Row = (&'static str, &'static str, f64, &'static str, Expect);

fn rows<const N: usize>(rows: [Row; N]) -> Vec<Comparison> {
    rows.map(|(what, paper, measured, unit, expect)| Comparison {
        what,
        paper,
        measured,
        unit,
        expect,
    })
    .to_vec()
}

/// Prints `rows` as the footer of a figure's table.
pub fn print(rows: &[Comparison]) {
    println!("paper vs measured (a claim holds when the measurement passes its test):");
    for c in rows {
        let measured = match c.unit {
            "x" => format!("{:.2}x", c.measured),
            "" => format!("{:.0}", c.measured),
            unit => format!("{:+.1}{unit}", c.measured),
        };
        let verdict = if c.holds() { "holds" } else { "DIVERGES" };
        println!(
            "  {:<38} paper {:<14} measured {:>8}  {verdict} ({})",
            c.what, c.paper, measured, c.expect
        );
    }
}

/// Fig. 10: throughput of the five evaluation schedulers.
#[rustfmt::skip]
pub fn fig10(runs: &Runs) -> Vec<Comparison> {
    use SchedulerKind::*;
    let qps = |k| runs.scheduler(k).throughput_qps;
    let (ns, lr1, lr2) = (qps(NoShare), qps(LifeRaft1), qps(LifeRaft2));
    let (j1, j2) = (qps(Jaws1 { batch_k: 15 }), qps(JAWS2));
    rows([
        ("JAWS_2 / fastest other qps",  "first",  j2 / ns.max(lr1).max(lr2).max(j1), "x", Above(1.0)),
        ("NoShare / slowest other qps", "last",   ns / lr1.min(lr2).min(j1).min(j2), "x", Below(1.0)),
        ("JAWS_2 / NoShare qps",        "~2.6x",  j2 / ns,   "x", Above(2.6)),
        ("JAWS_2 / JAWS_1 qps",         "~1.43x", j2 / j1,   "x", Above(1.0)),
        ("JAWS_1 / LifeRaft_2 qps",     "~1.12x", j1 / lr2,  "x", Above(1.0)),
        ("LifeRaft_2 / LifeRaft_1 qps", "~1.22x", lr2 / lr1, "x", Above(1.0)),
        ("JAWS_2 / LifeRaft_2 qps",     "~1.6x",  j2 / lr2,  "x", Above(1.0)),
    ])
}

/// Fig. 11: throughput and response time at the lowest and highest
/// [`SPEEDUPS`].
#[rustfmt::skip]
pub fn fig11(runs: &Runs) -> Vec<Comparison> {
    use SchedulerKind::*;
    let (lo, hi) = (SPEEDUPS[0], SPEEDUPS[SPEEDUPS.len() - 1]);
    let tp = |k, su| runs.get(k, CachePolicyKind::LruK, su).throughput_qps;
    let rt = |k| runs.get(k, CachePolicyKind::LruK, lo).mean_response_ms;
    rows([
        ("NoShare qps at 8 / at 1",              "~1 (plateau)", tp(NoShare, hi) / tp(NoShare, 1.0),  "x", Below(1.2)),
        ("JAWS_2 qps at 8 / at 0.125",           "keeps rising", tp(JAWS2, hi) / tp(JAWS2, lo),       "x", Above(1.2)),
        ("JAWS_2 / LifeRaft_2 mean rt at 0.125", "much lower",   rt(JAWS2) / rt(LifeRaft2),           "x", Below(1.0)),
        ("JAWS_2 / LifeRaft_2 qps at 8",         "not worse",    tp(JAWS2, hi) / tp(LifeRaft2, hi),   "x", Above(1.0)),
        ("JAWS_2 / LifeRaft_1 qps at 0.125",     "JAWS leads",   tp(JAWS2, lo) / tp(LifeRaft1, lo),   "x", Above(1.0)),
    ])
}

/// Fig. 12: JAWS₂ at each batch size in `ks` (which must include 1, 15 and
/// 100) against LifeRaft₂. The best k is the first of the fastest.
#[rustfmt::skip]
pub fn fig12(runs: &Runs, ks: &[usize]) -> Vec<Comparison> {
    let qps = |batch_k| runs.scheduler(SchedulerKind::Jaws2 { batch_k }).throughput_qps;
    let best_k = ks.iter().fold(ks[0], |best, &k| if qps(k) > qps(best) { k } else { best });
    let lr2 = runs.scheduler(SchedulerKind::LifeRaft2).throughput_qps;
    rows([
        ("JAWS_2 at k=1 / LifeRaft_2 qps", "> 1",            qps(1) / lr2,       "x", Above(1.0)),
        ("best k",                         "10-15",          best_k as f64,      "",  Within(10.0, 15.0)),
        ("k=100 / k=15 qps",               "< 1 (degrades)", qps(100) / qps(15), "x", Below(1.0)),
    ])
}

/// Table I: JAWS₂ under LRU-K, SLRU and URC.
#[rustfmt::skip]
pub fn table1(runs: &Runs) -> Vec<Comparison> {
    use CachePolicyKind::*;
    let hit = |p| runs.policy(p).cache.hit_ratio() * 100.0;
    let speedup = runs.policy(LruK).seconds_per_query / runs.policy(Urc).seconds_per_query;
    rows([
        ("SLRU - LRU-K hit ratio",   "+2pt (49/47%)", hit(Slru) - hit(LruK),   "pt", Above(0.0)),
        ("URC - LRU-K hit ratio",    "+7pt (54/47%)", hit(Urc) - hit(LruK),    "pt", Above(0.0)),
        ("URC - SLRU hit ratio",     "+5pt (54/49%)", hit(Urc) - hit(Slru),    "pt", Above(0.0)),
        ("URC vs LRU-K query speed", "+16% (1.39 s)", (speedup - 1.0) * 100.0, "%",  Above(0.0)),
    ])
}
