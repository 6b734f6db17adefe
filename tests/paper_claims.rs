//! The paper's §VI claims, checked on the full paper trace.
//!
//! Every comparison that [`jaws_bench::claims`] computes for a figure either
//! holds, or is a known divergence pinned on both sides of its measured
//! value. A change that loses one of the paper's results fails here, and so
//! does a change that closes or widens a divergence: re-measure it and
//! update EXPERIMENTS.md.
//!
//! Fig. 11 needs too many replays for a debug build, so its test is ignored
//! by default. Run it in release:
//! `cargo test --release -q --test paper_claims -- --ignored`.

use jaws_bench::claims::{self, Comparison, Runs, SPEEDUPS};
use jaws_bench::exp;
use jaws_sim::{CachePolicyKind, SchedulerKind};

const JAWS2: SchedulerKind = SchedulerKind::Jaws2 { batch_k: 15 };

/// A comparison known not to reproduce the paper, pinned to `lo..=hi`.
struct Divergence {
    what: &'static str,
    lo: f64,
    hi: f64,
    /// The paper's claim, named in every failure message.
    claim: &'static str,
}

/// The row of `rows` measuring `what`. Panics if there is none.
fn find<'a>(rows: &'a [Comparison], what: &str) -> &'a Comparison {
    rows.iter()
        .find(|c| c.what == what)
        .unwrap_or_else(|| panic!("no comparison `{what}`"))
}

/// Asserts that every row holds, except each of `divergences`, which must
/// diverge inside its pinned range.
fn check(rows: &[Comparison], divergences: &[Divergence]) {
    for d in divergences {
        let c = find(rows, d.what);
        assert!(
            !c.holds(),
            "divergence closed: `{}` = {:.3} now passes {} ({}); update EXPERIMENTS.md",
            c.what,
            c.measured,
            c.expect,
            d.claim
        );
        assert!(
            (d.lo..=d.hi).contains(&c.measured),
            "divergence moved: `{}` = {:.3}, pinned to {}..={} ({})",
            c.what,
            c.measured,
            d.lo,
            d.hi,
            d.claim
        );
    }
    for c in rows
        .iter()
        .filter(|c| divergences.iter().all(|d| d.what != c.what))
    {
        assert!(
            c.holds(),
            "paper claim lost: `{}` = {:.3} fails {} (paper: {})",
            c.what,
            c.measured,
            c.expect,
            c.paper
        );
    }
}

fn spec(
    scheduler: SchedulerKind,
    policy: CachePolicyKind,
    speedup: f64,
) -> jaws_sim::sweep::RunSpec {
    let mut s = exp::base_spec(scheduler.name(), scheduler, policy);
    s.speedup = speedup;
    s
}

/// Fig. 10, Table I and Fig. 12 from nine replays: Fig. 10's five
/// schedulers (its JAWS₂ run is also Table I's LRU-K row and Fig. 12's
/// k = 15 row), JAWS₂ under SLRU and URC, and JAWS₂ at k = 1 and k = 100.
#[test]
fn fig10_table1_and_fig12_on_the_paper_trace() {
    use CachePolicyKind::{LruK, Slru, Urc};
    let trace = exp::paper_trace();
    let mut specs: Vec<_> = SchedulerKind::evaluation_set()
        .map(|k| spec(k, LruK, 1.0))
        .to_vec();
    specs.extend([Slru, Urc].map(|p| spec(JAWS2, p, 1.0)));
    specs.extend([1, 100].map(|k| spec(SchedulerKind::Jaws2 { batch_k: k }, LruK, 1.0)));
    let runs = Runs::replay(&specs, &trace);

    check(
        &claims::fig10(&runs),
        &[Divergence {
            what: "LifeRaft_2 / LifeRaft_1 qps",
            lo: 0.82,
            hi: 0.92,
            claim: "the paper, after LifeRaft (arXiv:0909.1760), puts contention order \
                    ~1.22x ahead of arrival order",
        }],
    );

    let table1 = claims::table1(&runs);
    check(
        &table1,
        &[Divergence {
            what: "URC - SLRU hit ratio",
            lo: -5.0,
            hi: -1.5,
            claim: "the paper's URC beats SLRU by 5 points, 54% vs 49%",
        }],
    );
    for what in ["SLRU - LRU-K hit ratio", "URC - LRU-K hit ratio"] {
        let c = find(&table1, what);
        assert!(
            c.measured >= 20.0,
            "`{what}` = {:.1} points: workload knowledge is no longer well above LRU-K",
            c.measured
        );
    }

    check(
        &claims::fig12(&runs, &[1, 15, 100]),
        &[
            Divergence {
                what: "best k",
                lo: 100.0,
                hi: 100.0,
                claim: "the paper puts the best batch size at k = 10-15",
            },
            Divergence {
                what: "k=100 / k=15 qps",
                lo: 1.03,
                hi: 1.09,
                claim: "the paper sees throughput degrade beyond k ~ 20",
            },
        ],
    );
}

/// Fig. 11 at its end speed-ups, plus NoShare at the trace's own rate (its
/// plateau is measured against it): eleven replays.
#[test]
#[ignore = "eleven replays; run in release with --ignored"]
fn fig11_at_the_end_speedups() {
    let trace = exp::paper_trace();
    let (lo, hi) = (SPEEDUPS[0], SPEEDUPS[SPEEDUPS.len() - 1]);
    let mut specs = Vec::new();
    for su in [lo, hi] {
        for k in SchedulerKind::evaluation_set() {
            specs.push(spec(k, CachePolicyKind::LruK, su));
        }
    }
    specs.push(spec(SchedulerKind::NoShare, CachePolicyKind::LruK, 1.0));
    let runs = Runs::replay(&specs, &trace);

    check(
        &claims::fig11(&runs),
        &[Divergence {
            what: "JAWS_2 / LifeRaft_1 qps at 0.125",
            lo: 0.85,
            hi: 0.95,
            claim: "the paper's JAWS_2 leads every scheduler at every saturation",
        }],
    );
}
