//! QoS fairness: completion times proportional to query size (§VII).
//!
//! Measures per-query *stretch* — response time divided by the query's own
//! estimated service time — under each scheduler. A proportional scheduler
//! keeps the stretch distribution tight (its p95/p50 ratio small): small
//! queries wait little, large queries wait proportionally more, nobody
//! starves. JAWS-QoS (EDF with size-proportional deadlines) implements the
//! paper's future-work proposal while keeping per-pass data sharing. The
//! footer names, from the printed rows, the scheduler with the lowest p95
//! stretch and the one with the lowest maximum stretch.

use jaws_bench::exp;
use jaws_sim::{Percentiles, SchedulerKind};
use std::collections::HashMap;

fn main() {
    exp::parse_args("", &[]);
    let trace = exp::paper_trace();
    let cost = exp::paper_cost();
    let mut estimate: HashMap<u64, f64> = HashMap::new();
    for (_, q) in trace.queries() {
        let est = q.footprint.atom_count() as f64 * cost.atom_read_ms
            + q.positions() as f64 * cost.position_compute_ms;
        estimate.insert(q.id, est.max(1.0));
    }

    println!(
        "\n{:<11} {:>9} {:>12} {:>12} {:>12} {:>14}",
        "scheduler", "qps", "stretch p50", "stretch p95", "stretch max", "p95/p50 ratio"
    );
    exp::rule();
    let mut rows: Vec<(String, Percentiles)> = Vec::new();
    for kind in [
        SchedulerKind::NoShare,
        SchedulerKind::LifeRaft2,
        SchedulerKind::Jaws2 { batch_k: 15 },
        SchedulerKind::Qos { stretch_x10: 30 },
    ] {
        let mut ex = exp::paper_executor(kind);
        let r = ex.run(&trace);
        let mut stretches: Vec<f64> = ex
            .response_log()
            .iter()
            .map(|&(qid, rt)| rt / estimate[&qid])
            .collect();
        let p = Percentiles::from_samples(&mut stretches);
        println!(
            "{:<11} {:>9.3} {:>12.1} {:>12.1} {:>12.0} {:>14.1}",
            r.scheduler,
            r.throughput_qps,
            p.p50,
            p.p95,
            p.max,
            p.p95 / p.p50.max(1e-9)
        );
        rows.push((r.scheduler, p));
    }
    exp::rule();
    let (p95_name, p95) = lowest(&rows, |p| p.p95);
    let (max_name, max) = lowest(&rows, |p| p.max);
    println!(
        "lowest stretch p95: {p95_name} ({p95:.1}); lowest stretch max: {max_name} ({max:.0})"
    );
}

/// The scheduler with the lowest `stat` of its stretch distribution, and
/// that value; the first row wins a tie.
fn lowest(rows: &[(String, Percentiles)], stat: fn(&Percentiles) -> f64) -> (&str, f64) {
    rows.iter()
        .map(|(name, p)| (name.as_str(), stat(p)))
        .reduce(|best, row| if row.1 < best.1 { row } else { best })
        .unwrap_or(("none", 0.0))
}
