//! QoS fairness: completion times proportional to query size (§VII).
//!
//! Measures per-query *stretch* — response time divided by the query's own
//! estimated service time — under each scheduler. A proportional scheduler
//! keeps the stretch distribution tight (its p95/p50 ratio small): small
//! queries wait little, large queries wait proportionally more, nobody
//! starves. JAWS-QoS (EDF with size-proportional deadlines) implements the
//! paper's future-work proposal while keeping per-pass data sharing.

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
    }
    exp::rule();
    println!("expected shape: JAWS-QoS has the lowest tail stretch (p95 and max) — every");
    println!("query's delay is bounded proportionally to its size, the \"predictable and");
    println!("fair completion time guarantees\" of §VII — while retaining shared-scan");
    println!("throughput far above NoShare.");
}
