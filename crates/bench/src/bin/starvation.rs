//! Short-query starvation: CasJobs multi-queue vs JAWS (§II / §VII).
//!
//! The paper argues JAWS "does not rely on ad hoc mechanisms to distinguish
//! long and short running queries … queries of all sizes are supported in a
//! single system", while CasJobs' arbitrary class threshold makes "the
//! longest short queries interfere with the short queue and the shortest
//! long queries experience starvation". This experiment replays the
//! evaluation trace under NoShare, CasJobs, LifeRaft₂ and JAWS₂ and slices
//! response times by query size class.

use jaws_bench::exp;
use jaws_sim::{Percentiles, SchedulerKind};
use std::collections::HashMap;

/// CasJobs threshold and the class boundary used for reporting, ms.
const THRESHOLD_MS: f64 = 600.0;

fn main() {
    exp::parse_args("", &[]);
    let trace = exp::paper_trace();
    let cost = exp::paper_cost();
    // Classify every query by estimated service time.
    let mut class: HashMap<u64, bool> = HashMap::new(); // true = short
    let mut shorts = 0u64;
    for (_, q) in trace.queries() {
        let est = q.footprint.atom_count() as f64 * cost.atom_read_ms
            + q.positions() as f64 * cost.position_compute_ms;
        let is_short = est <= THRESHOLD_MS;
        shorts += u64::from(is_short);
        class.insert(q.id, is_short);
    }
    println!(
        "classes at {THRESHOLD_MS} ms: {} short / {} long queries",
        shorts,
        trace.query_count() as u64 - shorts
    );
    println!(
        "\n{:<11} {:>9} {:>14} {:>14} {:>13} {:>13}",
        "scheduler", "qps", "short p50 (s)", "short p95 (s)", "long p50 (s)", "long p95 (s)"
    );
    exp::rule();
    for kind in [
        SchedulerKind::NoShare,
        SchedulerKind::CasJobs {
            threshold_ms: THRESHOLD_MS as u32,
        },
        SchedulerKind::LifeRaft2,
        SchedulerKind::Jaws2 { batch_k: 15 },
    ] {
        let mut ex = exp::paper_executor(kind);
        let r = ex.run(&trace);
        let mut short_rt: Vec<f64> = Vec::new();
        let mut long_rt: Vec<f64> = Vec::new();
        for &(qid, rt) in ex.response_log() {
            if class[&qid] {
                short_rt.push(rt);
            } else {
                long_rt.push(rt);
            }
        }
        let ps = Percentiles::from_samples(&mut short_rt);
        let pl = Percentiles::from_samples(&mut long_rt);
        println!(
            "{:<11} {:>9.3} {:>14.1} {:>14.1} {:>13.1} {:>13.1}",
            r.scheduler,
            r.throughput_qps,
            ps.p50 / 1000.0,
            ps.p95 / 1000.0,
            pl.p50 / 1000.0,
            pl.p95 / 1000.0
        );
    }
    exp::rule();
    println!("expected shape: CasJobs protects short p50 but forfeits sharing (low qps,");
    println!("long-class starvation); JAWS keeps short latencies competitive at several");
    println!("times the throughput, with no class threshold at all.");
}
