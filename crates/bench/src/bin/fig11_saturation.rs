//! Fig. 11 — Sensitivity of performance to varying workload saturation.
//!
//! Saturation is the arrival-rate *speed-up* of §VI-B: a speed-up of two
//! halves every inter-job gap. Paper shape: (a) JAWS₂ and LifeRaft₂ scale
//! with saturation while NoShare and LifeRaft₁ plateau around 0.3 q/s;
//! (b) response-time gaps stay fairly insensitive — NoShare worst, LifeRaft₂
//! poor even at low saturation (it can delay queries indefinitely), and JAWS
//! trades between the regimes: near LifeRaft₂'s throughput when saturated,
//! beating LifeRaft₁'s response time at the lowest saturation.

use jaws_bench::claims::{self, SPEEDUPS};
use jaws_bench::exp;
use jaws_sim::{CachePolicyKind, SchedulerKind};

fn main() {
    exp::parse_args("", &[]);
    let trace = exp::paper_trace();
    let mut specs = Vec::new();
    for su in SPEEDUPS {
        for kind in SchedulerKind::evaluation_set() {
            let mut s = exp::base_spec(
                &format!("{}@{su}", kind.name()),
                kind,
                CachePolicyKind::LruK,
            );
            s.speedup = su;
            specs.push(s);
        }
    }
    let runs = claims::Runs::replay(&specs, &trace);
    let table = |title: &str, cell: &dyn Fn(&jaws_sim::RunReport) -> String| {
        println!("{title}");
        exp::rule();
        print!("{:<10}", "speed-up");
        for kind in SchedulerKind::evaluation_set() {
            print!(" {:>11}", kind.name());
        }
        println!();
        exp::rule();
        for su in SPEEDUPS {
            print!("{:<10}", su);
            for kind in SchedulerKind::evaluation_set() {
                print!(" {:>11}", cell(runs.get(kind, CachePolicyKind::LruK, su)));
            }
            println!();
        }
    };
    table(
        "\nFig. 11(a) — Query throughput vs workload saturation (q/s)",
        &|r| format!("{:.3}", r.throughput_qps),
    );
    table(
        "\nFig. 11(b) — Mean response time vs workload saturation (s)",
        &|r| format!("{:.2}", r.mean_response_ms / 1000.0),
    );
    exp::rule();
    claims::print(&claims::fig11(&runs));
}
