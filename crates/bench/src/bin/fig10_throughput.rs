//! Fig. 10 — Query throughput by scheduling algorithm.
//!
//! The paper reports, on the 50k-query trace: JAWS₂ ≈ 2.6× NoShare; removing
//! job-awareness (JAWS₂ → JAWS₁) costs ~30%; two-level scheduling
//! (JAWS₁ vs LifeRaft₂) is worth ~12%; contention vs arrival order
//! (LifeRaft₂ vs LifeRaft₁) is worth ~22%.

use jaws_bench::{claims, exp};
use jaws_sim::{CachePolicyKind, SchedulerKind};

fn main() {
    exp::parse_args("", &[]);
    let trace = exp::paper_trace();
    let specs: Vec<_> = SchedulerKind::evaluation_set()
        .iter()
        .map(|&k| exp::base_spec(k.name(), k, CachePolicyKind::LruK))
        .collect();
    let runs = claims::Runs::replay(&specs, &trace);

    println!("\nFig. 10 — Query throughput by scheduling algorithm");
    exp::rule();
    println!(
        "{:<11} {:>9} {:>12} {:>10} {:>8} {:>8} {:>8} {:>9} {:>8} {:>6}",
        "scheduler",
        "qps",
        "mean rt (s)",
        "mkspan(h)",
        "reads",
        "seeks",
        "batches",
        "cache hit",
        "forced",
        "alpha"
    );
    exp::rule();
    for (_, r) in runs.iter() {
        println!(
            "{:<11} {:>9.3} {:>12.2} {:>10.2} {:>8} {:>8} {:>8} {:>8.1}% {:>8} {:>6.2}{}",
            r.scheduler,
            r.throughput_qps,
            r.mean_response_ms / 1000.0,
            r.makespan_ms / 3.6e6,
            r.disk.reads,
            r.disk.seeks,
            r.scheduler_stats.batches,
            r.cache.hit_ratio() * 100.0,
            r.scheduler_stats.forced_releases,
            r.alpha_final,
            if r.truncated { "  [TRUNCATED]" } else { "" }
        );
    }
    exp::rule();
    claims::print(&claims::fig10(&runs));
}
