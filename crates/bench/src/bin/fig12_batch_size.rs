//! Fig. 12 — Performance impact of varying batch size k in JAWS.
//!
//! Paper shape: optimal k between 10 and 15; at k = 1 JAWS still beats
//! LifeRaft₂ thanks to job-awareness; beyond ~20 performance degrades
//! (cache eviction, less contention-conforming order); beyond ~50 the impact
//! is marginal because only above-mean atoms are ever selected.

use jaws_bench::claims::{self, BATCH_KS};
use jaws_bench::exp;
use jaws_sim::{CachePolicyKind, SchedulerKind};

fn main() {
    exp::parse_args("", &[]);
    let trace = exp::paper_trace();
    let mut specs: Vec<_> = BATCH_KS
        .iter()
        .map(|&k| {
            exp::base_spec(
                &format!("k={k}"),
                SchedulerKind::Jaws2 { batch_k: k },
                CachePolicyKind::LruK,
            )
        })
        .collect();
    // LifeRaft_2 reference line (the paper's "even at k = 1, JAWS outperforms
    // LifeRaft_2 due to job-awareness").
    specs.push(exp::base_spec(
        "LifeRaft_2",
        SchedulerKind::LifeRaft2,
        CachePolicyKind::LruK,
    ));
    let runs = claims::Runs::replay(&specs, &trace);

    println!("\nFig. 12 — Performance impact of batch size k (JAWS_2)");
    exp::rule();
    println!(
        "{:<12} {:>9} {:>12} {:>9} {:>9} {:>10}",
        "k", "qps", "mean rt (s)", "reads", "seeks", "cache hit"
    );
    exp::rule();
    for (spec, r) in runs.iter() {
        println!(
            "{:<12} {:>9.3} {:>12.2} {:>9} {:>9} {:>9.1}%",
            spec.label,
            r.throughput_qps,
            r.mean_response_ms / 1000.0,
            r.disk.reads,
            r.disk.seeks,
            r.cache.hit_ratio() * 100.0
        );
    }
    exp::rule();
    claims::print(&claims::fig12(&runs, &BATCH_KS));
}
