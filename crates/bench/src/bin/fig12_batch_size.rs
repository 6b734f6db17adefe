//! Fig. 12 — Performance impact of varying batch size k in JAWS.
//!
//! Paper shape: optimal k between 10 and 15; at k = 1 JAWS still beats
//! LifeRaft₂ thanks to job-awareness; beyond ~20 performance degrades
//! (cache eviction, less contention-conforming order); beyond ~50 the impact
//! is marginal because only above-mean atoms are ever selected.

use jaws_bench::exp;
use jaws_sim::{run_parallel, CachePolicyKind, SchedulerKind};

fn main() {
    let quick = exp::parse_args("", &[exp::QUICK]).has("--quick");
    let trace = exp::select_trace(quick);
    let ks: &[usize] = if quick {
        &[1, 10, 30]
    } else {
        &[1, 2, 5, 10, 15, 20, 30, 50, 75, 100]
    };
    let mut specs: Vec<_> = ks
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
    let results = run_parallel(&specs, &trace);

    println!("\nFig. 12 — Performance impact of batch size k (JAWS_2)");
    exp::rule();
    println!(
        "{:<12} {:>9} {:>12} {:>9} {:>9} {:>10}",
        "k", "qps", "mean rt (s)", "reads", "seeks", "cache hit"
    );
    exp::rule();
    for (spec, r) in &results {
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
    let qps: Vec<f64> = results.iter().map(|(_, r)| r.throughput_qps).collect();
    let lr2 = qps[qps.len() - 1];
    let best = qps[..qps.len() - 1]
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max);
    let best_k = ks[qps[..qps.len() - 1]
        .iter()
        .position(|&q| q == best)
        .unwrap_or(0)];
    println!("best k measured: {best_k} (paper: 10-15)");
    println!(
        "JAWS at k=1 vs LifeRaft_2: {:.2}x (paper: >1 due to job-awareness)",
        qps[0] / lr2
    );
}
