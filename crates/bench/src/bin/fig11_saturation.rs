//! Fig. 11 — Sensitivity of performance to varying workload saturation.
//!
//! Saturation is the arrival-rate *speed-up* of §VI-B: a speed-up of two
//! halves every inter-job gap. Paper shape: (a) JAWS₂ and LifeRaft₂ scale
//! with saturation while NoShare and LifeRaft₁ plateau around 0.3 q/s;
//! (b) response-time gaps stay fairly insensitive — NoShare worst, LifeRaft₂
//! poor even at low saturation (it can delay queries indefinitely), and JAWS
//! trades between the regimes: near LifeRaft₂'s throughput when saturated,
//! beating LifeRaft₁'s response time at the lowest saturation.

use jaws_bench::exp;
use jaws_sim::{run_parallel, CachePolicyKind, SchedulerKind};

fn main() {
    let quick = exp::parse_args("", &[exp::QUICK]).has("--quick");
    let trace = exp::select_trace(quick);
    let speedups: &[f64] = if quick {
        &[0.25, 1.0, 4.0]
    } else {
        &[0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    };
    let mut specs = Vec::new();
    for &su in speedups {
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
    let results = run_parallel(&specs, &trace);

    println!("\nFig. 11(a) — Query throughput vs workload saturation (q/s)");
    exp::rule();
    print!("{:<10}", "speed-up");
    for kind in SchedulerKind::evaluation_set() {
        print!(" {:>11}", kind.name());
    }
    println!();
    exp::rule();
    let mut idx = 0;
    let mut tp: Vec<Vec<f64>> = Vec::new();
    let mut rt: Vec<Vec<f64>> = Vec::new();
    for &su in speedups {
        print!("{:<10}", su);
        let mut tp_row = Vec::new();
        let mut rt_row = Vec::new();
        for _ in 0..5 {
            let (_, r) = &results[idx];
            idx += 1;
            print!(" {:>11.3}", r.throughput_qps);
            tp_row.push(r.throughput_qps);
            rt_row.push(r.mean_response_ms / 1000.0);
        }
        println!();
        tp.push(tp_row);
        rt.push(rt_row);
    }

    println!("\nFig. 11(b) — Mean response time vs workload saturation (s)");
    exp::rule();
    print!("{:<10}", "speed-up");
    for kind in SchedulerKind::evaluation_set() {
        print!(" {:>11}", kind.name());
    }
    println!();
    exp::rule();
    for (i, &su) in speedups.iter().enumerate() {
        print!("{:<10}", su);
        for v in &rt[i] {
            print!(" {:>11.2}", v);
        }
        println!();
    }

    exp::rule();
    println!("paper shape checks (indices: 0 NoShare, 1 LR1, 2 LR2, 3 JAWS1, 4 JAWS2):");
    let last = tp.len() - 1;
    println!(
        "  NoShare plateaus: tp(max speed-up)/tp(speed-up 1) = {:.2} (paper: ~1, plateau ~0.3 q/s)",
        tp[last][0] / tp[speedups.iter().position(|&s| s == 1.0).unwrap_or(0)][0]
    );
    println!(
        "  JAWS_2 scales:    tp(max)/tp(min) = {:.2} (paper: keeps rising)",
        tp[last][4] / tp[0][4]
    );
    println!(
        "  low saturation:   JAWS_2 rt {:.1}s vs LifeRaft_2 rt {:.1}s (paper: JAWS much lower)",
        rt[0][4], rt[0][2]
    );
    println!(
        "  high saturation:  JAWS_2 tp {:.2} vs LifeRaft_2 tp {:.2} q/s (paper: comparable-or-better)",
        tp[last][4], tp[last][2]
    );
}
