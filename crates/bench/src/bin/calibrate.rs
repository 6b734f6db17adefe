//! Calibration sweep (not a paper figure): finds the saturation regime where
//! the schedulers' capacity differences are visible as throughput, i.e.
//! offered load sits at or just above JAWS's capacity. Prints throughput,
//! response time, reads and gating diagnostics per (burst-gap, scheduler).
//!
//! Usage: `calibrate [GAP_MS...]` — mean burst gaps to sweep, in ms
//! (default 2000 1200 800). `CALIB_ALL=1` sweeps every scheduler instead of
//! the JAWS gate-timeout ladder.

use jaws_bench::exp;
use jaws_sim::sweep::RunSpec;
use jaws_sim::{run_parallel, CachePolicyKind, SchedulerKind};
use jaws_workload::{GenConfig, TraceGenerator};

fn main() {
    let args = exp::parse_args("[GAP_MS...]", &[]);
    let gaps: Vec<f64> = args
        .operands()
        .iter()
        .map(|a| {
            a.parse()
                .unwrap_or_else(|_| args.fail(&format!("bad burst gap `{a}`")))
        })
        .collect();
    let gaps = if gaps.is_empty() {
        vec![2000.0, 1200.0, 800.0]
    } else {
        gaps
    };
    for gap in gaps {
        let cfg = GenConfig {
            jobs: 1000,
            mean_burst_gap_ms: gap,
            ..GenConfig::paper_like(7)
        };
        let trace = TraceGenerator::new(cfg).generate();
        // The gate timeout of each run; `None` for schedulers that never
        // gate (only JAWS₂ is job-aware).
        let mut kinds = vec![
            (SchedulerKind::Jaws1 { batch_k: 15 }, None),
            (SchedulerKind::Jaws2 { batch_k: 15 }, Some(90_000.0)),
            (SchedulerKind::Jaws2 { batch_k: 15 }, Some(180_000.0)),
            (SchedulerKind::Jaws2 { batch_k: 15 }, Some(360_000.0)),
            (SchedulerKind::Jaws2 { batch_k: 15 }, Some(720_000.0)),
        ];
        if std::env::var("CALIB_ALL").is_ok() {
            kinds = vec![
                (SchedulerKind::NoShare, None),
                (SchedulerKind::LifeRaft1, None),
                (SchedulerKind::LifeRaft2, None),
                (SchedulerKind::Jaws1 { batch_k: 15 }, None),
                (SchedulerKind::Jaws2 { batch_k: 15 }, Some(20_000.0)),
            ];
        }
        let specs: Vec<RunSpec> = kinds
            .iter()
            .map(|&(k, gate)| {
                let base = exp::base_spec(k.name(), k, CachePolicyKind::LruK);
                RunSpec {
                    gate_timeout_ms: gate.unwrap_or(base.gate_timeout_ms),
                    ..base
                }
            })
            .collect();
        println!(
            "\n== burst gap {gap} ms: {} queries over {:.2} h of arrivals ==",
            trace.query_count(),
            (trace.jobs.last().unwrap().arrival_ms - trace.jobs[0].arrival_ms) / 3.6e6
        );
        for ((spec, r), &(_, gate)) in run_parallel(&specs, &trace).iter().zip(&kinds) {
            let gate = gate.map_or("-".to_string(), |g: f64| format!("{g:.0}"));
            println!(
                "{:<11} gate {:>6}  qps {:>6.3}  rt {:>8.1}s  mkspan {:>5.2}h  reads {:>6}  hit {:>5.1}%  forced {:>4}  alpha {:.2}",
                spec.label,
                gate,
                r.throughput_qps,
                r.mean_response_ms / 1000.0,
                r.makespan_ms / 3.6e6,
                r.disk.reads,
                r.cache.hit_ratio() * 100.0,
                r.scheduler_stats.forced_releases,
                r.alpha_final
            );
        }
    }
}
