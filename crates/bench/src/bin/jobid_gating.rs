//! Job identification feeding the scheduler (§IV-A; not a paper figure).
//!
//! In production JAWS never sees job boundaries: it reconstructs them from
//! the flat SQL log ("heuristic, but highly accurate in practice") and gates
//! on the reconstruction. This experiment quantifies what that heuristic is
//! worth: JAWS₂ driven by (a) ground-truth job declarations, (b) jobs
//! identified from the submission log, and (c) no job structure at all
//! (JAWS₁), all replaying the identical trace.

use jaws_bench::exp;
use jaws_sim::SchedulerKind;
use jaws_workload::jobid::reconstruct_jobs;
use jaws_workload::{identify_jobs, JobIdConfig, JobIdEvaluation, SubmitRecord};

fn main() {
    exp::parse_args("", &[]);
    let trace = exp::paper_trace();
    let cost = exp::paper_cost();
    let log = SubmitRecord::log_from_trace(&trace, cost.atom_read_ms, cost.position_compute_ms);
    let assignment = identify_jobs(&log, JobIdConfig::default());
    let eval = JobIdEvaluation::score(&log, &assignment);
    let identified = reconstruct_jobs(&trace, &log, &assignment);
    println!(
        "identification: {} predicted jobs (true {}), job F1 {:.1}%, campaign precision {:.1}%",
        identified.len(),
        trace.jobs.len(),
        eval.f1 * 100.0,
        eval.campaign_precision * 100.0
    );

    let run = |label: &str, kind: SchedulerKind, declared: Option<Vec<jaws_workload::Job>>| {
        let mut ex = exp::paper_executor(kind);
        if let Some(jobs) = declared {
            ex.declare_jobs(jobs);
        }
        let r = ex.run(&trace);
        println!(
            "{:<22} qps {:>6.3}  rt {:>7.1}s  reads {:>6}  forced {:>4}",
            label,
            r.throughput_qps,
            r.mean_response_ms / 1000.0,
            r.disk.reads,
            r.scheduler_stats.forced_releases
        );
        r.throughput_qps
    };

    println!();
    let none = run(
        "JAWS_1 (no jobs)",
        SchedulerKind::Jaws1 { batch_k: 15 },
        None,
    );
    let ident = run(
        "JAWS_2 (identified)",
        SchedulerKind::Jaws2 { batch_k: 15 },
        Some(identified),
    );
    let truth = run(
        "JAWS_2 (declared)",
        SchedulerKind::Jaws2 { batch_k: 15 },
        None,
    );
    exp::rule();
    println!(
        "job-awareness from the log recovers {:.0}% of the declared-structure gain",
        if truth > none {
            (ident - none) / (truth - none) * 100.0
        } else {
            0.0
        }
    );
}
