//! Fig. 9 — Distribution of queries by timestep accessed.
//!
//! The paper: "70% of queries reuse data from a dozen time steps that are
//! mostly clustered at the start and end of simulation time", a secondary
//! spike mid-range, and a downward access trend from jobs that terminate
//! midway.

use jaws_bench::exp;
use jaws_workload::stats::{timestep_histogram, top_atom_share, top_timestep_share};

fn main() {
    exp::parse_args("", &[]);
    let trace = exp::paper_trace();
    let hist = timestep_histogram(&trace);
    let total: u64 = hist.iter().sum();
    let peak = *hist.iter().max().expect("non-empty") as f64;

    println!("\nFig. 9 — Distribution of queries by timestep accessed");
    exp::rule();
    println!(
        "{:>8} {:>9} {:>9}  access frequency",
        "timestep", "queries", "share"
    );
    exp::rule();
    for (t, &n) in hist.iter().enumerate() {
        let bar = "#".repeat(((n as f64 / peak) * 60.0).round() as usize);
        println!(
            "{:>8} {:>9} {:>8.1}%  {}",
            t,
            n,
            n as f64 / total as f64 * 100.0,
            bar
        );
    }
    exp::rule();
    println!(
        "share of queries in the top 12 timesteps: paper ~70%, measured {:.0}%",
        top_timestep_share(&trace, 12) * 100.0
    );
    let single = jaws_workload::stats::single_timestep_job_share(&trace);
    println!(
        "jobs touching a single timestep: paper 88%, measured {:.0}%",
        single * 100.0
    );
    println!(
        "spatial reuse (top 5% of atoms): {:.0}% of positions — \"similar reuse along the\"",
        top_atom_share(&trace, 4096 / 20) * 100.0
    );
    println!("\"spatial dimension, although the skew is less pronounced\" (§VI-A)");
}
