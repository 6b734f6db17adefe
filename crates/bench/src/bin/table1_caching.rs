//! Table I — Performance and overhead of caching algorithms.
//!
//! The paper, running JAWS with a 2 GB externally managed cache:
//!
//! | policy | cache hit | seconds/qry | overhead/qry |
//! |--------|-----------|-------------|--------------|
//! | LRU-K  | 47%       | 1.62        | —            |
//! | SLRU   | 49%       | 1.56        | < 1 ms       |
//! | URC    | 54%       | 1.39        | 7 ms         |
//!
//! Exploiting workload knowledge buys URC +7 points of hit ratio and 16%
//! better query performance; SLRU gets a modest +2 points for almost no
//! overhead. Overhead here is *measured wall-clock time inside the policy*,
//! exactly as the paper measures it against its implementation.

use jaws_bench::{claims, exp};
use jaws_sim::{CachePolicyKind, SchedulerKind};

fn main() {
    exp::parse_args("", &[]);
    let trace = exp::paper_trace();
    let specs: Vec<_> = CachePolicyKind::table1_set()
        .iter()
        .map(|&p| exp::base_spec(&format!("{p:?}"), SchedulerKind::Jaws2 { batch_k: 15 }, p))
        .collect();
    let runs = claims::Runs::replay(&specs, &trace);

    println!("\nTable I — Performance and overhead of caching algorithms (JAWS_2)");
    exp::rule();
    println!(
        "{:<8} {:>10} {:>14} {:>14} {:>10} {:>12}",
        "policy", "cache hit", "seconds/qry", "overhead/qry", "qps", "disk reads"
    );
    exp::rule();
    for (_, r) in runs.iter() {
        println!(
            "{:<8} {:>9.1}% {:>14.3} {:>11.3} ms {:>10.3} {:>12}",
            r.cache_policy,
            r.cache.hit_ratio() * 100.0,
            r.seconds_per_query,
            r.cache_overhead_ms_per_query,
            r.throughput_qps,
            r.disk.reads
        );
    }
    exp::rule();
    claims::print(&claims::table1(&runs));
}
