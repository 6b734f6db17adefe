//! Cluster scale-out (§V-C / Fig. 7 deployment; not a paper figure).
//!
//! The production Turbulence cluster partitions the 27 TB archive spatially
//! across nodes, "each running a separate JAWS instance". This experiment
//! replays the evaluation trace on 1–8 such nodes — with trajectory
//! prefetching off and on, now that the unified engine drives the cluster —
//! and reports aggregate throughput, per-query latency, prefetch volume and
//! load imbalance: the scalability story behind the deployment choice.
//!
//! Flags:
//! * `--smoke`  — tiny geometry and trace (CI exercise of the multi-node
//!   path), 1/2/4 nodes only;
//! * `--cap-ms=<float>` — simulated-time cap per run (`max_sim_ms`),
//!   demonstrating cluster truncation;
//! * `--trace-out=<path>` — record the last configuration's run through a
//!   [`jaws_obs::JsonlRecorder`] and write the JSONL trace there (feed it to
//!   `trace_explain`).

use jaws_bench::exp;
use jaws_sim::{ClusterConfig, ClusterExecutor, SimConfig};

const CAP_MS: exp::Flag = exp::Flag {
    name: "--cap-ms",
    value: Some("MS"),
    help: "simulated-time cap per run",
};

fn main() {
    let args = exp::parse_args("", &[exp::SMOKE, CAP_MS, exp::TRACE_OUT]);
    let smoke = args.has("--smoke");
    let (trace, db, node_counts): (_, _, &[u32]) = if smoke {
        eprintln!("# --smoke: tiny geometry, 1/2/4 nodes");
        (exp::smoke_trace(), exp::smoke_db(), &[1, 2, 4])
    } else {
        (exp::paper_trace(), exp::paper_db(), &[1, 2, 4, 8])
    };
    let max_sim_ms = args.parsed("--cap-ms").unwrap_or(1e10);
    println!("\nCluster scale-out — JAWS_2 per node, Morton-slab partitioning");
    exp::rule();
    println!(
        "{:<7} {:<9} {:>9} {:>12} {:>10} {:>10} {:>10} {:>11} {:>9}",
        "nodes",
        "prefetch",
        "qps",
        "mean rt (s)",
        "reads",
        "prefetches",
        "cache hit",
        "imbalance",
        "speedup"
    );
    exp::rule();
    let trace_path = args.value("--trace-out");
    let mut last_trace: Option<String> = None;
    let mut base_qps = None;
    for &nodes in node_counts {
        for prefetch in [false, true] {
            let cfg = ClusterConfig {
                sim: SimConfig {
                    prefetch,
                    max_sim_ms,
                    ..SimConfig::default()
                },
                ..exp::paper_cluster(db, nodes)
            };
            let r = if trace_path.is_some() {
                let (r, jsonl) = exp::traced_run(cfg, &trace);
                last_trace = Some(jsonl);
                r
            } else {
                ClusterExecutor::new(cfg).run(&trace)
            };
            let base = *base_qps.get_or_insert(r.aggregate.throughput_qps);
            println!(
                "{:<7} {:<9} {:>9.3} {:>12.1} {:>10} {:>10} {:>9.1}% {:>10.2}x {:>8.2}x{}",
                nodes,
                if prefetch { "on" } else { "off" },
                r.aggregate.throughput_qps,
                r.aggregate.mean_response_ms / 1000.0,
                r.aggregate.disk.reads,
                r.prefetch_reads(),
                r.aggregate.cache.hit_ratio() * 100.0,
                r.imbalance(),
                r.aggregate.throughput_qps / base,
                if r.aggregate.truncated {
                    "  [TRUNCATED]"
                } else {
                    ""
                }
            );
        }
    }
    exp::rule();
    println!(
        "cache is split across nodes (total stays at {} atoms ≙ 2 GB); speedup is vs the \
         1-node prefetch-off row.",
        exp::CACHE_ATOMS
    );
    if let (Some(path), Some(jsonl)) = (trace_path, last_trace) {
        std::fs::write(path, jsonl).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote observability trace of the last run to {path}");
    }
}
