//! Explains a JSONL observability trace (tentpole tooling for `jaws-obs`).
//!
//! Reads a trace produced by wiring a [`jaws_obs::JsonlRecorder`] into an
//! executor (e.g. `jaws_bench::exp::traced_run`, as the `scenarios` test
//! does) and prints:
//!
//! * a per-query latency breakdown — queue wait vs. charged service vs. the
//!   I/O share of that service — reconstructed from `QuerySubmit`,
//!   `BatchExecuted` and `QueryComplete` events;
//! * "why chosen" explanations for a sample of `BatchSelected` records: the
//!   timestep, the α/threshold in force, and each chosen atom's Eq. 1
//!   (workload throughput) and Eq. 2 (aged utility) terms;
//! * aggregate means plus cache/prefetch counters;
//! * a failure-recovery section when the run carried a scripted
//!   [`jaws_sim::FailurePlan`]: each crash with its survivor and re-dispatch
//!   volume, each straggler with its factor, and how many distinct queries
//!   had a part moved;
//! * a dynamic-placement section when the run replicated hot atoms
//!   ([`jaws_sim::ReplicationConfig`]): promotions/demotions/crash drops,
//!   how many sub-queries were diverted to replicas, and the hottest
//!   replicated Morton keys by diverted volume.
//!
//! Batch-level costs are split evenly over the parts completing in the batch
//! and folded onto the original trace query id via
//! [`jaws_sim::engine::orig_id`], so cluster traces (packed part ids) and
//! single-node traces (raw query ids) both work.
//!
//! Usage: `trace_explain <trace.jsonl> [--queries=N] [--batches=N]`

use jaws_bench::exp;
use jaws_obs::{Event, Record};
use jaws_sim::engine;
use std::collections::BTreeMap;

#[derive(Default)]
struct QueryStat {
    submit_ms: Option<f64>,
    service_ms: f64,
    io_ms: f64,
    response_ms: Option<f64>,
}

struct Crash {
    t_ms: f64,
    node: u32,
    survivor: u32,
    redispatched: u64,
}

struct Slowdown {
    t_ms: f64,
    node: u32,
    factor: f64,
}

struct Selection {
    t_ms: f64,
    node: Option<u32>,
    timestep: u32,
    alpha: f64,
    threshold: f64,
    atoms: Vec<jaws_obs::AtomChoice>,
}

const QUERIES: exp::Flag = exp::Flag {
    name: "--queries",
    value: Some("N"),
    help: "explain the first N queries (default 20)",
};

const BATCHES: exp::Flag = exp::Flag {
    name: "--batches",
    value: Some("N"),
    help: "explain the first N batch selections (default 5)",
};

fn main() {
    let args = exp::parse_args("<trace.jsonl>", &[QUERIES, BATCHES]);
    let [path] = args.operands() else {
        args.fail("expected exactly one trace path")
    };
    let max_queries = args.parsed("--queries").unwrap_or(20);
    let max_batches = args.parsed("--batches").unwrap_or(5);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));

    let mut queries: BTreeMap<u64, QueryStat> = BTreeMap::new();
    let mut selections: Vec<Selection> = Vec::new();
    let mut batches = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut prefetches = 0u64;
    let mut evictions = 0u64;
    let mut records = 0u64;
    let mut crashes: Vec<Crash> = Vec::new();
    let mut slowdowns: Vec<Slowdown> = Vec::new();
    let mut moved_parts = 0u64;
    let mut moved_queries: std::collections::BTreeSet<u64> = Default::default();
    let mut promotions = 0u64;
    let mut demotions = 0u64;
    let mut crash_drops = 0u64;
    let mut routed_by_atom: BTreeMap<u64, u64> = BTreeMap::new();

    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rec: Record = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("malformed trace record: {e}\n  {line}"));
        records += 1;
        match rec.event {
            Event::QuerySubmit { query, .. } => {
                queries.entry(query).or_default().submit_ms = Some(rec.t_ms);
            }
            Event::BatchExecuted {
                parts,
                service_ms,
                io_ms,
                ..
            } => {
                batches += 1;
                let share = parts.len().max(1) as f64;
                for part in parts {
                    let q = queries.entry(engine::orig_id(part)).or_default();
                    q.service_ms += service_ms / share;
                    q.io_ms += io_ms / share;
                }
            }
            Event::QueryComplete { query, response_ms } => {
                queries.entry(query).or_default().response_ms = Some(response_ms);
            }
            Event::BatchSelected {
                timestep,
                alpha,
                threshold,
                atoms,
            } => selections.push(Selection {
                t_ms: rec.t_ms,
                node: rec.node,
                timestep,
                alpha,
                threshold,
                atoms,
            }),
            Event::AtomRead { hit, .. } => {
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            Event::PrefetchIssued { .. } => prefetches += 1,
            Event::CacheEvict { .. } => evictions += 1,
            Event::NodeFailed {
                node,
                survivor,
                redispatched,
            } => crashes.push(Crash {
                t_ms: rec.t_ms,
                node,
                survivor,
                redispatched,
            }),
            Event::PartRedispatched { part, .. } => {
                moved_parts += 1;
                moved_queries.insert(engine::orig_id(part));
            }
            Event::NodeSlowdown { node, factor } => slowdowns.push(Slowdown {
                t_ms: rec.t_ms,
                node,
                factor,
            }),
            Event::ReplicaPromoted { .. } => promotions += 1,
            Event::ReplicaDropped { crashed, .. } => {
                if crashed {
                    crash_drops += 1;
                } else {
                    demotions += 1;
                }
            }
            Event::ReplicaRouted { morton, .. } => {
                *routed_by_atom.entry(morton).or_default() += 1;
            }
            _ => {}
        }
    }

    let completed: Vec<(u64, &QueryStat)> = queries
        .iter()
        .filter(|(_, s)| s.response_ms.is_some())
        .map(|(&id, s)| (id, s))
        .collect();

    println!(
        "trace {path}: {records} records, {} queries ({} completed), {batches} batches",
        queries.len(),
        completed.len()
    );

    println!("\nPer-query latency breakdown (first {max_queries} by id)");
    println!(
        "{:>8} {:>12} {:>13} {:>13} {:>12} {:>10}",
        "query", "submit (ms)", "response (ms)", "wait (ms)", "service (ms)", "io (ms)"
    );
    for (id, s) in completed.iter().take(max_queries) {
        // Safe: `completed` filters on response_ms.is_some().
        let response = s.response_ms.expect("filtered on response");
        let wait = (response - s.service_ms).max(0.0);
        println!(
            "{id:>8} {:>12.1} {response:>13.1} {wait:>13.1} {:>12.1} {:>10.1}",
            s.submit_ms.unwrap_or(f64::NAN),
            s.service_ms,
            s.io_ms
        );
    }

    if !selections.is_empty() {
        println!(
            "\nBatch selections — why chosen (first {max_batches} of {})",
            selections.len()
        );
        for sel in selections.iter().take(max_batches) {
            let node = sel.node.map_or(String::new(), |n| format!(" node={n}"));
            println!(
                "  t={:.1}{node} ts={} alpha={:.3} threshold={:.4}: {} atoms",
                sel.t_ms,
                sel.timestep,
                sel.alpha,
                sel.threshold,
                sel.atoms.len()
            );
            for a in sel.atoms.iter().take(4) {
                println!(
                    "    morton={:<6} eq1={:<10.4} aged={:.4}{}",
                    a.morton,
                    a.eq1,
                    a.aged,
                    if a.aged >= sel.threshold {
                        "  (>= threshold)"
                    } else {
                        "  (rode along with the batch timestep)"
                    }
                );
            }
        }
    }

    if !completed.is_empty() {
        let n = completed.len() as f64;
        let mean =
            |f: &dyn Fn(&QueryStat) -> f64| completed.iter().map(|(_, s)| f(s)).sum::<f64>() / n;
        let mean_resp = mean(&|s| s.response_ms.unwrap_or(0.0));
        let mean_service = mean(&|s| s.service_ms);
        let mean_io = mean(&|s| s.io_ms);
        println!("\nAggregates over {} completed queries", completed.len());
        println!(
            "  mean response {mean_resp:.1} ms = queue wait {:.1} ms + service {mean_service:.1} ms \
             (of which I/O {mean_io:.1} ms)",
            (mean_resp - mean_service).max(0.0)
        );
    }
    let reads = hits + misses;
    if reads > 0 {
        println!(
            "  atom reads {reads} (cache hit {:.1}%), prefetches {prefetches}, evictions {evictions}",
            100.0 * hits as f64 / reads as f64
        );
    }

    if !crashes.is_empty() || !slowdowns.is_empty() {
        println!("\nFailure recovery");
        for c in &crashes {
            println!(
                "  t={:.1}: node {} crashed; node {} inherited its slab and {} queued/in-flight \
                 part(s)",
                c.t_ms, c.node, c.survivor, c.redispatched
            );
        }
        for s in &slowdowns {
            println!(
                "  t={:.1}: node {} degraded to a {:.1}x straggler",
                s.t_ms, s.node, s.factor
            );
        }
        if moved_parts > 0 {
            println!(
                "  {} part(s) across {} distinct quer{} were re-dispatched through survivors",
                moved_parts,
                moved_queries.len(),
                if moved_queries.len() == 1 { "y" } else { "ies" }
            );
        }
    }

    if promotions + demotions + crash_drops > 0 || !routed_by_atom.is_empty() {
        let diverted: u64 = routed_by_atom.values().sum();
        println!("\nDynamic placement");
        println!(
            "  {promotions} promotion(s), {demotions} demotion(s), {crash_drops} crash drop(s); \
             {diverted} sub-quer{} diverted to replicas",
            if diverted == 1 { "y" } else { "ies" }
        );
        let mut hottest: Vec<(u64, u64)> = routed_by_atom.into_iter().collect();
        hottest.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (morton, count) in hottest.iter().take(5) {
            println!("  morton={morton:<6} {count} diverted sub-queries");
        }
    }
}
