//! `perfbench`: the seeded benchmark of the JAWS simulator.
//!
//! One process measures one workload (`--workload all` runs each in a child
//! process of its own, so peak RSS stays per workload). An untraced run
//! replays seeded variants of the workload's trace, each from a fresh
//! set-up, until `--seconds` have passed, and reports end-to-end metrics:
//! host cost (wall clock, memory, allocations) and simulated behaviour
//! (prefixed `sim_`), never one named as the other. A traced run replays one
//! variant once per probe — timing decorators around the scheduler and
//! cache, a recording observability sink, two workers, virtual data — and
//! reports per-layer metrics. Every replay is checked: each trace query
//! completes exactly once, no run is truncated, and every replay of a
//! variant yields the same masked report.

mod layers;
mod workloads;

use jaws_bench::{alloc_counter, exp};
use jaws_sim::{Percentiles, RunReport};
use jaws_turbdb::DataMode;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{replay, set_up, ClusterExtras, Mode, Outcome, Ready, Spec, Workload};

/// Every heap acquisition is counted, so `allocs_per_query` is measured.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

const USAGE: &str = "\
usage: perfbench --workload <name|all> [--seed <n>] [--seconds <n>] [--trace <0|1>]

Replays one seeded workload of the JAWS simulator, prints each metric with
its unit, then a JSON summary as the last line of standard output. The
summary and the masked-report digest are also stored under results/.

  --workload  paper_jaws2_urc | synth_anchor | cluster_skew_crash | all
              (all: each workload in a process of its own)
  --seed      run seed: draws the trace's arrival jitter (default 20090720)
  --seconds   how long an untraced run keeps replaying (default 10)
  --trace     0: end-to-end metrics (default); 1: per-layer metrics
  --help      print this text

Exit status: 0 ok, 1 a correctness check failed, 2 bad arguments.";

/// Fewest replays of each timed variant in an untraced run, however long
/// each one takes.
const MIN_TIMED_REPLAYS: usize = 2;

/// Set-ups timed back to back before each timed replay.
const SETUP_BURST: usize = 3;

/// `jaws-par` workers of every measured replay. On a 2-CPU host the parallel
/// sections were no faster than serial ones (`par.speedup` 0.88–1.04), and
/// at two workers the replay-time spread of `synth_anchor` over ten seeds
/// was 24 %, against 8–13 % at one.
const WORKERS: usize = 1;

/// Most workers the `par.speedup` probe compares one worker against.
const MAX_PAR_WORKERS: usize = 2;

#[derive(Debug)]
struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        let value = argv.next().ok_or(format!("`{flag}` needs a value"))?;
        if slot.replace(value).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let workload = match workload.as_deref() {
        None => return Err("`--workload` is required".to_string()),
        Some("all") => None,
        Some(name) => Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?),
    };
    let number = |flag: &str, value: Option<String>, default: u64| match value {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("`{flag}` takes a whole number, got `{v}`")),
    };
    let seed = number("--seed", seed, exp::TRACE_SEED)?;
    let seconds = number("--seconds", seconds, 10)?;
    if seconds == 0 {
        return Err("`--seconds` must be at least 1".to_string());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("`--trace` takes 0 or 1, got `{v}`")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// A run's verdict and its metrics as `(name, value, unit)`.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: String,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Workers of the `par.speedup` probe: as many as the host has, up to
/// [`MAX_PAR_WORKERS`].
fn par_workers() -> usize {
    jaws_par::hardware_parallelism().min(MAX_PAR_WORKERS)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn percentiles_us(samples_ns: &[u64]) -> Percentiles {
    let mut us: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    Percentiles::from_samples(&mut us)
}

/// Peak resident set size of this process (Linux `ru_maxrss`), in MiB.
#[cfg(target_os = "linux")]
fn peak_rss_mb() -> f64 {
    /// `struct rusage` on LP64 Linux: two `timeval`s, then fourteen `long`s
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // declared above, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss_kib as f64 / 1024.0
}

/// What an untraced run keeps of its replays, and the run's verdict.
struct Tally {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Queries per second of the run's fastest replay. The host's speed
    /// drifts over tens of seconds and only ever slows a replay down, so the
    /// fastest replay of any variant is the steadiest figure.
    best_qps: f64,
    /// Fastest median set-up time of a burst, for the same reason.
    best_setup_s: f64,
    timed_replays: Vec<usize>,
    allocs_per_query: Vec<f64>,
}

impl Tally {
    fn new(timed: usize) -> Self {
        Tally {
            correct: true,
            attempted: 0,
            failed: 0,
            best_qps: 0.0,
            best_setup_s: f64::INFINITY,
            timed_replays: vec![0; timed],
            allocs_per_query: Vec::new(),
        }
    }

    fn check(&mut self, out: &Outcome) {
        self.correct &= out.correct();
        self.attempted += out.attempted;
        self.failed += out.failed;
    }

    fn time(&mut self, i: usize, out: &Outcome) {
        let queries = out.report.queries_completed as f64;
        self.best_qps = self.best_qps.max(queries / out.wall_s);
        self.timed_replays[i] += 1;
        self.allocs_per_query
            .push(out.allocs as f64 / queries.max(1.0));
    }
}

/// Sets `spec` up [`SETUP_BURST`] times back to back and returns the last
/// set-up with the burst's median set-up time. Each of the others is dropped,
/// untimed, before the next one starts, so the burst adds nothing to peak
/// memory.
fn set_up_burst(spec: &Spec) -> (Ready, f64) {
    let mut times = Vec::with_capacity(SETUP_BURST);
    loop {
        let ready = set_up(spec, Mode::default());
        times.push(ready.setup_s);
        if times.len() == SETUP_BURST {
            return (ready, median(&times));
        }
    }
}

/// The untraced run, in two phases.
///
/// 1. Behaviour: one replay of each of the workload's jittered trace
///    variants; the simulated metrics are medians over them. A workload on
///    synthesized data replays them on virtual data, which yields the same
///    masked report at a fraction of the cost.
/// 2. Cost: the first few variants, replayed in turn in the workload's own
///    data mode until `seconds` have passed and each ran at least
///    [`MIN_TIMED_REPLAYS`] times, each from a [`set_up_burst`]. Each replay
///    must reproduce its variant's masked report. `replay_qps` is that of
///    the fastest timed replay and `setup_s` the fastest burst median.
fn untraced(workload: Workload, spec: &Spec, seconds: f64) -> Measured {
    let start = Instant::now();
    let (n_behaviour, n_timed) = workload.variants();
    let variants: Vec<Spec> = (0..n_behaviour).map(|i| spec.variant(i)).collect();
    let synthetic = spec.data == DataMode::Synthetic;
    let mut t = Tally::new(n_timed);
    let mut behaviour: Vec<Outcome> = Vec::new();
    for (i, v) in variants.iter().enumerate() {
        let mode = Mode {
            virtual_data: synthetic,
            ..Mode::default()
        };
        let out = replay(set_up(v, mode));
        t.check(&out);
        if !synthetic && i < n_timed {
            t.time(i, &out);
        }
        behaviour.push(out);
    }
    let mut next = 0;
    while t.timed_replays.iter().any(|&n| n < MIN_TIMED_REPLAYS)
        || start.elapsed().as_secs_f64() < seconds
    {
        let i = next % n_timed;
        next += 1;
        let (ready, setup_s) = set_up_burst(&variants[i]);
        t.best_setup_s = t.best_setup_s.min(setup_s);
        let out = replay(ready);
        t.check(&out);
        if out.masked != behaviour[i].masked {
            eprintln!("perfbench: a replay of variant {i} changed its masked report");
            t.correct = false;
        }
        t.time(i, &out);
    }
    eprintln!(
        "# {} timed replays in {:.1} s",
        t.timed_replays.iter().sum::<usize>(),
        start.elapsed().as_secs_f64()
    );
    let sim = |f: fn(&RunReport) -> f64| {
        median(&behaviour.iter().map(|o| f(&o.report)).collect::<Vec<_>>())
    };
    let masked: String = behaviour.iter().map(|o| o.masked.as_str()).collect();
    Measured {
        correct: t.correct,
        attempted: t.attempted,
        failed: t.failed,
        digest: workloads::digest(&masked),
        metrics: vec![
            ("replay_qps", t.best_qps, "1/s"),
            ("setup_s", t.best_setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            (
                "allocs_per_query",
                median(&t.allocs_per_query),
                "allocs/query",
            ),
            ("sim_throughput_qps", sim(|r| r.throughput_qps), "1/s"),
            ("sim_response_p50_s", sim(|r| r.response.p50 / 1e3), "s"),
            ("sim_response_p95_s", sim(|r| r.response.p95 / 1e3), "s"),
            ("sim_cache_hit_ratio", sim(|r| r.cache.hit_ratio()), "ratio"),
        ],
    }
}

/// The traced run: one replay per probe on the same inputs (variant 0).
/// Probes must not move the masked report; their wall-clock ratios to the
/// unprobed replay are the probes' own overheads.
fn traced(spec: &Spec) -> Measured {
    let spec = &spec.variant(0);
    let ready = set_up(spec, Mode::default());
    let (generate_s, open_s) = (ready.generate_s, ready.open_s);
    let plain = replay(ready);
    // On synthesized data the probed replay runs on virtual data, so its
    // wall holds scheduler, cache and engine time but no synthesis.
    let synthetic = spec.data == DataMode::Synthetic;
    let virt = synthetic.then(|| {
        replay(set_up(
            spec,
            Mode {
                virtual_data: true,
                ..Mode::default()
            },
        ))
    });
    let probed = replay(set_up(
        spec,
        Mode {
            probes: true,
            virtual_data: synthetic,
            ..Mode::default()
        },
    ));
    let recorded = replay(set_up(
        spec,
        Mode {
            record_obs: true,
            ..Mode::default()
        },
    ));
    let parallel = {
        let _many = jaws_par::override_threads(par_workers());
        replay(set_up(spec, Mode::default()))
    };

    let mut correct = plain.correct();
    let others = [
        ("probed", &probed),
        ("recorded", &recorded),
        ("parallel", &parallel),
    ];
    for (label, out) in others
        .into_iter()
        .chain(virt.iter().map(|v| ("virtual-data", v)))
    {
        correct &= out.correct();
        if out.masked != plain.masked {
            eprintln!("perfbench: the {label} replay changed the masked report");
            correct = false;
        }
    }

    let queries = plain.report.queries_completed.max(1) as f64;
    let r = &probed.report;
    let stats = r.scheduler_stats;
    // The cluster takes no probes, so its probed replay is a plain one.
    let probes_attached = probed.sched.is_some();
    let s = probed.sched.unwrap_or_default();
    let next_batch = percentiles_us(&s.next_batch_ns);
    let sched_busy_s = s.busy_ns() as f64 / 1e9;
    // The cluster builds its per-node policies itself: there the cache cost
    // is the buffer pools' own policy timing, and victim choices are the
    // evictions.
    let (cache_busy_s, victim_calls, victim) = match &probed.cache {
        Some(c) => (
            c.busy_ns() as f64 / 1e9,
            c.choose_victim_ns.len() as u64,
            percentiles_us(&c.choose_victim_ns),
        ),
        None => (
            r.cache.policy_overhead_ns as f64 / 1e9,
            r.cache.evictions,
            Percentiles::default(),
        ),
    };
    let unprobed = virt.as_ref().unwrap_or(&plain);
    let materialize_s = plain.wall_s - unprobed.wall_s;
    let cluster = probed.cluster.unwrap_or(ClusterExtras {
        parts: plain.report.queries_completed,
        imbalance: 1.0,
        replica_routed: 0,
        promotions: 0,
        redispatched: 0,
    });
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Measured {
        correct,
        attempted: plain.attempted,
        failed: plain.failed,
        digest: workloads::digest(&plain.masked),
        metrics: vec![
            ("workload.generate_s", generate_s, "s"),
            ("turbdb.open_s", open_s, "s"),
            (
                "turbdb.materializations",
                plain.materializations as f64,
                "count",
            ),
            ("turbdb.materialize_s", materialize_s, "s"),
            (
                "turbdb.materialize_us_per_atom",
                ratio(materialize_s * 1e6, plain.materializations as f64),
                "us",
            ),
            ("turbdb.disk_reads", r.disk.reads as f64, "count"),
            ("turbdb.disk_seeks", r.disk.seeks as f64, "count"),
            ("scheduler.busy_s", sched_busy_s, "s"),
            (
                "scheduler.next_batch_calls",
                s.next_batch_ns.len() as f64,
                "count",
            ),
            ("scheduler.next_batch_us_p50", next_batch.p50, "us"),
            ("scheduler.next_batch_us_p99", next_batch.p99, "us"),
            (
                "scheduler.job_declared_s",
                s.job_declared_ns as f64 / 1e9,
                "s",
            ),
            (
                "scheduler.query_available_s",
                s.query_available_ns as f64 / 1e9,
                "s",
            ),
            (
                "scheduler.utility_snapshot_s",
                s.utility_snapshot_ns as f64 / 1e9,
                "s",
            ),
            (
                "scheduler.on_query_complete_s",
                s.on_query_complete_ns as f64 / 1e9,
                "s",
            ),
            (
                "scheduler.atoms_per_batch",
                ratio(stats.atom_groups as f64, stats.batches as f64),
                "atoms/batch",
            ),
            (
                "scheduler.forced_releases",
                stats.forced_releases as f64,
                "count",
            ),
            (
                "scheduler.useful_poll_ratio",
                ratio(s.next_batch_some as f64, s.next_batch_ns.len() as f64),
                "ratio",
            ),
            ("cache.busy_s", cache_busy_s, "s"),
            ("cache.choose_victim_calls", victim_calls as f64, "count"),
            ("cache.choose_victim_us_p50", victim.p50, "us"),
            ("cache.choose_victim_us_p99", victim.p99, "us"),
            ("cache.hit_ratio", r.cache.hit_ratio(), "ratio"),
            (
                "cache.metadata_bytes",
                probed.metadata_bytes.unwrap_or(0) as f64,
                "bytes",
            ),
            ("sim.replay_s", plain.wall_s, "s"),
            (
                "sim.self_s",
                probed.wall_s - sched_busy_s - cache_busy_s,
                "s",
            ),
            (
                "sim.queue_ops_per_query",
                plain.queue_ops as f64 / queries,
                "ops/query",
            ),
            (
                "sim.parts_per_query",
                cluster.parts as f64 / queries,
                "parts/query",
            ),
            ("sim.imbalance", cluster.imbalance, "ratio"),
            ("sim.replica_routed", cluster.replica_routed as f64, "count"),
            ("sim.replica_promotions", cluster.promotions as f64, "count"),
            (
                "sim.redispatched_parts",
                cluster.redispatched as f64,
                "count",
            ),
            ("par.speedup", plain.wall_s / parallel.wall_s, "ratio"),
            (
                "obs.overhead_ratio",
                recorded.wall_s / plain.wall_s,
                "ratio",
            ),
            (
                "obs.events",
                recorded.obs_events.unwrap_or(0) as f64,
                "count",
            ),
            (
                "trace.overhead_ratio",
                if probes_attached {
                    probed.wall_s / unprobed.wall_s
                } else {
                    0.0
                },
                "ratio",
            ),
        ],
    }
}

/// Runs every workload, each in a child process of this executable.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let _workers = jaws_par::override_threads(WORKERS);
    let spec = workload.spec(args.seed);
    let mut m = if args.trace {
        traced(&spec)
    } else {
        untraced(workload, &spec, args.seconds as f64)
    };

    for (name, value, unit) in &mut m.metrics {
        println!("{name:<32} {value:>18.6} {unit}");
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a finite number");
            *value = 0.0;
            m.correct = false;
        }
    }
    println!(
        "# {} seed {} trace {}: masked-report digest {}, {WORKERS} worker ({} for par.speedup) on {} CPUs",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        m.digest,
        par_workers(),
        jaws_par::hardware_parallelism()
    );
    let summary = summary_json(&m);
    store(&args, workload, &m.digest, &summary);
    println!("{summary}");
    if m.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run's one-line JSON summary. Names, units and digests are plain
/// ASCII without quotes, so nothing needs escaping; `{}` on `f64` prints
/// every digit of the shortest round-tripping decimal.
fn summary_json(m: &Measured) -> String {
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        m.correct,
        m.attempted,
        m.failed,
        metrics.join(",")
    )
}

/// Keeps the summary, with the digest and worker count, under `results/`.
fn store(args: &Args, workload: Workload, digest: &str, summary: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let path = format!(
        "{dir}/{}.seed{}.trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        r#"{{"workload":"{}","seed":{},"trace":{},"workers":{WORKERS},"par_workers":{},"available_parallelism":{},"masked_report_digest":"{digest}","summary":{summary}}}"#,
        workload.name(),
        args.seed,
        args.trace,
        par_workers(),
        jaws_par::hardware_parallelism(),
    );
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record + "\n"));
    if let Err(e) = written {
        eprintln!("perfbench: could not store {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<Args>, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn cli_takes_the_documented_flags() {
        let a = parse("--workload synth_anchor --seed 7 --seconds 3 --trace 1")
            .expect("valid")
            .expect("not help");
        assert_eq!(a.workload, Some(Workload::SynthAnchor));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let a = parse("--workload all").expect("valid").expect("not help");
        assert_eq!(a.workload, None);
        assert_eq!((a.seed, a.seconds, a.trace), (exp::TRACE_SEED, 10, false));
        assert!(parse("--workload all --help").expect("valid").is_none());
    }

    #[test]
    fn cli_rejects_anything_else_loudly() {
        for bad in [
            "",
            "--workload nope",
            "--workload all --quick",
            "--workload all --seed",
            "--workload all --seed x",
            "--workload all --seconds 0",
            "--workload all --trace 2",
            "--workload all --seed 1 --seed 2",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }
}
