//! Trace utility: generate, inspect and rescale workload traces on disk.
//!
//! ```text
//! trace_tools generate <out.json> [--jobs=N] [--seed=S] [--small]
//! trace_tools info     <trace.json>
//! trace_tools speedup  <in.json> <factor> <out.json>
//! ```
//!
//! Traces are the JSON serialization of `jaws_workload::Trace`; anything this
//! tool writes can be replayed by the experiment binaries' machinery or the
//! library's `ClusterExecutor`.

use jaws_bench::exp;
use jaws_workload::stats::{job_duration_histogram, timestep_histogram, top_timestep_share};
use jaws_workload::{GenConfig, Trace, TraceGenerator};
use std::fs::File;
use std::process::ExitCode;

const JOBS: exp::Flag = exp::Flag {
    name: "--jobs",
    value: Some("N"),
    help: "generate: number of jobs",
};

const SEED: exp::Flag = exp::Flag {
    name: "--seed",
    value: Some("S"),
    help: "generate: trace seed",
};

const SMALL: exp::Flag = exp::Flag {
    name: "--small",
    value: None,
    help: "generate: the small test-scale configuration",
};

fn load(path: &str) -> Result<Trace, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    Trace::load_json(f).map_err(|e| format!("load {path}: {e}"))
}

fn save(trace: &Trace, path: &str) -> Result<(), String> {
    let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    trace.save_json(f).map_err(|e| format!("write {path}: {e}"))
}

fn main() -> ExitCode {
    let args = exp::parse_args(
        "generate <out.json> | info <trace.json> | speedup <in.json> <factor> <out.json>",
        &[JOBS, SEED, SMALL],
    );
    let ops: Vec<&str> = args.operands().iter().map(String::as_str).collect();
    if ops.first() != Some(&"generate") && [JOBS, SEED, SMALL].iter().any(|f| args.has(f.name)) {
        args.fail("--jobs, --seed and --small apply to `generate` only");
    }
    let result = match ops[..] {
        ["generate", out] => generate(
            out,
            args.has("--small"),
            args.parsed("--jobs"),
            args.parsed("--seed"),
        ),
        ["info", path] => info(path),
        ["speedup", input, factor, output] => {
            let f: f64 = factor
                .parse()
                .unwrap_or_else(|_| args.fail(&format!("bad factor `{factor}`")));
            if f <= 0.0 {
                args.fail("factor must be positive");
            }
            speedup(input, f, output)
        }
        _ => args.fail("expected a subcommand and its operands"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn generate(out: &str, small: bool, jobs: Option<usize>, seed: Option<u64>) -> Result<(), String> {
    let mut cfg = if small {
        GenConfig::small(seed.unwrap_or(42))
    } else {
        GenConfig::paper_like(seed.unwrap_or(2009_0720))
    };
    if let Some(j) = jobs {
        cfg.jobs = j;
    }
    let trace = TraceGenerator::new(cfg).generate();
    save(&trace, out)?;
    println!(
        "wrote {out}: {} jobs / {} queries / {} positions",
        trace.jobs.len(),
        trace.query_count(),
        trace.position_count()
    );
    Ok(())
}

fn info(path: &str) -> Result<(), String> {
    let t = load(path)?;
    println!("trace {path}");
    println!(
        "  geometry        {} timesteps x {}^3 atoms",
        t.timesteps, t.atoms_per_side
    );
    println!(
        "  jobs            {} ({} ordered)",
        t.jobs.len(),
        t.ordered_job_count()
    );
    println!("  queries         {}", t.query_count());
    println!("  positions       {}", t.position_count());
    println!("  in-job queries  {:.1}%", t.fraction_in_jobs() * 100.0);
    let span_ms =
        t.jobs.last().map_or(0.0, |j| j.arrival_ms) - t.jobs.first().map_or(0.0, |j| j.arrival_ms);
    println!("  arrival span    {:.2} h", span_ms / 3.6e6);
    println!(
        "  top-12 ts share {:.1}%",
        top_timestep_share(&t, 12) * 100.0
    );
    println!("  duration histogram (nominal, paper cost model):");
    for b in job_duration_histogram(&t, 80.0, 0.05) {
        println!(
            "    {:<10} {:>6} jobs {:>5.1}%",
            b.label,
            b.count,
            b.fraction * 100.0
        );
    }
    let hist = timestep_histogram(&t);
    let peak = *hist.iter().max().unwrap_or(&1) as f64;
    println!("  queries per timestep:");
    for (ts, n) in hist.iter().enumerate() {
        println!(
            "    t{ts:<3} {:>7} {}",
            n,
            "#".repeat((*n as f64 / peak * 40.0).round() as usize)
        );
    }
    Ok(())
}

fn speedup(input: &str, f: f64, output: &str) -> Result<(), String> {
    let t = load(input)?.speedup(f);
    save(&t, output)?;
    println!("wrote {output} at {f}x arrival rate");
    Ok(())
}
