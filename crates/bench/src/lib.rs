//! Shared experiment harness for the JAWS paper reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of §VI; this
//! library holds the common configuration so every experiment runs against
//! the same database geometry, cost model and calibrated trace — mirroring
//! the paper's single experimental setup (800 GB sample, 31 timesteps,
//! 4096 atoms/timestep, 2 GB external cache, 50k-query trace of ~1k jobs).

pub mod claims;

pub mod alloc_counter {
    //! A counting global allocator for the allocation-discipline benches.
    //!
    //! Wraps [`std::alloc::System`] and counts every `alloc`/`alloc_zeroed`/
    //! `realloc` call in a relaxed [`AtomicU64`]. Bench binaries register it
    //! with `#[global_allocator]` and report allocations-per-query next to
    //! wall-clock, turning "the hot path is alloc-free" from a claim into a
    //! measured column. Frees are not counted: the discipline under test is
    //! *acquiring* memory per event, and every counted acquisition has at
    //! most one matching free.
    //!
    //! The counter is process-global, so concurrent measurements interleave;
    //! the bench binaries are single-measurement-at-a-time by construction.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that counts allocation calls.
    ///
    /// Register in a binary with:
    /// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`
    pub struct CountingAlloc;

    // SAFETY: pure pass-through to `System`; the only addition is a relaxed
    // counter increment, which cannot violate allocator invariants.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    /// Allocation calls counted since process start (or the last [`reset`]).
    pub fn count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Zeroes the counter. Call immediately before the measured region.
    pub fn reset() {
        ALLOCATIONS.store(0, Ordering::Relaxed);
    }
}

pub mod exp {
    use jaws_obs::{JsonlRecorder, ObsSink};
    use jaws_sim::sweep::RunSpec;
    use jaws_sim::{
        CachePolicyKind, ClusterConfig, ClusterExecutor, ClusterReport, FailurePlan,
        ReplicationConfig, SchedulerKind, SimConfig,
    };
    use jaws_turbdb::{CostModel, DbConfig};
    use jaws_workload::{GenConfig, Trace, TraceGenerator};
    use std::sync::{Arc, Mutex};

    /// Trace seed shared by all experiments (deterministic reproduction).
    pub const TRACE_SEED: u64 = 2009_0720; // the paper's week-of-July-20th trace

    /// The paper's 2 GB cache in 8 MB atoms.
    pub const CACHE_ATOMS: usize = 256;

    /// Run length `r` for α adaptation and SLRU promotion.
    pub const RUN_LEN: usize = 50;

    /// Gate timeout for JAWS₂'s starvation valve, ms.
    pub const GATE_TIMEOUT_MS: f64 = 180_000.0;

    /// The experimental database geometry (§VI): 31 timesteps of the 1024³
    /// grid — 4096 atoms per timestep.
    pub fn paper_db() -> DbConfig {
        DbConfig::paper_sample()
    }

    /// The cost model (T_b, T_m, seek) used everywhere.
    pub fn paper_cost() -> CostModel {
        CostModel::paper_testbed()
    }

    /// The evaluation trace: ~1k jobs, tens of thousands of queries,
    /// calibrated to §VI-A. Its size is announced on stderr.
    pub fn paper_trace() -> Trace {
        let t = TraceGenerator::new(GenConfig::paper_like(TRACE_SEED)).generate();
        eprintln!(
            "# trace: {} jobs, {} queries, {} positions",
            t.jobs.len(),
            t.query_count(),
            t.position_count()
        );
        t
    }

    /// A fully specified run at the paper's defaults.
    pub fn base_spec(label: &str, scheduler: SchedulerKind, policy: CachePolicyKind) -> RunSpec {
        RunSpec {
            label: label.to_string(),
            db: paper_db(),
            cost: paper_cost(),
            scheduler,
            cache_policy: policy,
            cache_atoms: CACHE_ATOMS,
            run_len: RUN_LEN,
            gate_timeout_ms: GATE_TIMEOUT_MS,
            speedup: 1.0,
        }
    }

    /// One node running `scheduler` at the paper's defaults, for bins that
    /// need more than a [`RunSpec`]'s report: its response log or declared
    /// jobs.
    pub fn paper_executor(scheduler: SchedulerKind) -> ClusterExecutor {
        ClusterExecutor::new(ClusterConfig {
            nodes: 1,
            db: paper_db(),
            cost: paper_cost(),
            scheduler,
            cache_policy: CachePolicyKind::LruK,
            cache_atoms_per_node: CACHE_ATOMS,
            run_len: RUN_LEN,
            gate_timeout_ms: GATE_TIMEOUT_MS,
            sim: SimConfig::default(),
            failures: FailurePlan::none(),
            replication: ReplicationConfig::disabled(),
        })
    }

    /// Replays `cfg` through a [`JsonlRecorder`]; returns the report and the
    /// JSONL observability trace.
    pub fn traced_run(cfg: ClusterConfig, trace: &Trace) -> (ClusterReport, String) {
        let rc = Arc::new(Mutex::new(JsonlRecorder::new()));
        let mut ex = ClusterExecutor::new(cfg);
        ex.set_recorder(ObsSink::new(rc.clone()));
        let report = ex.run(trace);
        // The run above completed; a poisoned mutex would already have
        // panicked the emitting thread.
        let jsonl = rc.lock().expect("recorder lock").take();
        (report, jsonl)
    }

    /// A tiny database geometry for tests and smoke runs (64 atoms per
    /// timestep, divisible across 1 to 8 nodes).
    pub fn smoke_db() -> DbConfig {
        DbConfig {
            grid_side: 32,
            atom_side: 8,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: TRACE_SEED,
        }
    }

    /// Prints a rule line for experiment tables.
    pub fn rule() {
        println!("{}", "-".repeat(100));
    }

    /// Same masking as the determinism suite: the only report fields measured
    /// in host wall-clock time are zeroed before byte comparison, so two runs
    /// of the same seeded scenario can be compared for bit-identity.
    pub fn mask_wallclock_fields(json: &str) -> String {
        let mut out = json.to_string();
        for key in ["policy_overhead_ns", "cache_overhead_ms_per_query"] {
            let pat = format!("\"{key}\":");
            assert!(out.contains(&pat), "field {key} absent from report JSON");
            let mut masked = String::with_capacity(out.len());
            let mut rest = out.as_str();
            while let Some(i) = rest.find(&pat) {
                let start = i + pat.len();
                let end = start
                    + rest[start..]
                        .find([',', '}'])
                        .expect("number is followed by a delimiter");
                masked.push_str(&rest[..start]);
                masked.push('0');
                rest = &rest[end..];
            }
            masked.push_str(rest);
            out = masked;
        }
        out
    }

    /// A flag an experiment binary accepts: a switch (`--small`) or, when
    /// `value` names its value, `--name=VALUE`.
    #[derive(Debug, Clone, Copy)]
    pub struct Flag {
        /// The spelling, dashes included.
        pub name: &'static str,
        /// The value's name in the usage text; `None` for a switch.
        pub value: Option<&'static str>,
        /// One line for `--help`.
        pub help: &'static str,
    }

    /// Flags and operands accepted by [`parse`].
    #[derive(Debug)]
    pub struct Args {
        usage: String,
        flags: Vec<(&'static str, Option<String>)>,
        operands: Vec<String>,
    }

    impl Args {
        /// True if the switch or valued flag `name` was given.
        pub fn has(&self, name: &str) -> bool {
            self.flags.iter().any(|(n, _)| *n == name)
        }

        /// The value given to flag `name`, if any.
        pub fn value(&self, name: &str) -> Option<&str> {
            self.flags
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| v.as_deref())
        }

        /// The value of flag `name` parsed as `T`; an unparsable value is a
        /// usage error.
        pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
            self.value(name).map(|v| {
                v.parse()
                    .unwrap_or_else(|_| self.fail(&format!("bad value for {name}: `{v}`")))
            })
        }

        /// The operands (arguments that are not flags), in order.
        pub fn operands(&self) -> &[String] {
            &self.operands
        }

        /// Prints `msg` and the usage to stderr and exits with status 2.
        pub fn fail(&self, msg: &str) -> ! {
            eprint!("error: {msg}\n{}", self.usage);
            std::process::exit(2)
        }
    }

    fn usage(bin: &str, operands: &str, flags: &[Flag]) -> String {
        let mut out = format!("usage: {bin}");
        if !flags.is_empty() {
            out.push_str(" [FLAGS]");
        }
        if !operands.is_empty() {
            out.push(' ');
            out.push_str(operands);
        }
        out.push('\n');
        let help = Flag {
            name: "--help",
            value: None,
            help: "print this help",
        };
        for f in flags.iter().chain([&help]) {
            let spelled = match f.value {
                Some(v) => format!("{}={v}", f.name),
                None => f.name.to_string(),
            };
            out.push_str(&format!("  {spelled:<20} {}\n", f.help));
        }
        out
    }

    /// Parses `args` (without the program name) against `flags`. Operands
    /// are accepted only when `operands` (their usage text) is non-empty.
    /// `Ok(None)` means `--help` was asked for; `Err` carries the message.
    pub fn parse(
        bin: &str,
        operands: &str,
        flags: &[Flag],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Option<Args>, String> {
        let mut parsed = Args {
            usage: usage(bin, operands, flags),
            flags: Vec::new(),
            operands: Vec::new(),
        };
        for arg in args {
            if arg == "--help" {
                return Ok(None);
            }
            if !arg.starts_with('-') || arg == "-" {
                if operands.is_empty() {
                    return Err(format!("unexpected operand `{arg}`"));
                }
                parsed.operands.push(arg);
                continue;
            }
            let (name, value) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(flag) = flags.iter().find(|f| f.name == name) else {
                return Err(format!("unknown flag `{arg}`"));
            };
            match (flag.value, &value) {
                (Some(v), None) => return Err(format!("{name} needs a value: {name}={v}")),
                (None, Some(_)) => return Err(format!("{name} takes no value")),
                _ if parsed.has(name) => return Err(format!("{name} given twice")),
                _ => {}
            }
            parsed.flags.push((flag.name, value));
        }
        Ok(Some(parsed))
    }

    /// Parses the process arguments against `flags` (see [`parse`]).
    /// `--help` prints the usage and exits 0; an unknown flag, a missing or
    /// unexpected value, or an operand the binary does not take prints the
    /// usage and exits 2 — before any replay starts.
    pub fn parse_args(operands: &str, flags: &[Flag]) -> Args {
        let mut argv = std::env::args();
        let bin = argv
            .next()
            .and_then(|p| {
                std::path::Path::new(&p)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
            })
            .unwrap_or_default();
        match parse(&bin, operands, flags, argv) {
            Ok(Some(args)) => args,
            Ok(None) => {
                print!("{}", usage(&bin, operands, flags));
                std::process::exit(0)
            }
            Err(msg) => {
                eprint!("error: {msg}\n{}", usage(&bin, operands, flags));
                std::process::exit(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::exp::{parse, Args, Flag};

    const FLAGS: &[Flag] = &[
        Flag {
            name: "--smoke",
            value: None,
            help: "a switch",
        },
        Flag {
            name: "--out",
            value: Some("PATH"),
            help: "a valued flag",
        },
    ];

    fn run(operands: &str, argv: &[&str]) -> Result<Option<Args>, String> {
        parse("bin", operands, FLAGS, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn switches_values_and_operands_parse() {
        let args = run("<FILE>", &["a.json", "--smoke", "--out=x.json", "b"])
            .expect("valid")
            .expect("not help");
        assert!(args.has("--smoke"));
        assert_eq!(args.value("--out"), Some("x.json"));
        assert_eq!(args.value("--smoke"), None);
        assert_eq!(args.operands(), ["a.json", "b"]);
        let none = run("", &[]).expect("valid").expect("not help");
        assert!(!none.has("--smoke") && none.value("--out").is_none());
    }

    #[test]
    fn unknown_flags_and_malformed_values_are_errors() {
        for (argv, msg) in [
            (&["--quik"][..], "unknown flag `--quik`"),
            (&["-q"], "unknown flag `-q`"),
            (&["--out"], "--out needs a value"),
            (&["--smoke=1"], "--smoke takes no value"),
            (&["--smoke", "--smoke"], "--smoke given twice"),
            (&["stray"], "unexpected operand `stray`"),
        ] {
            let err = run("", argv).expect_err("rejected");
            assert!(err.contains(msg), "{argv:?}: {err}");
        }
    }

    #[test]
    fn help_wins_over_everything_else() {
        assert!(run("", &["--help"]).expect("help").is_none());
        assert!(run("", &["--smoke", "--help"]).expect("help").is_none());
    }
}
