//! Every experiment binary checks its flags before it replays anything: a
//! mistyped flag prints the usage and exits 2, and `--help` prints the
//! usage and exits 0.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BINS: &[&str] = &[
    env!("CARGO_BIN_EXE_ablation"),
    env!("CARGO_BIN_EXE_calibrate"),
    env!("CARGO_BIN_EXE_cluster_scaling"),
    env!("CARGO_BIN_EXE_dispatch_scaling"),
    env!("CARGO_BIN_EXE_failure_matrix"),
    env!("CARGO_BIN_EXE_fig8_job_dist"),
    env!("CARGO_BIN_EXE_fig9_timestep_dist"),
    env!("CARGO_BIN_EXE_fig10_throughput"),
    env!("CARGO_BIN_EXE_fig11_saturation"),
    env!("CARGO_BIN_EXE_fig12_batch_size"),
    env!("CARGO_BIN_EXE_jobid_gating"),
    env!("CARGO_BIN_EXE_qos_fairness"),
    env!("CARGO_BIN_EXE_scenario_matrix"),
    env!("CARGO_BIN_EXE_skew_matrix"),
    env!("CARGO_BIN_EXE_starvation"),
    env!("CARGO_BIN_EXE_table1_caching"),
    env!("CARGO_BIN_EXE_trace_explain"),
    env!("CARGO_BIN_EXE_trace_tools"),
];

/// Runs `bin` with `args` and returns `(exit code, stdout, stderr)`. A
/// binary still running after 60 s got past its flag check and is
/// replaying a trace: it is killed and the test fails.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on child") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            panic!("{bin} {args:?} was still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut out = String::new();
    let mut err = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut out)
        .expect("read stdout");
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut err)
        .expect("read stderr");
    (status.code(), out, err)
}

#[test]
fn a_mistyped_flag_exits_2_before_any_replay() {
    for bin in BINS {
        let (code, out, err) = run(bin, &["--quik"]);
        assert_eq!(code, Some(2), "{bin}: {err}");
        assert!(out.is_empty(), "{bin} printed results:\n{out}");
        assert!(
            err.contains("unknown flag `--quik`") && err.contains("usage:"),
            "{bin}: {err}"
        );
    }
}

#[test]
fn help_prints_the_usage_and_exits_0() {
    for bin in BINS {
        let (code, out, err) = run(bin, &["--help"]);
        assert_eq!(code, Some(0), "{bin}: {err}");
        assert!(
            out.starts_with("usage:") && out.contains("--help"),
            "{bin}: {out}"
        );
    }
}
