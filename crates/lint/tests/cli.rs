//! End-to-end tests of the `jaws-lint` binary: the workspace self-check that
//! gates CI, the seeded-violation fixture, report determinism, the JSON
//! golden file, and the `--explain` subcommand.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every rule the violations fixture plants.
const ALL_RULES: &[&str] = &[
    "D001", "D002", "F001", "F002", "P001", "C001", "C002", "C003", "T001", "M001", "S001",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_lint_args(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jaws-lint"))
        .args(args)
        .output()
        .expect("jaws-lint binary runs")
}

fn run_lint(root: &Path) -> Output {
    run_lint_args(&["--root", &root.display().to_string()])
}

/// Tier-1 gate: the real workspace must be violation-free.
#[test]
fn workspace_self_check_passes() {
    let out = run_lint(&workspace_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "jaws-lint failed on the workspace:\n{stdout}"
    );
    assert!(
        stdout.contains("jaws-lint: OK"),
        "unexpected output: {stdout}"
    );
}

#[test]
fn seeded_violations_fail_with_file_line_and_rule_ids() {
    let out = run_lint(&fixture("violations"));
    assert_eq!(out.status.code(), Some(1), "planted violations must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in ALL_RULES {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "rule {rule} not reported:\n{stdout}"
        );
    }
    // Diagnostics carry file:line anchors, and the human format appends a
    // per-rule summary table.
    assert!(
        stdout.contains("crates/scheduler/src/lib.rs:"),
        "no file:line diagnostics:\n{stdout}"
    );
    assert!(
        stdout.contains("rule   count  title"),
        "missing summary table:\n{stdout}"
    );
}

#[test]
fn clean_fixture_passes() {
    let out = run_lint(&fixture("clean"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean fixture flagged:\n{stdout}");
}

/// A subdirectory with a `[workspace]` of its own is a separate tree and is
/// not scanned; a plain member crate next to it still is.
#[test]
fn nested_workspaces_are_skipped() {
    let out = run_lint(&fixture("nested_workspace"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "member violation must fail:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/member/src/lib.rs:6 [D002]"),
        "member crate not scanned:\n{stdout}"
    );
    assert!(
        !stdout.contains("perf/"),
        "nested workspace was scanned:\n{stdout}"
    );
}

/// The report itself must be deterministic: two runs over the same tree
/// produce byte-identical output (diagnostics are sorted, the walk is
/// sorted, nothing depends on hash order or clocks).
#[test]
fn report_is_byte_identical_across_runs() {
    for root in [workspace_root(), fixture("violations")] {
        for format in ["text", "json"] {
            let args = ["--root", &root.display().to_string(), "--format", format];
            let a = run_lint_args(&args);
            let b = run_lint_args(&args);
            assert_eq!(a.status.code(), b.status.code());
            assert_eq!(
                a.stdout,
                b.stdout,
                "non-deterministic {format} report for {}",
                root.display()
            );
        }
    }
}

/// The JSON schema is pinned by a golden file: any change to field names,
/// ordering, or formatting is a deliberate schema bump, not drift.
#[test]
fn json_report_matches_golden_file() {
    let out = run_lint_args(&[
        "--root",
        &fixture("violations").display().to_string(),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let got = String::from_utf8_lossy(&out.stdout);
    let golden_path = fixture("violations.golden.json");
    let golden = std::fs::read_to_string(&golden_path).expect("golden file exists");
    assert_eq!(
        got,
        golden,
        "JSON report drifted from {} — if the change is deliberate, \
         regenerate the golden with `jaws-lint --root <fixture> --format json`",
        golden_path.display()
    );
}

#[test]
fn out_flag_writes_the_report_to_a_file() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lint-out.json");
    let out = run_lint_args(&[
        "--root",
        &fixture("violations").display().to_string(),
        "--format",
        "json",
        "--out",
        &path.display().to_string(),
    ]);
    // Exit code still reflects violations even when writing to a file.
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stdout.is_empty(),
        "report must go to the file, not stdout"
    );
    let written = std::fs::read_to_string(&path).expect("report file written");
    assert!(written.contains("\"tool\": \"jaws-lint\""));
    assert!(written.contains("\"schema_version\": 1"));
}

#[test]
fn explain_prints_rationale_and_rejects_unknown_rules() {
    for rule in ALL_RULES {
        let out = run_lint_args(&["--explain", rule]);
        assert!(out.status.success(), "--explain {rule} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(rule), "missing id:\n{stdout}");
        assert!(stdout.contains("why:"), "missing rationale:\n{stdout}");
        assert!(stdout.contains("fix:"), "missing fix guidance:\n{stdout}");
    }
    let out = run_lint_args(&["--explain", "Z999"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown rule"), "{stderr}");
}
