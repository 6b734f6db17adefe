//! jaws-lint: workspace-specific static analysis for determinism, panic
//! safety, and lock discipline.
//!
//! The generic toolchain (clippy, rustc lints) cannot know JAWS's contracts:
//! that scheduling decisions must be replayable bit-for-bit, that dispatch
//! paths must not panic mid-simulation, that every lock in the workspace
//! follows one idiom, and that `jaws-par` closures must stay deterministic
//! at any thread count. This crate encodes those contracts as lint rules and
//! enforces them in CI.
//!
//! The scan covers every `.rs` file under the root except the `target`,
//! `vendor`, `.git`, `fixtures` and `node_modules` directories and any
//! subdirectory whose `Cargo.toml` declares a `[workspace]` of its own (such
//! as `perfbench/`): a nested workspace is a separate tree, not part of the
//! one being guarded.
//!
//! # Architecture
//!
//! The analysis is built on a real (dependency-free) Rust lexer
//! ([`lexer`]): the token stream is full-fidelity (concatenating token texts
//! reproduces the input byte-for-byte) and understands strings, raw strings,
//! byte strings, char literals vs. lifetimes, nested block comments, and doc
//! comments. The `source` module folds the tokens into per-line views — code with
//! literal contents blanked, plain comments separated from rustdoc — so no
//! rule can ever fire on text inside a string or a comment. Each rule family
//! lives in its own module under `rules/`.
//!
//! # Rules
//!
//! | Rule | Scope | What it forbids |
//! |------|-------|-----------------|
//! | D001 | scheduler, sim (non-test) | iterating `HashMap`/`HashSet` where order can reach a scheduling decision; sort and attest with `lint: sorted`, or use B-tree collections |
//! | D002 | everywhere except `crates/bench`, `crates/cache/src/pool.rs`, `crates/obs/tests/overhead_smoke.rs` | wall-clock/entropy sources (`Instant::now`, `SystemTime`, `thread_rng`, …); `available_parallelism` is sanctioned only inside `crates/par` |
//! | F001 | scheduler, sim, cache (non-test) | bare `partial_cmp` in ranking code — NaN makes it a partial order |
//! | F002 | scheduler, sim, cache (non-test) | `==`/`!=` against float literals |
//! | P001 | scheduler, sim (non-test) | `unwrap()`, unattested `expect()`, panic macros, indexing by integer literal |
//! | C001 | everywhere, tests included | `.lock().unwrap()`; `.lock().expect(…)` without a `lint: invariant` attestation |
//! | C002 | everywhere, tests included | acquiring a second distinct `Mutex`/`RwLock` while a guard is held in the same scope (lock-ordering hazard; lock-typed names are collected workspace-wide) |
//! | C003 | everywhere, tests included | holding a lock guard across a `jaws_par::map*` call |
//! | T001 | everywhere except `crates/par` | `jaws-par` closures capturing `RefCell`/`Cell`/atomics, doing atomic RMW, or calling obs sinks |
//! | S001 | everywhere, tests included | suppression debt: a `lint:` marker that no longer justifies anything, or that matches no known form |
//!
//! # Suppression grammar
//!
//! Markers live in **plain** comments only (`//` / `/* … */`; rustdoc is
//! documentation, not attestation) and must *start* the comment content:
//!
//! * `lint: sorted` — D001: iteration order is re-established nearby; the
//!   rule additionally demands visible sort evidence within a few lines.
//! * `lint: invariant — why` — P001/C001: the `expect`/panic cannot fire, or
//!   must abort; say why.
//! * `lint: allow(<RULE>) — reason` — unconditional per-rule escape hatch.
//!
//! A marker attests the violation on its own line, on the same multi-line
//! statement, or on the code directly below its contiguous comment block.
//! Every lookup records which marker justified which candidate violation;
//! S001 then flags the ones that justified nothing. S001 itself is not
//! suppressible.
//!
//! # Machine-readable output
//!
//! [`Report::to_json`] renders the scan deterministically (schema below,
//! `schema_version` 1). Diagnostics are sorted by `(file, line, rule)`, the
//! summary follows registry order, and nothing environmental (timestamps,
//! hostnames, absolute paths) is included — two runs over the same tree are
//! byte-identical.
//!
//! ```text
//! {
//!   "tool": "jaws-lint",
//!   "schema_version": 1,
//!   "files_scanned": <int>,
//!   "violations": <int>,
//!   "summary": [ { "rule": "C001", "count": <int> }, … ],
//!   "diagnostics": [ { "rule": "C001", "file": "crates/…", "line": <int>, "reason": "…" }, … ]
//! }
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
mod rules;
mod source;

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use source::{
    declared_names, hash_collection_names, parse_suppressions, strip_source, test_mask, Check,
    Line, Marker, Suppression,
};

/// A single rule violation, keyed by workspace-relative path and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `"D001"`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Static description of one rule, powering `--explain` and the summary
/// table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule identifier, e.g. `"C001"`.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Why the rule exists (the contract it protects).
    pub rationale: &'static str,
    /// How to fix or attest a violation.
    pub fix: &'static str,
}

/// The rule registry, in stable display order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        title: "no hash-order iteration on dispatch paths",
        rationale: "HashMap/HashSet iteration order is randomized per process; if it reaches a \
                    scheduling decision, replays diverge between runs.",
        fix: "use BTreeMap/BTreeSet, or collect and sort with visible sort evidence plus a \
              `// lint: sorted` attestation.",
    },
    RuleInfo {
        id: "D002",
        title: "no wall-clock or entropy sources",
        rationale: "Instant::now/SystemTime/thread_rng make results depend on when and where the \
                    run happened, breaking replayability. Carve-outs: crates/bench (measures real \
                    time by design), the cache pool timing shim, the obs overhead smoke test, and \
                    `available_parallelism` inside crates/par only.",
        fix: "thread a seeded RNG or the simulated clock through instead, or move timing code \
              into crates/bench.",
    },
    RuleInfo {
        id: "F001",
        title: "no bare partial_cmp in ranking code",
        rationale: "partial_cmp over f64 is a partial order (NaN); sort_by with it can panic or \
                    produce order-dependent rankings.",
        fix: "use `total_cmp` with an integer tie-break.",
    },
    RuleInfo {
        id: "F002",
        title: "no ==/!= against float literals",
        rationale: "exact float equality in ranking logic is fragile under refactors that change \
                    rounding.",
        fix: "compare via `total_cmp` or an explicit tolerance; `// lint: allow(F002)` for true \
              sentinel values.",
    },
    RuleInfo {
        id: "P001",
        title: "no panics on dispatch paths",
        rationale: "an unwrap/expect/panic in scheduler or sim code aborts a simulation mid-run; \
                    dispatch code must return Results or prove its invariants.",
        fix: "handle the None/Err case, or attest the invariant with `// lint: invariant — why` \
              (expect/panic macros only; unwrap is never attestable).",
    },
    RuleInfo {
        id: "C001",
        title: "one lock idiom: attested expect, never unwrap",
        rationale: "`.lock().unwrap()` silently converts lock poisoning into an unexplained \
                    panic. Each lock site must state why poisoning is impossible or must abort.",
        fix: "replace with `.lock().expect(\"…\")` under a `// lint: invariant — why` attestation.",
    },
    RuleInfo {
        id: "C002",
        title: "no nested distinct lock acquisition",
        rationale: "taking a second Mutex/RwLock while another guard is held in the same scope \
                    is a lock-ordering hazard; two call paths acquiring in opposite order \
                    deadlock. Lock-typed names are collected workspace-wide, so cross-file \
                    fields are recognized.",
        fix: "narrow the first guard's scope (drop it or use a block) before taking the second \
              lock.",
    },
    RuleInfo {
        id: "C003",
        title: "no lock guard held across jaws_par::map*",
        rationale: "workers that touch the same lock deadlock against the held guard, and any \
                    contention serializes the pool.",
        fix: "drain or drop the guard before dispatching; hand workers plain data.",
    },
    RuleInfo {
        id: "T001",
        title: "jaws-par closures must be deterministic",
        rationale: "a closure passed to jaws_par::map/map_indexed that captures \
                    RefCell/Cell/atomics, performs atomic RMW, or emits to an obs sink makes \
                    results or trace order depend on worker interleaving, breaking the \
                    byte-identical-at-any-thread-count contract.",
        fix: "keep closures pure per shard; return what should be traced and emit it after the \
              map, in input order.",
    },
    RuleInfo {
        id: "S001",
        title: "zero suppression debt",
        rationale: "a `lint:` marker whose rule no longer fires is a stale exemption that hides \
                    future regressions; a malformed marker suppresses nothing and misleads \
                    readers.",
        fix: "delete stale markers; fix malformed ones to `lint: sorted`, `lint: invariant` \
              or `lint: allow(<RULE>)`. S001 is not suppressible.",
    },
];

/// Looks up a rule by identifier (case-insensitive).
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

/// Cross-file knowledge shared by every per-file check.
#[derive(Debug, Default, Clone)]
pub struct Context {
    /// Identifiers declared anywhere in the workspace with a
    /// `Mutex`/`RwLock` type (fields, params, bindings) — C002 input.
    pub mutex_names: BTreeSet<String>,
}

/// Builds the cross-file [`Context`] from `(relative path, source)` pairs.
pub fn scan_context(files: &[(String, String)]) -> Context {
    let mut ctx = Context::default();
    for (_, src) in files {
        let lines = strip_source(src);
        ctx.mutex_names
            .extend(declared_names(&lines, &["Mutex", "RwLock"]));
    }
    ctx
}

/// Checks a single file against all rules using `ctx` for cross-file
/// knowledge. Diagnostics come back sorted by `(line, rule)`.
pub fn check_file_in(rel: &str, src: &str, ctx: &Context) -> Vec<Diagnostic> {
    let mut c = Check::new(rel, src, ctx);
    rules::determinism::run(&mut c);
    rules::floats::run(&mut c);
    rules::panics::run(&mut c);
    rules::concurrency::run(&mut c);
    rules::thread_det::run(&mut c);
    // The suppression audit must run last: it flags whatever the families
    // above never consumed.
    rules::suppression::run(&mut c);
    let mut diags = c.diags;
    diags.sort();
    diags
}

/// Checks a single file with cross-file context built from that file alone.
pub fn check_file(rel: &str, src: &str) -> Vec<Diagnostic> {
    let files = vec![(rel.to_string(), src.to_string())];
    let ctx = scan_context(&files);
    check_file_in(rel, src, &ctx)
}

/// Result of scanning a whole workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Per-rule violation counts in registry order; rules with zero hits are
    /// omitted.
    pub fn summary(&self) -> Vec<(&'static str, usize)> {
        RULES
            .iter()
            .filter_map(|r| {
                let n = self.diagnostics.iter().filter(|d| d.rule == r.id).count();
                (n > 0).then_some((r.id, n))
            })
            .collect()
    }

    /// Renders the report as deterministic JSON (schema_version 1): sorted
    /// diagnostics, registry-ordered summary, no environmental data. Two
    /// runs over the same tree produce byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"tool\": \"jaws-lint\",\n");
        out.push_str("  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"violations\": {},\n", self.diagnostics.len()));
        out.push_str("  \"summary\": [");
        let summary = self.summary();
        for (i, (rule, n)) in summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {{ \"rule\": \"{rule}\", \"count\": {n} }}"));
        }
        if summary.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{ \"rule\": \"{}\", \"file\": {}, \"line\": {}, \"reason\": {} }}",
                d.rule,
                json_string(&d.file),
                d.line,
                json_string(&d.message)
            ));
        }
        if self.diagnostics.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(
                name.as_ref(),
                "target" | "vendor" | ".git" | "fixtures" | "node_modules"
            ) || is_workspace_root(&path)
            {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// True if `dir/Cargo.toml` declares a `[workspace]` of its own: the
/// directory is a separate Cargo workspace (its own lockfile and members),
/// not part of the tree being linted.
fn is_workspace_root(dir: &Path) -> bool {
    fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|toml| {
        toml.lines().any(|l| {
            let l = l.trim();
            l == "[workspace]" || l.starts_with("[workspace.")
        })
    })
}

/// Scans a workspace tree rooted at `root`: reads every `.rs` file (in
/// sorted order, skipping target/vendor/fixtures and nested workspaces),
/// builds the cross-file [`Context`] and checks each file.
/// Diagnostics come back sorted by `(file, line, rule)`.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, fs::read_to_string(path)?));
    }
    let ctx = scan_context(&files);
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for (rel, src) in &files {
        report.diagnostics.extend(check_file_in(rel, src, &ctx));
    }
    report.diagnostics.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_unique_and_explains_every_emitted_rule() {
        let ids: BTreeSet<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), RULES.len(), "duplicate rule ids");
        for id in [
            "D001", "D002", "F001", "F002", "P001", "C001", "C002", "C003", "T001", "S001",
        ] {
            assert!(rule_info(id).is_some(), "missing registry entry for {id}");
        }
        assert!(rule_info("c001").is_some(), "lookup is case-insensitive");
        assert!(rule_info("Z999").is_none());
    }

    #[test]
    fn diagnostics_sort_by_file_line_rule() {
        let mut diags = [
            Diagnostic {
                file: "b.rs".into(),
                line: 1,
                rule: "D001",
                message: String::new(),
            },
            Diagnostic {
                file: "a.rs".into(),
                line: 9,
                rule: "P001",
                message: String::new(),
            },
            Diagnostic {
                file: "a.rs".into(),
                line: 9,
                rule: "C001",
                message: String::new(),
            },
        ];
        diags.sort();
        let order: Vec<(&str, usize, &str)> = diags
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.rule))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs", 9, "C001"),
                ("a.rs", 9, "P001"),
                ("b.rs", 1, "D001")
            ]
        );
    }

    #[test]
    fn json_report_is_deterministic_and_escapes() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "C001",
                message: "uses `.lock()` with \"quotes\"\nand a newline".into(),
            }],
            files_scanned: 7,
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\\\"quotes\\\"\\nand a newline"));
        assert!(a.contains("{ \"rule\": \"C001\", \"count\": 1 }"));
        assert!(a.ends_with("}\n"));

        let empty = Report::default();
        let j = empty.to_json();
        assert!(j.contains("\"summary\": []"));
        assert!(j.contains("\"diagnostics\": []"));
    }

    #[test]
    fn scan_context_collects_lock_names_across_files() {
        let files = vec![
            (
                "a.rs".to_string(),
                "struct S { bufs: Vec<Arc<Mutex<u32>>> }\n".to_string(),
            ),
            (
                "b.rs".to_string(),
                "fn f() { let door = RwLock::new(0); }\n".to_string(),
            ),
        ];
        let ctx = scan_context(&files);
        assert!(ctx.mutex_names.contains("bufs"));
        assert!(ctx.mutex_names.contains("door"));
    }
}
