//! T-family rules: thread-determinism of `jaws-par` closures.
//!
//! * **T001** — a closure passed to a `jaws_par::map` / `map_indexed` call
//!   must stay pure-by-shard: no `RefCell`/`Cell` interior mutability, no
//!   `Atomic*` types or RMW calls, and no obs-sink emission (`.emit(` /
//!   `.record(`). Worker interleaving would otherwise leak into results or
//!   trace order, which breaks the byte-identical-at-any-thread-count
//!   contract.
//!
//! Capture detection is name-based: identifiers declared in this file with a
//! `RefCell`/`Cell`/`Atomic*` type (or constructor) are flagged when they
//! appear inside the call's argument span, alongside direct type mentions
//! and atomic read-modify-write calls.
//!
//! Detection is token-level: the argument span of the call is extracted by
//! balanced-paren matching over the lexed stream, so flagged tokens inside
//! strings or comments never fire, and multi-line closures are covered. At
//! most one T001 is reported per line.

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::source::{declared_names, Check};

const ENTRY_POINTS: &[&str] = &["map", "map_indexed"];

/// Interior-mutable / shared-state types whose bindings must not be
/// captured by a par closure.
const CELL_TYPES: &[&str] = &[
    "RefCell",
    "Cell",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

const RMW_CALLS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

const SINK_CALLS: &[&str] = &["emit", "record"];

/// Runs T001 over the file.
pub fn run(c: &mut Check<'_>) {
    // The runtime itself implements the pool with atomics; its internal
    // calls are unqualified and out of scope by construction, but skip the
    // crate outright for robustness.
    if c.rel.starts_with("crates/par/") {
        return;
    }
    let cell_names = declared_names(&c.lines, CELL_TYPES);
    // Code tokens only (strings/comments can mention anything).
    let toks: Vec<(TokenKind, String, usize)> = c
        .tokens
        .iter()
        .filter(|t| {
            matches!(
                t.kind,
                TokenKind::Ident | TokenKind::Number | TokenKind::Punct | TokenKind::Lifetime
            )
        })
        .map(|t| (t.kind, t.text.clone(), t.line))
        .collect();

    let is_punct = |i: usize, ch: &str| -> bool {
        toks.get(i)
            .is_some_and(|(k, t, _)| *k == TokenKind::Punct && t == ch)
    };
    let ident = |i: usize| -> Option<&str> {
        toks.get(i).and_then(|(k, t, _)| {
            if *k == TokenKind::Ident {
                Some(t.as_str())
            } else {
                None
            }
        })
    };

    let mut flagged_lines: BTreeSet<usize> = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        // Pattern: jaws_par :: <entry> (
        let entry = ident(i) == Some("jaws_par")
            && is_punct(i + 1, ":")
            && is_punct(i + 2, ":")
            && ident(i + 3).is_some_and(|id| ENTRY_POINTS.contains(&id))
            && is_punct(i + 4, "(");
        if !entry {
            i += 1;
            continue;
        }
        let entry_name = toks[i + 3].1.clone();
        let open = i + 4;
        // Balanced-paren argument span.
        let mut depth = 1i64;
        let mut j = open + 1;
        while j < toks.len() && depth > 0 {
            if is_punct(j, "(") {
                depth += 1;
            } else if is_punct(j, ")") {
                depth -= 1;
            }
            j += 1;
        }
        let span_end = j.saturating_sub(1);
        for (k, tok) in toks.iter().enumerate().take(span_end).skip(open + 1) {
            let Some(id) = ident(k) else { continue };
            let line0 = tok.2.saturating_sub(1);
            if flagged_lines.contains(&line0) {
                continue;
            }
            let dotted_call = is_punct(k.wrapping_sub(1), ".") && is_punct(k + 1, "(");
            let flagged: Option<String> = if CELL_TYPES.contains(&id) {
                Some(format!(
                    "closure passed to `jaws_par::{entry_name}` mentions `{id}` — interior \
                     mutability shared across workers makes results depend on interleaving"
                ))
            } else if cell_names.contains(id) {
                Some(format!(
                    "closure passed to `jaws_par::{entry_name}` captures `{id}`, which is \
                     declared with an interior-mutable type — shared mutation across workers \
                     makes results depend on interleaving"
                ))
            } else if dotted_call && RMW_CALLS.contains(&id) {
                Some(format!(
                    "closure passed to `jaws_par::{entry_name}` performs an atomic RMW \
                     (`.{id}(`) — worker interleaving leaks into results"
                ))
            } else if dotted_call && SINK_CALLS.contains(&id) {
                Some(format!(
                    "closure passed to `jaws_par::{entry_name}` calls an obs sink (`.{id}(`) \
                     — emission order would depend on worker interleaving; return the data \
                     and emit after the map, in input order"
                ))
            } else {
                None
            };
            if let Some(msg) = flagged {
                flagged_lines.insert(line0);
                if !c.allowed(line0, "T001") {
                    c.push(line0, "T001", msg);
                }
            }
        }
        i = open + 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::check_file;

    const SIM: &str = "crates/sim/src/sweep.rs";

    fn codes(rel: &str, src: &str) -> Vec<&'static str> {
        check_file(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn t001_flags_captured_cell_bindings_and_rmw() {
        // `shared` is declared as a RefCell in this file; capturing it in the
        // closure fires even though the type never appears in the span.
        let cell = "fn f(xs: &[u32]) -> Vec<u32> {\n    let shared: RefCell<u32> = RefCell::new(0);\n    jaws_par::map(xs, |x| x + *shared.borrow())\n}\n";
        assert_eq!(codes(SIM, cell), vec!["T001"]);
        let atomic = "fn f(xs: &[u32], n: &AtomicUsize) -> Vec<u32> {\n    jaws_par::map(xs, |x| {\n        n.fetch_add(1, Ordering::Relaxed);\n        *x\n    })\n}\n";
        // One diagnostic per line: `n` (declared AtomicUsize) and the RMW sit
        // on the same line.
        assert_eq!(codes(SIM, atomic), vec!["T001"]);
    }

    #[test]
    fn t001_flags_direct_type_mentions_in_span() {
        let inline =
            "fn f(xs: &[u32]) -> Vec<u32> {\n    jaws_par::map(xs, |x| Cell::new(*x).get())\n}\n";
        assert_eq!(codes(SIM, inline), vec!["T001"]);
    }

    #[test]
    fn t001_flags_direct_obs_emission_in_every_file() {
        let emit = "fn f(xs: &[u32], sink: &ObsSink) -> Vec<u32> {\n    jaws_par::map(xs, |x| {\n        sink.emit(0.0, ev(*x));\n        *x\n    })\n}\n";
        assert_eq!(codes(SIM, emit), vec!["T001"]);
        // The engine dispatches serially and has no exemption.
        assert_eq!(codes("crates/sim/src/engine.rs", emit), vec!["T001"]);
    }

    #[test]
    fn t001_ignores_pure_closures_and_out_of_span_tokens() {
        let pure = "fn f(xs: &[u32]) -> Vec<u32> {\n    jaws_par::map(xs, |x| x * 2 + xs.len() as u32)\n}\n";
        assert!(codes(SIM, pure).is_empty());
        // Mentions outside any jaws_par call are fine (this is not a ban on
        // atomics, only on capturing them into par closures).
        let outside = "fn g(n: &AtomicUsize) { n.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(codes(SIM, outside).is_empty());
        // Mentions inside strings/comments inside the span are fine.
        let stringy = "fn f(xs: &[u32]) -> Vec<String> {\n    jaws_par::map(xs, |x| format!(\"RefCell {} .emit(\", x)) // RefCell prose\n}\n";
        assert!(codes(SIM, stringy).is_empty());
    }

    #[test]
    fn t001_respects_allow_and_skips_crates_par() {
        let allowed = "fn f(xs: &[u32], n: &AtomicUsize) -> Vec<u32> {\n    jaws_par::map(xs, |x| {\n        // lint: allow(T001) — demo: deliberately racy progress counter\n        n.fetch_add(1, Ordering::Relaxed);\n        *x\n    })\n}\n";
        assert!(codes(SIM, allowed).is_empty());
        let in_par = "fn f(xs: &[u32], n: &AtomicUsize) -> Vec<u32> {\n    jaws_par::map(xs, |x| x + n.fetch_add(1, Ordering::Relaxed) as u32)\n}\n";
        assert!(codes("crates/par/src/lib.rs", in_par).is_empty());
    }
}
