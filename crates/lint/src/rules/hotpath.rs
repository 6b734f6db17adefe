//! M-family rule: memory discipline on declared hot paths.
//!
//! * **M001** — a function annotated `// lint: hotpath` (the engine event
//!   loop, `Jaws::next_batch`, the sweep kernels) runs once per simulated
//!   event — millions of times per experiment — so a per-call allocation
//!   there is pure allocator traffic. `Vec::new`, `Box::new` and
//!   `.collect()` inside the body are flagged; hot paths reuse scratch
//!   (a caller-provided buffer or a `mem::take`d field) instead.
//!
//! The marker is a *declaration*, not a suppression: it opts the function
//! below into the rule. A marker that annotates no function is S001 debt —
//! the rule consumes each marker it resolves to a function.
//! `// lint: allow(M001) — reason`
//! escapes a single allocation site (e.g. a cold error branch inside an
//! otherwise hot body).

use crate::source::{parse_suppressions, Check, Marker};

use super::is_ident_char;

/// Allocation forms forbidden in a hot-path body, with the label used in
/// diagnostics. `.collect::<` catches the turbofish spelling `.collect()`
/// misses.
const ALLOCATORS: &[(&str, &str)] = &[
    ("Vec::new(", "`Vec::new`"),
    ("Box::new(", "`Box::new`"),
    (".collect()", "`.collect()`"),
    (".collect::<", "`.collect()`"),
];

/// Byte offset of the `fn` keyword in `code` (word-boundary checked), if
/// any.
fn fn_keyword(code: &str) -> Option<usize> {
    for abs in super::find_all(code, "fn ") {
        let left_ok = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| is_ident_char(c) || c == '\'');
        if left_ok {
            return Some(abs);
        }
    }
    None
}

/// Functions annotated `// lint: hotpath`: `(marker line, fn line, name)`.
/// The marker must sit on the function's own line or in the comment block
/// directly above it (attributes and doc comments may intervene).
fn hotpath_functions(c: &Check<'_>) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for s in parse_suppressions(&c.lines) {
        if !matches!(s.marker, Marker::Hotpath) {
            continue;
        }
        // Scan a short window downward for the `fn name` the marker
        // annotates, skipping attributes and blank/doc lines.
        for ln in s.line..(s.line + 7).min(c.lines.len()) {
            let code = c.lines[ln].code.trim();
            let Some(pos) = fn_keyword(code) else {
                continue;
            };
            let after = code[pos + "fn ".len()..].trim_start();
            let name: String = after.chars().take_while(|&ch| is_ident_char(ch)).collect();
            if name.is_empty() {
                continue;
            }
            out.push((s.line, ln, name));
            break;
        }
    }
    out
}

/// Runs M001 over the file. Applies to tests too: a marked helper inside a
/// test module makes the same per-call claim.
pub fn run(c: &mut Check<'_>) {
    for (marker_ln, fn_ln, name) in hotpath_functions(c) {
        // The marker resolved to a function: it is live, whatever the body
        // holds. Unresolved markers stay unconsumed and become S001 debt.
        c.attested(marker_ln, &|m| matches!(m, Marker::Hotpath));
        // Brace-count the body on stripped code (string/char contents are
        // blanked, so literal braces cannot desynchronize the count).
        let mut depth = 0i64;
        let mut started = false;
        for ln in fn_ln..c.lines.len() {
            let code = c.lines[ln].code.clone();
            let in_body_at_entry = started;
            let mut ended = false;
            for ch in code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth -= 1;
                        if started && depth == 0 {
                            ended = true;
                        }
                    }
                    // `fn f(…) -> T;` before any brace: a bodyless
                    // declaration (trait item) — nothing to scan.
                    ';' if !started => ended = true,
                    _ => {}
                }
                if ended {
                    break;
                }
            }
            if started || in_body_at_entry {
                for (needle, label) in ALLOCATORS {
                    if code.contains(needle) && !c.allowed(ln, "M001") {
                        c.push(
                            ln,
                            "M001",
                            format!(
                                "{label} allocates per call inside `// lint: hotpath` function \
                                 `{name}`; reuse scratch (a caller-provided buffer or a \
                                 `mem::take`d field) instead"
                            ),
                        );
                    }
                }
            }
            if ended {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::check_file;

    const SCHED: &str = "crates/scheduler/src/foo.rs";

    fn codes(src: &str) -> Vec<&'static str> {
        check_file(SCHED, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn m001_fires_on_each_allocator_form() {
        let vec_new =
            "// lint: hotpath\nfn hot() -> Vec<u32> {\n    let v = Vec::new();\n    v\n}\n";
        assert_eq!(codes(vec_new), vec!["M001"]);
        let box_new = "// lint: hotpath\nfn hot() -> Box<u32> {\n    Box::new(1)\n}\n";
        assert_eq!(codes(box_new), vec!["M001"]);
        let collect = "// lint: hotpath\nfn hot(xs: &[u32]) -> Vec<u32> {\n    xs.iter().copied().collect()\n}\n";
        assert_eq!(codes(collect), vec!["M001"]);
        let turbofish = "// lint: hotpath\nfn hot(xs: &[u32]) -> usize {\n    xs.iter().collect::<Vec<_>>().len()\n}\n";
        assert_eq!(codes(turbofish), vec!["M001"]);
    }

    #[test]
    fn m001_is_scoped_to_the_marked_body() {
        // Unmarked functions may allocate freely…
        let unmarked = "fn cold() -> Vec<u32> {\n    let v = Vec::new();\n    v\n}\n";
        assert!(codes(unmarked).is_empty());
        // …including ones directly after a marked body's closing brace.
        let after = "// lint: hotpath\nfn hot(buf: &mut Vec<u32>) {\n    buf.clear();\n}\n\nfn cold() -> Vec<u32> {\n    Vec::new()\n}\n";
        assert!(codes(after).is_empty());
    }

    #[test]
    fn m001_marker_survives_attributes_and_one_liners() {
        let attr = "// lint: hotpath\n#[allow(clippy::too_many_arguments)]\nfn hot(a: u32, b: u32) -> Vec<u32> {\n    Vec::new()\n}\n";
        assert_eq!(codes(attr), vec!["M001"]);
        let one_liner = "// lint: hotpath\nfn hot() -> Vec<u32> { Vec::new() }\n";
        assert_eq!(codes(one_liner), vec!["M001"]);
    }

    #[test]
    fn m001_escape_hatch_and_clean_bodies() {
        let allowed = "// lint: hotpath\nfn hot() -> Vec<u32> {\n    Vec::new() // lint: allow(M001) — cold error branch\n}\n";
        assert!(codes(allowed).is_empty());
        // A clean marked body is no diagnostic at all — the marker is a live
        // declaration, not S001 debt.
        let clean = "// lint: hotpath\nfn hot(buf: &mut Vec<u32>) {\n    buf.push(1);\n}\n";
        assert!(codes(clean).is_empty());
    }

    #[test]
    fn hotpath_marker_with_no_function_is_suppression_debt() {
        let stray = "// lint: hotpath\nstruct NotAFn;\n";
        assert_eq!(codes(stray), vec!["S001"]);
    }
}
