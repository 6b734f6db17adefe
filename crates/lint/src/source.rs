//! Per-file source model shared by every rule module.
//!
//! Built on the [`crate::lexer`] token stream, this module provides:
//!
//! * [`Line`] / [`strip_source`] — the per-line "code with literals blanked,
//!   comments split out" view that the line-level rules (D/F/P families)
//!   match against. String and char literal *contents* are blanked but the
//!   delimiters survive, so token boundaries are preserved; rustdoc text is
//!   kept separate from plain comments.
//! * [`Suppression`] / the suppression grammar — `lint:` markers are parsed
//!   once, from **plain comments only** (a `lint:` mention in rustdoc is
//!   documentation, not an attestation), and only when the marker starts the
//!   comment (so prose that merely *mentions* `// lint: sorted` in backticks
//!   does not suppress anything).
//! * [`Check`] — the mutable per-file state rules write diagnostics into.
//!   Attestation lookups go through [`Check::attested`], which records which
//!   suppression justified which candidate violation; the S001 audit then
//!   flags every suppression that justified nothing as stale.

use std::collections::BTreeSet;

use crate::lexer::{lex, Token, TokenKind};
use crate::{Context, Diagnostic};

/// One source line after comment/string stripping.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with comments removed and string/char literal *contents* blanked
    /// (delimiters are preserved so token boundaries survive).
    pub code: String,
    /// Concatenated **plain** comment text on this line — the only text the
    /// suppression grammar is parsed from.
    pub comment: String,
    /// Concatenated rustdoc text on this line (`///`, `//!`, `/**`, `/*!`).
    pub doc: String,
}

/// Splits lexed tokens into per-line [`Line`] views.
pub fn lines_of(src: &str, tokens: &[Token]) -> Vec<Line> {
    let n_lines = src.lines().count();
    let mut out = vec![Line::default(); n_lines];
    let push = |out: &mut Vec<Line>, line1: usize, f: &dyn Fn(&mut Line)| {
        if line1 >= 1 && line1 <= out.len() {
            f(&mut out[line1 - 1]);
        }
    };
    for t in tokens {
        match t.kind {
            TokenKind::Str | TokenKind::RawStr => {
                // Blank the contents, keep one delimiter per end so the code
                // view still shows "a string was here".
                let newlines = t.text.matches('\n').count();
                if newlines == 0 {
                    push(&mut out, t.line, &|l| l.code.push_str("\"\""));
                } else {
                    push(&mut out, t.line, &|l| l.code.push('"'));
                    push(&mut out, t.line + newlines, &|l| l.code.push('"'));
                }
            }
            TokenKind::Char => push(&mut out, t.line, &|l| l.code.push(' ')),
            TokenKind::LineComment { doc } | TokenKind::BlockComment { doc } => {
                let content = t.comment_content().unwrap_or("");
                for (k, seg) in content.split('\n').enumerate() {
                    let seg = seg.to_string();
                    push(&mut out, t.line + k, &move |l| {
                        let field = if doc { &mut l.doc } else { &mut l.comment };
                        field.push_str(&seg);
                    });
                }
            }
            _ => {
                for (k, seg) in t.text.split('\n').enumerate() {
                    let seg = seg.to_string();
                    push(&mut out, t.line + k, &move |l| l.code.push_str(&seg));
                }
            }
        }
    }
    out
}

/// Lexes and strips `src` in one call (compatibility shim over `lines_of`).
pub fn strip_source(src: &str) -> Vec<Line> {
    lines_of(src, &lex(src))
}

/// Marks lines that belong to `#[cfg(test)]` / `#[test]` items by brace
/// counting on stripped code.
pub fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region_floor: Option<i64> = None;
    for (ln, l) in lines.iter().enumerate() {
        if region_floor.is_some() {
            pending = false; // already inside a test region
            mask[ln] = true;
        }
        if l.code.contains("#[cfg(test)]") || l.code.contains("#[test]") {
            pending = true;
        }
        if pending {
            mask[ln] = true;
        }
        for c in l.code.chars() {
            match c {
                '{' => {
                    if pending && region_floor.is_none() {
                        region_floor = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_floor.is_some_and(|f| depth <= f) {
                        region_floor = None;
                    }
                }
                // `#[cfg(test)] mod tests;` — attribute applies to a
                // braceless item; stop waiting for `{`.
                ';' if pending && region_floor.is_none() => {
                    pending = false;
                }
                _ => {}
            }
        }
    }
    mask
}

/// What a `lint:` marker claims to justify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Marker {
    /// `lint: sorted` — D001; order is re-established nearby.
    Sorted,
    /// `lint: invariant — why` — P001/C001 `expect`/panic attestations.
    Invariant,
    /// `lint: hotpath` — M001 declaration: the function below is a per-event
    /// hot path; per-call allocations are forbidden in its body.
    Hotpath,
    /// `lint: allow(<RULE>) — reason` — unconditional per-rule escape hatch.
    Allow(String),
    /// A `lint:` marker that matches no known form (malformed suppression).
    Unknown(String),
}

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 0-based line index the marker sits on.
    pub line: usize,
    /// Parsed marker form.
    pub marker: Marker,
}

/// Parses the suppression grammar out of plain comments. The marker must
/// *start* the comment content; one marker per comment line.
pub fn parse_suppressions(lines: &[Line]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (ln, l) in lines.iter().enumerate() {
        let c = l.comment.trim_start();
        let Some(rest) = c.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let marker = if rest.starts_with("sorted") {
            Marker::Sorted
        } else if rest.starts_with("invariant") {
            Marker::Invariant
        } else if rest.starts_with("hotpath") {
            Marker::Hotpath
        } else if let Some(r) = rest.strip_prefix("allow(") {
            match r.split(')').next() {
                Some(rule)
                    if !rule.is_empty() && rule.chars().all(|c| c.is_ascii_alphanumeric()) =>
                {
                    Marker::Allow(rule.to_string())
                }
                _ => Marker::Unknown(c.to_string()),
            }
        } else {
            Marker::Unknown(c.to_string())
        };
        out.push(Suppression { line: ln, marker });
    }
    out
}

/// Mutable state for checking one file: the token stream, line views, test
/// mask, parsed suppressions with use-tracking, and the diagnostics sink.
pub struct Check<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel: &'a str,
    /// Cross-file context (Mutex-typed names, …).
    pub ctx: &'a Context,
    /// Full-fidelity token stream.
    pub tokens: Vec<Token>,
    /// Per-line stripped views.
    pub lines: Vec<Line>,
    /// `true` for lines inside `#[cfg(test)]` / `#[test]` items.
    pub mask: Vec<bool>,
    /// Parsed suppression markers.
    pub suppressions: Vec<Suppression>,
    used: Vec<bool>,
    /// Diagnostics found so far.
    pub diags: Vec<Diagnostic>,
}

impl<'a> Check<'a> {
    /// Lexes `src` and prepares all per-file state.
    pub fn new(rel: &'a str, src: &str, ctx: &'a Context) -> Self {
        let tokens = lex(src);
        let lines = lines_of(src, &tokens);
        let mask = test_mask(&lines);
        let suppressions = parse_suppressions(&lines);
        let used = vec![false; suppressions.len()];
        Check {
            rel,
            ctx,
            tokens,
            lines,
            mask,
            suppressions,
            used,
            diags: Vec::new(),
        }
    }

    /// Records a diagnostic at 0-based line `ln`.
    pub fn push(&mut self, ln: usize, rule: &'static str, message: String) {
        self.diags.push(Diagnostic {
            file: self.rel.to_string(),
            line: ln + 1,
            rule,
            message,
        });
    }

    fn suppression_hit(&mut self, ln: usize, want: &dyn Fn(&Marker) -> bool) -> bool {
        let mut hit = false;
        for (i, s) in self.suppressions.iter().enumerate() {
            if s.line == ln && want(&s.marker) {
                self.used[i] = true;
                hit = true;
            }
        }
        hit
    }

    /// Whether a matching marker attests the violation at 0-based line `ln`:
    /// on the line itself, on the same multi-line statement, or in the
    /// contiguous comment block directly above. Walking upward: a line whose
    /// code ends with `;`, `{` or `}` terminates the previous statement, so
    /// the walk stops after the comment block that follows it; a blank,
    /// comment-free line also stops it. A hit marks the suppression *used*
    /// for the S001 audit.
    pub fn attested(&mut self, ln: usize, want: &dyn Fn(&Marker) -> bool) -> bool {
        if self.suppression_hit(ln, want) {
            return true;
        }
        let mut p = ln;
        let mut in_comment_block = false;
        while p > 0 {
            p -= 1;
            let code_empty = self.lines[p].code.trim().is_empty();
            let comment_empty = self.lines[p].comment.trim().is_empty();
            if code_empty {
                if comment_empty && self.lines[p].doc.trim().is_empty() {
                    return false; // blank line: nothing attaches across it
                }
                in_comment_block = true;
                if self.suppression_hit(p, want) {
                    return true;
                }
                continue;
            }
            if in_comment_block {
                return false; // code above the comment block belongs elsewhere
            }
            let code = self.lines[p].code.trim_end();
            if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
                return false; // previous statement ended here
            }
            // Same-statement continuation (an open method chain, binding, …).
            if self.suppression_hit(p, want) {
                return true;
            }
        }
        false
    }

    /// `lint: invariant` attestation lookup.
    pub fn invariant_attested(&mut self, ln: usize) -> bool {
        self.attested(ln, &|m| matches!(m, Marker::Invariant))
    }

    /// `lint: sorted` attestation lookup (marker only; D001 layers its own
    /// sort-evidence requirement on top).
    pub fn sorted_attested(&mut self, ln: usize) -> bool {
        self.attested(ln, &|m| matches!(m, Marker::Sorted))
    }

    /// `lint: allow(<rule>)` escape-hatch lookup.
    pub fn allowed(&mut self, ln: usize, rule: &str) -> bool {
        self.attested(ln, &|m| matches!(m, Marker::Allow(r) if r == rule))
    }

    /// Suppressions that never justified a candidate violation (S001 input).
    pub fn stale_suppressions(&self) -> Vec<&Suppression> {
        self.suppressions
            .iter()
            .zip(&self.used)
            .filter(|(s, &used)| !used && !matches!(s.marker, Marker::Unknown(_)))
            .map(|(s, _)| s)
            .collect()
    }

    /// Malformed `lint:` markers (S001 input).
    pub fn malformed_suppressions(&self) -> Vec<&Suppression> {
        self.suppressions
            .iter()
            .filter(|s| matches!(s.marker, Marker::Unknown(_)))
            .collect()
    }
}

fn trailing_ident(s: &str) -> Option<String> {
    let trimmed = s.trim_end();
    let mut start = trimmed.len();
    for (i, c) in trimmed.char_indices().rev() {
        if c.is_alphanumeric() || c == '_' {
            start = i;
        } else {
            break;
        }
    }
    if start < trimmed.len() && !trimmed.as_bytes()[start].is_ascii_digit() {
        Some(trimmed[start..].to_string())
    } else {
        None
    }
}

/// Collects identifiers declared or assigned with any of the given wrapper
/// type names in this file: field/param/let type annotations
/// (`name: Arc<Mutex<…>>`, through arbitrary generic nesting) and
/// constructor assignments (`name = Mutex::new(…)`, `let name =
/// Arc::new(Mutex::new(…))`).
pub fn declared_names(lines: &[Line], types: &[&str]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for l in lines {
        let code = &l.code;
        for ty in types {
            let mut from = 0usize;
            while let Some(pos) = code[from..].find(ty) {
                let abs = from + pos;
                from = abs + ty.len();
                // Word boundaries (reject e.g. `MutexLike`, `FauxMutex`).
                if code[from..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                if code[..abs]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    continue;
                }
                if let Some(name) = decl_name_before(code, abs) {
                    names.insert(name);
                }
            }
        }
    }
    names
}

/// Walks left from a type-name occurrence at byte offset `abs`, skipping
/// generic/constructor wrapping (`Vec<Arc<`, `Arc::new(`, `&`, `dyn`,
/// `mut`), to the `name:` or `name =` that binds it.
fn decl_name_before(code: &str, abs: usize) -> Option<String> {
    let mut s = code[..abs].trim_end();
    loop {
        if let Some(rest) = s.strip_suffix("::") {
            // `Arc::new(Mutex…` — strip the path segment.
            let rest = rest.trim_end();
            let name = trailing_ident(rest)?;
            s = rest[..rest.len() - name.len()].trim_end();
            continue;
        }
        if s.ends_with('<') || s.ends_with('(') || s.ends_with('&') {
            s = s[..s.len() - 1].trim_end();
            if let Some(id) = trailing_ident(s) {
                s = s[..s.len() - id.len()].trim_end();
            }
            continue;
        }
        if s.ends_with("dyn") || s.ends_with("mut") {
            s = s[..s.len() - 3].trim_end();
            continue;
        }
        break;
    }
    if let Some(rest) = s.strip_suffix(':') {
        if !rest.ends_with(':') {
            return trailing_ident(rest);
        }
        return None;
    }
    if let Some(rest) = s.strip_suffix('=') {
        let rest_t = rest.trim_end();
        if !rest_t.ends_with(['=', '!', '<', '>', '+', '-', '*', '/', '%', '&', '|', '^']) {
            return trailing_ident(rest_t);
        }
    }
    None
}

/// Collects identifiers bound to hash-ordered collections in this file
/// (D001 input): std's `HashMap`/`HashSet` and their fixed-hasher aliases
/// `FastMap`/`FastSet`.
pub fn hash_collection_names(lines: &[Line]) -> BTreeSet<String> {
    declared_names(lines, &["HashMap", "HashSet", "FastMap", "FastSet"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_comments_and_strings() {
        let lines = strip_source(
            "let x = \"a // not a comment\"; // real\nlet y = 1; /* block\nstill block */ let z = 2;",
        );
        assert_eq!(lines[0].code.trim(), "let x = \"\";");
        assert!(lines[0].comment.contains("real"));
        assert_eq!(lines[1].code.trim(), "let y = 1;");
        assert!(lines[1].comment.contains("block"));
        assert_eq!(lines[2].code.trim(), "let z = 2;");
        assert!(lines[2].comment.contains("still block"));
    }

    #[test]
    fn stripper_separates_doc_from_plain_comments() {
        let lines = strip_source("/// doc text lint: sorted\n// plain lint: sorted\nfn f() {}\n");
        assert!(lines[0].doc.contains("lint: sorted"));
        assert!(lines[0].comment.is_empty());
        assert!(lines[1].comment.contains("lint: sorted"));
    }

    #[test]
    fn stripper_handles_char_literals_and_lifetimes() {
        let lines =
            strip_source("fn f<'a>(c: char) -> &'a str { if c == '\"' { \"x\" } else { \"y\" } }");
        assert!(!lines[0].code.contains('x'));
        assert!(lines[0].code.contains("<'a>"));
    }

    #[test]
    fn stripper_handles_raw_strings() {
        let lines = strip_source("let s = r#\"unwrap() inside\"#; s.len();");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("s.len()"));
    }

    #[test]
    fn multiline_strings_keep_line_count() {
        let src = "let s = \"line one\nline two\nline three\";\nlet t = 1;\n";
        let lines = strip_source(src);
        assert_eq!(lines.len(), 4);
        assert!(!lines[1].code.contains("two"));
        assert_eq!(lines[3].code.trim(), "let t = 1;");
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { v.unwrap(); }\n}\nfn live2() {}\n";
        let lines = strip_source(src);
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn suppression_grammar_parses_known_markers() {
        let lines = strip_source(
            "a(); // lint: sorted — why\nb(); // lint: invariant — why\nc(); // lint: allow(D002) — why\nd(); // lint: frobnicate\ne(); // mentions `lint: sorted` mid-sentence? no: backticks\nf(); // lint: hotpath\n",
        );
        let sup = parse_suppressions(&lines);
        assert_eq!(sup.len(), 5);
        assert_eq!(sup[0].marker, Marker::Sorted);
        assert_eq!(sup[1].marker, Marker::Invariant);
        assert_eq!(sup[2].marker, Marker::Allow("D002".to_string()));
        assert!(matches!(sup[3].marker, Marker::Unknown(_)));
        assert_eq!(sup[4].marker, Marker::Hotpath);
    }

    #[test]
    fn suppressions_in_doc_comments_are_ignored() {
        let lines = strip_source("/// lint: sorted\n//! lint: invariant\nfn f() {}\n");
        assert!(parse_suppressions(&lines).is_empty());
    }

    #[test]
    fn declared_names_sees_nested_generics_and_constructors() {
        let lines = strip_source(
            "struct S {\n    bufs: Vec<Arc<Mutex<JsonlRecorder>>>,\n    inner: Option<Arc<Mutex<dyn Recorder>>>,\n}\nfn f() { let buf = Arc::new(Mutex::new(0)); }\nfn g(guard: &Mutex<u32>) {}\nfn h() -> Vec<Arc<Mutex<u8>>> { todo() }\n",
        );
        let names = declared_names(&lines, &["Mutex", "RwLock"]);
        assert!(names.contains("bufs"));
        assert!(names.contains("inner"));
        assert!(names.contains("buf"));
        assert!(names.contains("guard"));
        // The return-position mention binds nothing.
        assert!(!names.contains("h"));
    }

    #[test]
    fn hash_names_still_found_through_paths_and_assignments() {
        let lines = strip_source(
            "struct S { m: std::collections::HashMap<u32, u32> }\nfn f() { let q = HashMap::new(); }\n",
        );
        let names = hash_collection_names(&lines);
        assert!(names.contains("m"), "{names:?}");
        assert!(names.contains("q"), "{names:?}");
    }
}
