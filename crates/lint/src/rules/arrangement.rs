//! A-family rule: arrangement discipline.
//!
//! * **A001** — derived scheduler state is mutable only through the delta
//!   layer. Structs annotated `// lint: arrangement` in delta-layer files
//!   (`…/delta/…`) hold maintained arrangements; outside those files,
//!   constructing a guarded struct or writing to a guarded field bypasses
//!   the layer's `apply` entry point and silently desynchronizes the
//!   arrangements from the base queues they are derived from.
//!
//! The guarded type and field names are collected workspace-wide by
//! [`crate::scan_context`], so a mutation in any crate is caught even though
//! the declaration lives in `crates/scheduler/src/delta/`. Inside the delta
//! layer itself the rule is silent — that module *is* the sanctioned home —
//! and the rule consumes each declaration marker so the S001 audit treats a
//! marker that annotates no struct as debt.

use crate::source::{arrangement_declarations, Check, Marker};

use super::{find_all, in_delta_scope, is_ident_char};

/// Mutating method calls on a guarded field. `.sort` is a prefix on purpose:
/// it covers `sort()`, `sort_by(…)`, `sort_unstable…`.
const MUTATOR_CALLS: &[&str] = &[
    ".insert(",
    ".remove(",
    ".push(",
    ".pop(",
    ".clear(",
    ".drain(",
    ".extend(",
    ".retain(",
    ".append(",
    ".truncate(",
    ".sort",
];

const COMPOUND_ASSIGN: &[&str] = &["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="];

/// What kind of mutation (if any) the text directly after `.field` performs.
fn mutation_after(rest: &str) -> Option<&'static str> {
    let r = rest.trim_start();
    if COMPOUND_ASSIGN.iter().any(|op| r.starts_with(op)) {
        return Some("compound assignment to");
    }
    if r.starts_with('=') && !r.starts_with("==") && !r.starts_with("=>") {
        return Some("assignment to");
    }
    if MUTATOR_CALLS.iter().any(|m| rest.starts_with(m)) {
        return Some("mutating call on");
    }
    None
}

/// Finds `.{field}` read off a receiver (`x.field`, `f().field`,
/// `xs[i].field`) followed by a mutation; also catches rustfmt's split
/// chains (previous line ends with `.field`, this line starts with a
/// mutating call).
fn field_mutation(code: &str, prev_code: &str, field: &str) -> Option<&'static str> {
    let needle = format!(".{field}");
    for abs in find_all(code, &needle) {
        let recv = code[..abs].chars().next_back();
        if !recv.is_some_and(|c| is_ident_char(c) || c == ')' || c == ']') {
            continue;
        }
        let rest = &code[abs + needle.len()..];
        if rest.chars().next().is_some_and(is_ident_char) {
            continue; // longer identifier, not this field
        }
        if let Some(kind) = mutation_after(rest) {
            return Some(kind);
        }
    }
    let prev = prev_code.trim_end();
    if prev.ends_with(&needle)
        && prev[..prev.len() - needle.len()]
            .chars()
            .next_back()
            .is_some_and(|c| is_ident_char(c) || c == ')' || c == ']')
        && MUTATOR_CALLS
            .iter()
            .any(|m| code.trim_start().starts_with(m))
    {
        return Some("mutating call on");
    }
    None
}

/// `Ty { … }` in expression position (type positions — `impl Ty {`,
/// `-> Ty {`, `-> &mut Ty {`, `struct Ty {` … — are declarations, not
/// constructions).
fn literal_in_expression(code: &str, ty: &str) -> bool {
    for abs in find_all(code, ty) {
        let from = abs + ty.len();
        let left_ok = abs == 0 || !is_ident_char(code[..abs].chars().next_back().unwrap_or(' '));
        let rest = &code[from..];
        if !left_ok
            || !rest.trim_start().starts_with('{')
            || rest.starts_with(|c: char| is_ident_char(c))
        {
            continue;
        }
        let before = code[..abs].trim_end();
        let type_position = ["impl", "for", "struct", "enum", "trait", "dyn"]
            .iter()
            .any(|kw| {
                before.ends_with(kw)
                    && !before[..before.len() - kw.len()]
                        .chars()
                        .next_back()
                        .is_some_and(is_ident_char)
            })
            || return_type_prefix(before).ends_with("->")
            || before.ends_with(':');
        if !type_position {
            return true;
        }
    }
    false
}

/// `before` with a trailing `&` / `&mut` reference prefix removed, so a
/// borrowed return type (`-> &mut Ty {`) is recognised as a type position.
/// Only the `->` check uses it: `= &Ty { … }` is still a construction.
fn return_type_prefix(before: &str) -> &str {
    let b = before
        .strip_suffix("mut")
        .filter(|b| b.ends_with(|c: char| c.is_whitespace() || c == '&'))
        .map_or(before, str::trim_end);
    b.strip_suffix('&').map_or(before, str::trim_end)
}

/// Runs A001 over the file. Applies to tests too: a test that pokes
/// arrangement fields directly invalidates the oracle-equivalence contract
/// it is supposed to check.
pub fn run(c: &mut Check<'_>) {
    if in_delta_scope(c.rel) {
        // The sanctioned home. Consume each declaration marker so S001
        // flags only the ones that annotate nothing.
        for (ln, _, _) in arrangement_declarations(&c.lines) {
            c.attested(ln, &|m| matches!(m, Marker::Arrangement));
        }
        return;
    }
    let ctx = c.ctx;
    if ctx.arrangement_types.is_empty() && ctx.arrangement_fields.is_empty() {
        return;
    }
    for ln in 0..c.lines.len() {
        let code = c.lines[ln].code.clone();
        if code.trim().is_empty() {
            continue;
        }
        for ty in &ctx.arrangement_types {
            if literal_in_expression(&code, ty) && !c.allowed(ln, "A001") {
                c.push(
                    ln,
                    "A001",
                    format!(
                        "`{ty} {{ … }}` struct literal outside the delta layer bypasses the \
                         arrangement `apply` entry point; arrangement state is built and \
                         mutated only inside `delta/`"
                    ),
                );
            }
        }
        let prev_code = if ln > 0 {
            c.lines[ln - 1].code.clone()
        } else {
            String::new()
        };
        for field in &ctx.arrangement_fields {
            if let Some(kind) = field_mutation(&code, &prev_code, field) {
                if !c.allowed(ln, "A001") {
                    c.push(
                        ln,
                        "A001",
                        format!(
                            "{kind} arrangement field `.{field}` outside the delta layer \
                             bypasses the `apply` entry point and desynchronizes derived \
                             state; route the update through a typed delta"
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_file_in, scan_context};

    const DELTA: &str = "crates/scheduler/src/delta/mod.rs";
    const SCHED: &str = "crates/scheduler/src/queues.rs";

    const DECL: &str = "// lint: arrangement\n#[derive(Debug)]\npub(crate) struct Core {\n    slots: BTreeMap<u32, u32>,\n    epoch: u64,\n}\nimpl Core {\n    fn apply(&mut self) {\n        self.slots.insert(1, 2);\n        self.epoch += 1;\n    }\n}\n";

    fn codes_with_decl(rel: &str, src: &str) -> Vec<&'static str> {
        let files = vec![
            (DELTA.to_string(), DECL.to_string()),
            (rel.to_string(), src.to_string()),
        ];
        let ctx = scan_context(&files);
        check_file_in(rel, src, &ctx)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn a001_fires_on_field_writes_outside_delta() {
        assert_eq!(
            codes_with_decl(SCHED, "fn f(c: &mut Core) { c.slots.insert(1, 2); }\n"),
            vec!["A001"]
        );
        assert_eq!(
            codes_with_decl(SCHED, "fn f(c: &mut Core) { c.epoch += 1; }\n"),
            vec!["A001"]
        );
        assert_eq!(
            codes_with_decl(SCHED, "fn f(c: &mut Core) { c.epoch = 0; }\n"),
            vec!["A001"]
        );
        // Chains split across lines by rustfmt still count.
        assert_eq!(
            codes_with_decl(
                SCHED,
                "fn f(c: &mut Core) {\n    c.slots\n        .insert(1, 2);\n}\n"
            ),
            vec!["A001"]
        );
        // Fires in test code too.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t(c: &mut Core) { c.slots.clear(); }\n}\n";
        assert_eq!(codes_with_decl(SCHED, in_test), vec!["A001"]);
    }

    #[test]
    fn a001_fires_on_struct_literals_outside_delta() {
        assert_eq!(
            codes_with_decl(SCHED, "fn f() { let c = Core { slots: x(), epoch: 0 }; }\n"),
            vec!["A001"]
        );
        // Type positions are not constructions.
        assert!(codes_with_decl(SCHED, "impl Core { }\n").is_empty());
        assert!(codes_with_decl(SCHED, "fn f(c: &Core) -> u64 { c.read() }\n").is_empty());
        // Borrowed return types are type positions too; a borrowed literal
        // is still a construction.
        assert!(codes_with_decl(SCHED, "fn f(w: &mut W) -> &mut Core {\n").is_empty());
        assert!(codes_with_decl(SCHED, "fn f(w: &W) -> &Core {\n").is_empty());
        assert_eq!(
            codes_with_decl(
                SCHED,
                "fn f() { let c = &Core { slots: x(), epoch: 0 }; }\n"
            ),
            vec!["A001"]
        );
    }

    #[test]
    fn a001_allows_reads_method_calls_and_the_delta_layer_itself() {
        // Reads and comparisons are fine anywhere.
        assert!(codes_with_decl(SCHED, "fn f(c: &Core) -> bool { c.epoch == 3 }\n").is_empty());
        assert!(codes_with_decl(SCHED, "fn f(c: &Core) -> u64 { c.epoch }\n").is_empty());
        // A method that merely *shares a name* with a field is a call, not a
        // field write.
        assert!(codes_with_decl(SCHED, "fn f(w: &W) -> u64 { w.epoch() }\n").is_empty());
        assert!(codes_with_decl(SCHED, "fn f(w: &W) { w.slots(3); }\n").is_empty());
        // Inside delta/, mutation is the whole point.
        let files = vec![(DELTA.to_string(), DECL.to_string())];
        let ctx = scan_context(&files);
        assert!(check_file_in(DELTA, DECL, &ctx).is_empty());
    }

    #[test]
    fn a001_escape_hatch_and_unrelated_names() {
        let allowed = "fn f(c: &mut Core) { c.epoch += 1; // lint: allow(A001) — test rig\n}\n";
        assert!(codes_with_decl(SCHED, allowed).is_empty());
        // `epochs` is a different identifier.
        assert!(codes_with_decl(SCHED, "fn f(s: &mut S) { s.epochs += 1; }\n").is_empty());
    }

    #[test]
    fn arrangement_marker_outside_a_struct_is_suppression_debt() {
        let stray = "// lint: arrangement\nfn f() -> u32 { 1 }\n";
        assert_eq!(codes_with_decl(SCHED, stray), vec!["S001"]);
    }
}
