//! D-family rules: replay determinism.
//!
//! * **D001** — no `HashMap`/`HashSet` iteration in dispatch-path crates.
//! * **D002** — no wall-clock or entropy sources outside the sanctioned
//!   shims.

use crate::source::{hash_collection_names, Check, Line};

use super::{find_all, in_dispatch_scope, is_ident_char};

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain()",
];

const WALLCLOCK_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "available_parallelism",
];

/// The one environment probe with a sanctioned home: `available_parallelism`
/// sizes the `jaws-par` worker pool, whose ordered-map contract guarantees
/// results independent of the thread count — so the probe cannot leak into
/// simulated results. Everywhere else it is a D002 violation like any other
/// ambient-environment read.
fn token_exempt(tok: &str, rel: &str) -> bool {
    tok == "available_parallelism" && rel.starts_with("crates/par/")
}

fn wallclock_exempt(rel: &str) -> bool {
    rel.starts_with("crates/bench/")
        || rel == "crates/cache/src/pool.rs"
        || rel == "crates/obs/tests/overhead_smoke.rs"
}

/// Detects a method chain split across lines: the previous code line ends
/// with `name` (at a word boundary) and this line begins with an iteration
/// method — rustfmt's one-method-per-line style for long chains.
fn continues_iteration(prev_code: &str, code: &str, name: &str) -> bool {
    let prev = prev_code.trim_end();
    prev.strip_suffix(name)
        .is_some_and(|rest| !rest.chars().next_back().is_some_and(is_ident_char))
        && ITER_METHODS
            .iter()
            .any(|m| code.trim_start().starts_with(m))
}

/// Finds `name` as a whole identifier followed directly by one of
/// `ITER_METHODS`, or consumed by a `for … in` loop.
fn iterates_collection(code: &str, name: &str) -> bool {
    for abs in find_all(code, name) {
        let left_ok = abs == 0 || !is_ident_char(code[..abs].chars().next_back().unwrap_or(' '));
        if !left_ok {
            continue;
        }
        let rest = &code[abs + name.len()..];
        if ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
            return true;
        }
        // `for x in &name {` / `for (k, v) in name {`
        if code[..abs].contains(" in ")
            && code.trim_start().starts_with("for ")
            && rest.trim_start().starts_with('{')
        {
            return true;
        }
    }
    false
}

fn sort_evidence_nearby(lines: &[Line], ln: usize) -> bool {
    let lo = ln.saturating_sub(6);
    let hi = (ln + 7).min(lines.len());
    lines[lo..hi].iter().any(|l| {
        l.code.contains("sort") || l.code.contains("BTreeMap") || l.code.contains("BTreeSet")
    })
}

/// Runs D001–D002 over the file.
pub fn run(c: &mut Check<'_>) {
    let hash_names = hash_collection_names(&c.lines);
    for ln in 0..c.lines.len() {
        let code = c.lines[ln].code.clone();
        if code.trim().is_empty() {
            continue;
        }

        // D002 — wall-clock / entropy sources (applies to tests too: a timed
        // test is a flaky test).
        if !wallclock_exempt(c.rel) {
            for tok in WALLCLOCK_TOKENS {
                if token_exempt(tok, c.rel) {
                    continue;
                }
                if code.contains(tok) && !c.allowed(ln, "D002") {
                    c.push(
                        ln,
                        "D002",
                        format!(
                            "wall-clock/entropy source `{tok}` outside crates/bench and the \
                             cache pool timing shim breaks replayability; thread a seeded RNG \
                             or simulated clock instead"
                        ),
                    );
                }
            }
        }

        if c.mask[ln] {
            continue;
        }

        // D001 — HashMap/HashSet iteration in dispatch paths.
        if in_dispatch_scope(c.rel) {
            let prev_code = if ln > 0 {
                c.lines[ln - 1].code.clone()
            } else {
                String::new()
            };
            for name in &hash_names {
                if iterates_collection(&code, name) || continues_iteration(&prev_code, &code, name)
                {
                    let sorted_ok = c.sorted_attested(ln) && sort_evidence_nearby(&c.lines, ln);
                    if !sorted_ok && !c.allowed(ln, "D001") {
                        c.push(
                            ln,
                            "D001",
                            format!(
                                "iteration over unordered hash collection `{name}` can reorder \
                                 scheduling decisions; use BTreeMap/BTreeSet or sort and attest \
                                 with `// lint: sorted`"
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::check_file;

    const SCHED: &str = "crates/scheduler/src/foo.rs";

    fn codes(rel: &str, src: &str) -> Vec<&'static str> {
        check_file(rel, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d001_fires_on_hashmap_iteration_and_respects_attestation() {
        let bad = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\nimpl S { fn f(&self) { for _ in self.m.keys() {} } }\n";
        assert_eq!(codes(SCHED, bad), vec!["D001"]);
        let attested = "struct S { m: std::collections::HashMap<u32, u32> }\nimpl S { fn f(&self) -> Vec<u32> {\n    let mut v: Vec<u32> = self.m.keys().copied().collect(); // lint: sorted\n    v.sort();\n    v\n} }\n";
        assert!(codes(SCHED, attested).is_empty());
        // Attestation without sort evidence still fires.
        let lying = "struct S { m: std::collections::HashMap<u32, u32> }\nimpl S { fn f(&self) -> u32 { self.m.values().sum() // lint: some\n} }\n";
        let lying = lying.replace("lint: some", "lint: sorted");
        assert_eq!(codes(SCHED, &lying), vec!["D001"]);
    }

    #[test]
    fn d001_sees_fast_map_fields_and_respects_attestation() {
        // The fixed-hasher aliases iterate in an order set by insertion
        // history and capacity, so they are held to the same rule as std's.
        let bad = "use jaws_morton::FastMap;\nstruct S { m: FastMap<u32, u32> }\nimpl S { fn f(&self) { for _ in self.m.keys() {} } }\n";
        assert_eq!(codes(SCHED, bad), vec!["D001"]);
        let set = "struct S { s: jaws_morton::FastSet<u32> }\nimpl S { fn f(&self) -> u32 { self.s.iter().sum() } }\n";
        assert_eq!(codes(SCHED, set), vec!["D001"]);
        let attested = "struct S { m: jaws_morton::FastMap<u32, u32> }\nimpl S { fn f(&self) -> Vec<u32> {\n    let mut v: Vec<u32> = self.m.keys().copied().collect(); // lint: sorted\n    v.sort();\n    v\n} }\n";
        assert!(codes(SCHED, attested).is_empty());
    }

    #[test]
    fn d001_sees_chains_split_across_lines() {
        // rustfmt's one-method-per-line style must not hide the iteration.
        let bad = "struct S { m: std::collections::HashMap<u32, u32> }\nimpl S { fn f(&self) -> u32 {\n    self\n        .m\n        .values()\n        .sum()\n} }\n";
        assert_eq!(codes(SCHED, bad), vec!["D001"]);
        let attested = "struct S { m: std::collections::HashMap<u32, u32> }\nimpl S { fn f(&self) -> BTreeMap<u32, u32> {\n    self\n        .m\n        .iter() // lint: sorted — collected into a BTreeMap below\n        .map(|(&k, &v)| (k, v))\n        .collect::<BTreeMap<u32, u32>>()\n} }\n";
        assert!(
            codes(SCHED, attested).is_empty(),
            "{:?}",
            codes(SCHED, attested)
        );
    }

    #[test]
    fn d001_ignores_out_of_scope_and_test_code() {
        let bad = "struct S { m: std::collections::HashMap<u32, u32> }\nimpl S { fn f(&self) { for _ in self.m.keys() {} } }\n";
        assert!(codes("crates/workload/src/gen.rs", bad).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{bad}\n}}\n");
        assert!(codes(SCHED, &in_test).is_empty());
    }

    #[test]
    fn d001_does_not_match_inside_strings_or_doc_comments() {
        let in_str = "struct S { m: std::collections::HashMap<u32, u32> }\nfn f() -> &'static str { \"for x in self.m.keys() {}\" }\n";
        assert!(codes(SCHED, in_str).is_empty());
        let in_doc = "/// for x in self.m.keys() {} — example only\nstruct S { m: std::collections::HashMap<u32, u32> }\n";
        assert!(codes(SCHED, in_doc).is_empty());
    }

    #[test]
    fn d002_fires_everywhere_but_exempt_paths() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(codes("crates/workload/src/gen.rs", src), vec!["D002"]);
        assert_eq!(codes("crates/obs/src/lib.rs", src), vec!["D002"]);
        assert!(codes("crates/cache/src/pool.rs", src).is_empty());
        assert!(codes("crates/bench/benches/b.rs", src).is_empty());
        assert!(codes("crates/obs/tests/overhead_smoke.rs", src).is_empty());
    }

    #[test]
    fn d002_ignores_mentions_inside_strings_and_comments() {
        let src = "fn f() -> &'static str { \"Instant::now\" } // Instant::now in prose\n";
        assert!(codes("crates/workload/src/gen.rs", src).is_empty());
    }

    #[test]
    fn d002_parallelism_probe_allowed_only_in_jaws_par() {
        let probe =
            "fn n() -> usize { std::thread::available_parallelism().map_or(1, |c| c.get()) }\n";
        assert!(codes("crates/par/src/lib.rs", probe).is_empty());
        assert_eq!(codes("crates/sim/src/engine.rs", probe), vec!["D002"]);
        assert_eq!(codes("crates/scheduler/src/jaws.rs", probe), vec!["D002"]);
        // The carve-out is per-token: a wall clock in crates/par still fires.
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(codes("crates/par/src/lib.rs", clock), vec!["D002"]);
    }
}
