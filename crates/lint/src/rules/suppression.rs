//! S-family rules: suppression audit (zero suppression debt).
//!
//! * **S001** — every `// lint: …` marker must still be earning its keep.
//!   A marker whose rule would no longer fire (the code it excused was
//!   fixed, moved, or deleted) is itself a violation, as is a `lint:`
//!   comment that matches no known marker form. Delete stale markers;
//!   fix malformed ones.
//!
//! Implementation: attestation lookups in [`crate::source::Check`] record
//! which suppression justified which candidate violation. This module runs
//! **after** every other rule family and flags whatever was never consumed.
//! S001 is deliberately not suppressible — an `allow(S001)` would be
//! suppression debt about suppression debt.

use crate::source::{Check, Marker};

/// Flags stale and malformed suppressions. Must run last.
pub fn run(c: &mut Check<'_>) {
    let mut found: Vec<(usize, String)> = Vec::new();
    for s in c.stale_suppressions() {
        let what = match &s.marker {
            Marker::Sorted => "`lint: sorted`".to_string(),
            Marker::Invariant => "`lint: invariant`".to_string(),
            Marker::Hotpath => "`lint: hotpath`".to_string(),
            Marker::Allow(rule) => format!("`lint: allow({rule})`"),
            Marker::Unknown(_) => continue,
        };
        found.push((
            s.line,
            format!(
                "stale suppression: {what} no longer matches any candidate violation; \
                 delete the marker (zero suppression debt)"
            ),
        ));
    }
    for s in c.malformed_suppressions() {
        let Marker::Unknown(text) = &s.marker else {
            continue;
        };
        found.push((
            s.line,
            format!(
                "malformed suppression `{}`: expected `lint: sorted`, `lint: invariant`, \
                 `lint: hotpath`, or `lint: allow(<RULE>)`",
                text.trim()
            ),
        ));
    }
    for (ln, msg) in found {
        c.push(ln, "S001", msg);
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
    fn s001_flags_stale_markers_of_each_form() {
        // Nothing on these lines needs suppressing, so every marker is stale.
        let sorted = "fn f() -> u32 { 1 } // lint: sorted\n";
        assert_eq!(codes(SCHED, sorted), vec!["S001"]);
        let invariant = "fn f() -> u32 { 1 } // lint: invariant — nothing here\n";
        assert_eq!(codes(SCHED, invariant), vec!["S001"]);
        let allow = "fn f() -> u32 { 1 } // lint: allow(D002) — nothing here\n";
        assert_eq!(codes(SCHED, allow), vec!["S001"]);
    }

    #[test]
    fn s001_flags_malformed_markers() {
        let bad = "fn f() -> u32 { 1 } // lint: frobnicate the widget\n";
        assert_eq!(codes(SCHED, bad), vec!["S001"]);
        let bad_allow = "fn f() -> u32 { 1 } // lint: allow(not a rule!)\n";
        assert_eq!(codes(SCHED, bad_allow), vec!["S001"]);
    }

    #[test]
    fn s001_quiet_when_markers_are_live() {
        let live_invariant = "fn f(o: Option<u32>) -> u32 {\n    // lint: invariant — o is always Some here\n    o.expect(\"tracked\")\n}\n";
        assert!(codes(SCHED, live_invariant).is_empty());
        let live_allow =
            "fn f(x: f64) -> bool {\n    x == 0.5 // lint: allow(F002) — exact sentinel\n}\n";
        assert!(codes(SCHED, live_allow).is_empty());
    }

    #[test]
    fn s001_ignores_doc_comment_mentions_and_fires_in_tests_too() {
        // Rustdoc may discuss the grammar freely.
        let doc = "/// Write `// lint: sorted` above the loop.\nfn f() {}\n";
        assert!(codes(SCHED, doc).is_empty());
        // Test code is masked for most rules, but a stale marker there is
        // still debt.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() -> u32 { 1 } // lint: sorted\n}\n";
        assert_eq!(codes(SCHED, in_test), vec!["S001"]);
    }
}
