//! One module per rule family. Every module exposes `run(&mut Check)`;
//! [`crate::check_file_in`] invokes them in a fixed order, with the
//! suppression audit ([`suppression`]) running last so it sees which
//! markers the other families consumed.

pub mod concurrency;
pub mod determinism;
pub mod floats;
pub mod hotpath;
pub mod panics;
pub mod suppression;
pub mod thread_det;

/// Dispatch-path scope: the crates whose decision code must be panic-free
/// and hash-order-free (D001, P001).
pub fn in_dispatch_scope(rel: &str) -> bool {
    rel.starts_with("crates/scheduler/src/") || rel.starts_with("crates/sim/src/")
}

/// Ranking scope: dispatch crates plus the cache (eviction ranking) for the
/// float-ordering rules (F001, F002).
pub fn in_ranking_scope(rel: &str) -> bool {
    in_dispatch_scope(rel) || rel.starts_with("crates/cache/src/")
}

/// Identifier-character test shared by the string-walking helpers.
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of every non-overlapping occurrence of `needle` in `hay`.
pub fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = hay[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}
