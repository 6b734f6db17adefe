//! Seeded-violation fixture for the jaws-lint integration tests.
//!
//! Never compiled — the `fixtures` directory is excluded from workspace
//! scans and from cargo targets. Each function plants exactly one rule
//! violation; `tests/cli.rs` asserts the binary reports all of them and
//! exits non-zero.

use std::collections::HashMap;

pub fn planted_d001() -> Vec<u32> {
    let m: HashMap<u32, u32> = HashMap::new();
    m.keys().copied().collect()
}

pub fn planted_d002() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn planted_f001(a: f64, b: f64) -> bool {
    a.partial_cmp(&b).is_some()
}

pub fn planted_f002(x: f64) -> bool {
    x == 0.5
}

pub fn planted_p001(o: Option<u32>) -> u32 {
    o.unwrap()
}

pub fn planted_c001(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

pub fn planted_c002(s: &Shared) -> u32 {
    // lint: invariant — fixture: poisoning aborts the run
    let a = s.left.lock().expect("left");
    // lint: invariant — fixture: poisoning aborts the run
    let b = s.right.lock().expect("right");
    *a + *b
}

pub fn planted_c003(buf: &std::sync::Mutex<Vec<u32>>, xs: &[u32]) -> Vec<u32> {
    // lint: invariant — fixture: poisoning aborts the run
    let g = buf.lock().expect("buf");
    jaws_par::map(xs, |x| x + g.len() as u32)
}

pub fn planted_t001(xs: &[u32], n: &std::sync::atomic::AtomicUsize) -> Vec<u32> {
    jaws_par::map(xs, |x| x + n.fetch_add(1, std::sync::atomic::Ordering::Relaxed) as u32)
}

pub fn planted_s001_stale() -> u32 {
    1 // lint: sorted — stale: nothing on this line iterates anything
}

pub fn planted_s001_malformed() -> u32 {
    2 // lint: allov(D001)
}

// lint: hotpath
pub fn planted_m001(xs: &[u32]) -> Vec<u32> {
    xs.iter().map(|x| x + 1).collect()
}

pub struct Table {
    by_id: jaws_morton::FastMap<u32, u32>,
}

pub fn planted_d001_fast_map(t: &Table) -> Vec<u32> {
    t.by_id.values().copied().collect()
}
