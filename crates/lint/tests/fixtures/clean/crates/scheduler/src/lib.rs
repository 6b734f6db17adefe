//! Clean fixture: a minimal scheduler crate root that satisfies every rule.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

pub fn ordered_sum(m: &BTreeMap<u32, u32>) -> u32 {
    m.values().sum()
}

pub struct Table {
    by_id: jaws_morton::FastMap<u32, u32>,
}

pub fn sorted_ids(t: &Table) -> Vec<u32> {
    let mut ids: Vec<u32> = t.by_id.keys().copied().collect(); // lint: sorted
    ids.sort_unstable();
    ids
}
