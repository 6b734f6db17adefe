//! Segmented LRU (SLRU) — little workload knowledge, minimal overhead (§V-B).
//!
//! The cache is divided into a *probationary* segment and a small (5–10% of
//! capacity) *protected* segment, each ordered by recency. Following the
//! paper: "At the end of each run of the workload, SLRU promotes the most
//! frequently accessed atoms into the protected segment. (Atoms evicted from
//! this segment are inserted into the most recently used end of the
//! probationary segment.)" Victims are always taken from the LRU end of the
//! probationary segment, so atoms of repeatedly-queried turbulent structures
//! survive full-timestep scans.

use crate::policy::{ReplacementPolicy, UtilityOracle};
use jaws_morton::FastMap;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::mem::size_of;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probationary,
    Protected,
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    segment: Segment,
    stamp: u64,
    /// Accesses during the current run, reset at `end_run`.
    run_hits: u32,
}

/// SLRU policy. `protected_capacity` entries are reserved for the protected
/// segment (the paper allocates 5% of the cache in Table I).
#[derive(Debug)]
pub struct Slru<K> {
    protected_capacity: usize,
    clock: u64,
    meta: FastMap<K, Meta>,
    probationary: BTreeMap<u64, K>, // oldest-first recency order
    protected: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Ord + Copy + Debug> Slru<K> {
    /// Creates an SLRU with room for `protected_capacity` protected entries.
    pub fn new(protected_capacity: usize) -> Self {
        Slru {
            protected_capacity,
            clock: 0,
            meta: FastMap::default(),
            probationary: BTreeMap::new(),
            protected: BTreeMap::new(),
        }
    }

    /// The paper's Table I configuration: 5% of `cache_capacity` protected.
    pub fn for_cache(cache_capacity: usize) -> Self {
        Self::new((cache_capacity / 20).max(1))
    }

    /// Number of entries currently in the protected segment (test helper).
    pub fn protected_len(&self) -> usize {
        self.protected.len()
    }

    /// Number of tracked keys (test helper).
    pub fn tracked(&self) -> usize {
        self.meta.len()
    }

    fn touch(&mut self, key: K) {
        let stamp = self.clock;
        self.clock += 1;
        let m = self.meta.get_mut(&key).expect("touch of tracked key");
        match m.segment {
            Segment::Probationary => {
                self.probationary.remove(&m.stamp);
                self.probationary.insert(stamp, key);
            }
            Segment::Protected => {
                self.protected.remove(&m.stamp);
                self.protected.insert(stamp, key);
            }
        }
        m.stamp = stamp;
        m.run_hits += 1;
    }

    /// Moves `key` into the protected segment, demoting the protected LRU
    /// entry to the probationary MRU end if the segment is full.
    fn promote(&mut self, key: K) {
        let stamp = self.clock;
        self.clock += 1;
        {
            let m = self.meta.get_mut(&key).expect("promote of tracked key");
            debug_assert_eq!(m.segment, Segment::Probationary);
            self.probationary.remove(&m.stamp);
            m.segment = Segment::Protected;
            m.stamp = stamp;
        }
        self.protected.insert(stamp, key);
        while self.protected.len() > self.protected_capacity {
            let (&old_stamp, &victim) = self.protected.iter().next().expect("over-full segment");
            self.protected.remove(&old_stamp);
            let stamp = self.clock;
            self.clock += 1;
            let vm = self.meta.get_mut(&victim).expect("tracked");
            vm.segment = Segment::Probationary;
            vm.stamp = stamp;
            self.probationary.insert(stamp, victim);
        }
    }
}

impl<K: Eq + Hash + Ord + Copy + Debug + Send> ReplacementPolicy<K> for Slru<K> {
    fn name(&self) -> &'static str {
        "SLRU"
    }

    fn on_hit(&mut self, key: &K) {
        self.touch(*key);
    }

    fn on_insert(&mut self, key: K) {
        debug_assert!(
            !self.meta.contains_key(&key),
            "insert of already-tracked key {key:?}; resident keys must be hit, not inserted"
        );
        let stamp = self.clock;
        self.clock += 1;
        self.meta.insert(
            key,
            Meta {
                segment: Segment::Probationary,
                stamp,
                run_hits: 1,
            },
        );
        self.probationary.insert(stamp, key);
    }

    fn on_remove(&mut self, key: &K) {
        if let Some(m) = self.meta.remove(key) {
            match m.segment {
                Segment::Probationary => self.probationary.remove(&m.stamp),
                Segment::Protected => self.protected.remove(&m.stamp),
            };
        }
    }

    fn choose_victim(&mut self, _oracle: &dyn UtilityOracle<K>) -> Option<K> {
        // Probationary LRU end first; fall back to protected LRU end only if
        // the probationary segment is empty (protected over-provisioned).
        self.probationary
            .values()
            .next()
            .or_else(|| self.protected.values().next())
            .copied()
    }

    fn end_run(&mut self) {
        // Batch promotion: the most frequently accessed probationary atoms of
        // this run move into the protected segment (paper §V-B). Ties broken
        // by recency. Then reset run counters.
        let mut candidates: Vec<(u32, u64, K)> = self
            .probationary
            .values()
            .map(|&k| {
                let m = &self.meta[&k];
                (m.run_hits, m.stamp, k)
            })
            .filter(|&(hits, _, _)| hits >= 2) // touched more than once this run
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a)); // most hits, most recent first
        candidates.truncate(self.protected_capacity);
        for (_, _, k) in candidates {
            self.promote(k);
        }
        // Every tracked key sits in exactly one segment, so the two ordered
        // segments visit each counter once.
        for k in self.probationary.values().chain(self.protected.values()) {
            if let Some(m) = self.meta.get_mut(k) {
                m.run_hits = 0;
            }
        }
    }

    fn metadata_bytes(&self) -> usize {
        self.meta.len() * (size_of::<Meta>() + 2 * size_of::<K>() + 2 * size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;

    fn victim(p: &mut Slru<u32>) -> Option<u32> {
        p.choose_victim(&NullOracle)
    }

    #[test]
    fn victims_come_from_probationary_lru_end() {
        let mut p = Slru::new(2);
        p.on_insert(1);
        p.on_insert(2);
        p.on_insert(3);
        assert_eq!(victim(&mut p), Some(1));
    }

    #[test]
    fn frequently_accessed_atoms_are_promoted_at_run_end() {
        let mut p = Slru::new(1);
        p.on_insert(1);
        p.on_insert(2);
        p.on_hit(&1);
        p.on_hit(&1); // 1 is the hottest this run
        p.end_run();
        assert_eq!(p.protected_len(), 1);
        // 1 is protected; probationary LRU end is 2 even after more inserts.
        p.on_insert(3);
        assert_eq!(victim(&mut p), Some(2));
    }

    #[test]
    fn protected_atoms_survive_a_scan() {
        let mut p = Slru::new(1);
        p.on_insert(42);
        p.on_hit(&42);
        p.on_hit(&42);
        p.end_run(); // 42 promoted
        for s in 100..200 {
            p.on_insert(s);
            let v = victim(&mut p).unwrap();
            assert_ne!(v, 42, "protected atom evicted by scan");
            p.on_remove(&v);
        }
        assert!(p.tracked() >= 1);
    }

    #[test]
    fn demotion_to_probationary_mru_end() {
        let mut p = Slru::new(1);
        // Promote 1, then promote 2, forcing 1 back to probationary MRU.
        p.on_insert(1);
        p.on_hit(&1);
        p.end_run();
        assert_eq!(p.protected_len(), 1);
        p.on_insert(0); // an older probationary entry
        p.on_insert(2);
        p.on_hit(&2);
        p.on_hit(&2);
        p.end_run(); // 2 displaces 1 from protected
        assert_eq!(p.protected_len(), 1);
        // 1 must now be the probationary MRU: victim is 0, not 1.
        assert_eq!(victim(&mut p), Some(0));
    }

    #[test]
    fn once_touched_atoms_are_not_promoted() {
        let mut p = Slru::new(4);
        p.on_insert(1);
        p.on_insert(2);
        p.end_run();
        assert_eq!(p.protected_len(), 0, "single-touch atoms stay probationary");
    }

    #[test]
    fn promotion_respects_protected_capacity() {
        let mut p = Slru::new(2);
        for k in 0..6 {
            p.on_insert(k);
            p.on_hit(&k);
        }
        p.end_run();
        assert_eq!(p.protected_len(), 2);
        assert_eq!(p.tracked(), 6);
    }

    #[test]
    fn remove_from_both_segments() {
        let mut p = Slru::new(1);
        p.on_insert(1);
        p.on_hit(&1);
        p.end_run();
        p.on_insert(2);
        p.on_remove(&1); // protected
        p.on_remove(&2); // probationary
        assert_eq!(p.tracked(), 0);
        assert_eq!(victim(&mut p), None);
    }
}
