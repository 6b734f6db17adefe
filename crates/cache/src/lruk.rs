//! LRU-K replacement — the baseline of Table I.
//!
//! SQL Server's page replacement, against which the paper measures SLRU and
//! URC, is "a variant of LRU-K" \[10\]. LRU-K evicts the page whose K-th most
//! recent reference is farthest in the past (its *backward K-distance*). Pages
//! referenced fewer than K times have infinite backward K-distance and are
//! evicted first, oldest first — this is what makes LRU-K scan-resistant: a
//! once-touched full-timestep scan cannot displace twice-touched hot atoms.

use crate::policy::{ReplacementPolicy, UtilityOracle};
use jaws_morton::FastMap;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;
use std::mem::size_of;

/// Per-key reference history: the stamps of the most recent `k` references.
/// Its buffer never grows past `k`: the oldest stamp leaves before a new one
/// enters.
#[derive(Debug, Clone)]
struct History {
    stamps: VecDeque<u64>,
}

/// LRU-K policy (default K = 2, matching the classic deployment).
///
/// Victim order is maintained in a `BTreeSet<(kth_stamp, key)>`, where
/// `kth_stamp` is the stamp of the K-th most recent reference, or the first
/// reference negated into a "cold" band for keys with fewer than K
/// references so that all cold keys sort before all hot keys.
///
/// A removed key's history buffer is emptied onto a spare list and the next
/// untracked key takes it, so once the cache is full a miss allocates no
/// history.
#[derive(Debug)]
pub struct LruK<K> {
    k: usize,
    clock: u64,
    history: FastMap<K, History>,
    // (band, stamp, key): band 0 = fewer than K refs (evict first, by oldest
    // first reference), band 1 = K refs (evict by oldest K-th-last reference).
    order: BTreeSet<(u8, u64, K)>,
    /// Emptied history buffers of removed keys, capacity `k` each.
    spare: Vec<VecDeque<u64>>,
}

impl<K: Eq + Hash + Ord + Copy + Debug> LruK<K> {
    /// LRU-2, the configuration the LRU-K paper recommends and SQL Server uses.
    pub fn new() -> Self {
        Self::with_k(2)
    }

    /// LRU-K with an explicit history depth `k >= 1`. `k = 1` degenerates to
    /// plain LRU.
    pub fn with_k(k: usize) -> Self {
        assert!(k >= 1, "LRU-K requires K >= 1");
        LruK {
            k,
            clock: 0,
            history: FastMap::default(),
            order: BTreeSet::new(),
            spare: Vec::new(),
        }
    }

    /// Sort key for the victim order: cold pages (fewer than K references)
    /// form band 0 and are evicted before every hot page (band 1). Within a
    /// band, the oldest retained reference — which for hot pages is exactly
    /// the K-th most recent one — goes first.
    fn sort_entry(k: usize, key: K, h: &History) -> (u8, u64, K) {
        let band = if h.stamps.len() < k { 0 } else { 1 };
        (band, *h.stamps.front().expect("non-empty history"), key)
    }

    fn record(&mut self, key: K) {
        let stamp = self.clock;
        self.clock += 1;
        let k = self.k;
        if let Some(h) = self.history.get_mut(&key) {
            self.order.remove(&Self::sort_entry(k, key, h));
            if h.stamps.len() == k {
                h.stamps.pop_front();
            }
            h.stamps.push_back(stamp);
            self.order.insert(Self::sort_entry(k, key, h));
        } else {
            let mut stamps = self
                .spare
                .pop()
                .unwrap_or_else(|| VecDeque::with_capacity(k));
            debug_assert!(stamps.is_empty(), "spare history not emptied");
            stamps.push_back(stamp);
            let h = History { stamps };
            self.order.insert(Self::sort_entry(k, key, &h));
            self.history.insert(key, h);
        }
    }

    /// Number of tracked keys (test helper).
    pub fn tracked(&self) -> usize {
        self.history.len()
    }
}

impl<K: Eq + Hash + Ord + Copy + Debug> Default for LruK<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Ord + Copy + Debug + Send> ReplacementPolicy<K> for LruK<K> {
    fn name(&self) -> &'static str {
        "LRU-K"
    }

    fn on_hit(&mut self, key: &K) {
        debug_assert!(self.history.contains_key(key), "hit on untracked key");
        self.record(*key);
    }

    fn on_insert(&mut self, key: K) {
        self.record(key);
    }

    fn on_remove(&mut self, key: &K) {
        if let Some(h) = self.history.remove(key) {
            self.order.remove(&Self::sort_entry(self.k, *key, &h));
            let mut stamps = h.stamps;
            stamps.clear();
            self.spare.push(stamps);
        }
    }

    fn choose_victim(&mut self, _oracle: &dyn UtilityOracle<K>) -> Option<K> {
        self.order.iter().next().map(|&(_, _, k)| k)
    }

    fn metadata_bytes(&self) -> usize {
        self.history.len() * (self.k * size_of::<u64>() + 3 * size_of::<K>() + size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;

    fn victim(p: &mut LruK<u32>) -> Option<u32> {
        p.choose_victim(&NullOracle)
    }

    #[test]
    fn once_referenced_pages_go_first() {
        let mut p = LruK::new(); // K = 2
        p.on_insert(1);
        p.on_hit(&1); // 1 is hot (2 references)
        p.on_insert(2); // 2 is cold (1 reference)
                        // Even though 2 was referenced more recently, it has < K references.
        assert_eq!(victim(&mut p), Some(2));
    }

    #[test]
    fn among_cold_pages_oldest_goes_first() {
        let mut p = LruK::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_insert(3);
        assert_eq!(victim(&mut p), Some(1));
    }

    #[test]
    fn among_hot_pages_oldest_penultimate_reference_goes_first() {
        let mut p = LruK::new();
        p.on_insert(1); // stamp 0
        p.on_insert(2); // stamp 1
        p.on_hit(&1); // 1: stamps {0, 2}
        p.on_hit(&2); // 2: stamps {1, 3}
                      // Both hot; 1's 2nd-most-recent (0) < 2's (1).
        assert_eq!(victim(&mut p), Some(1));
        p.on_hit(&1); // 1: stamps {2, 4} — now 2's penultimate (1) is oldest
        assert_eq!(victim(&mut p), Some(2));
    }

    #[test]
    fn scan_resistance() {
        // Hot working set of two pages, then a long one-touch scan.
        let mut p = LruK::new();
        p.on_insert(100);
        p.on_insert(101);
        for _ in 0..3 {
            p.on_hit(&100);
            p.on_hit(&101);
        }
        for s in 0..50 {
            p.on_insert(s);
        }
        // Every victim pick must be a scan page, never the hot pair.
        for _ in 0..50 {
            let v = victim(&mut p).unwrap();
            assert!(v < 100, "evicted hot page {v}");
            p.on_remove(&v);
        }
    }

    #[test]
    fn k_equals_one_behaves_like_lru() {
        let mut p = LruK::with_k(1);
        p.on_insert(1);
        p.on_insert(2);
        p.on_hit(&1);
        assert_eq!(victim(&mut p), Some(2));
    }

    #[test]
    fn remove_then_reinsert_is_cold_again() {
        let mut p = LruK::new();
        p.on_insert(1);
        p.on_hit(&1); // hot
        p.on_insert(2);
        p.on_hit(&2); // hot
        p.on_remove(&1);
        p.on_insert(1); // cold again: 1 reference since reinsertion
        assert_eq!(victim(&mut p), Some(1));
        assert_eq!(p.tracked(), 2);
    }

    #[test]
    #[should_panic(expected = "K >= 1")]
    fn zero_k_rejected() {
        let _: LruK<u32> = LruK::with_k(0);
    }
}
