//! Plain least-recently-used replacement (reference policy).

use crate::policy::{ReplacementPolicy, UtilityOracle};
use jaws_morton::FastMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::mem::size_of;

/// End-of-list marker for [`Link::prev`] / [`Link::next`].
const NIL: usize = usize::MAX;

/// One tracked key in the recency list.
#[derive(Debug)]
struct Link<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// Classic LRU. Recency is a doubly-linked list threaded through a vector of
/// slots, oldest at the head, plus a key → slot index. Inserts and hits move a
/// key to the tail, so list order is exactly the order of a logical clock
/// stamped on every insert and hit. All operations are O(1) and
/// allocation-free once the slots and index have grown to the cache's
/// capacity.
#[derive(Debug)]
pub struct Lru<K> {
    links: Vec<Link<K>>,
    /// Slots vacated by removals, reused before `links` grows.
    free: Vec<usize>,
    slot_of: FastMap<K, usize>,
    oldest: usize,
    newest: usize,
}

impl<K> Default for Lru<K> {
    fn default() -> Self {
        Lru {
            links: Vec::new(),
            free: Vec::new(),
            slot_of: FastMap::default(),
            oldest: NIL,
            newest: NIL,
        }
    }
}

impl<K: Eq + Hash + Ord + Copy + Debug> Lru<K> {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn unlink(&mut self, slot: usize) {
        let Link { prev, next, .. } = self.links[slot];
        match prev {
            NIL => self.oldest = next,
            p => self.links[p].next = next,
        }
        match next {
            NIL => self.newest = prev,
            n => self.links[n].prev = prev,
        }
    }

    fn touch(&mut self, key: K) {
        let slot = match self.slot_of.get(&key) {
            Some(&slot) => {
                self.unlink(slot);
                slot
            }
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.links.push(Link {
                        key,
                        prev: NIL,
                        next: NIL,
                    });
                    self.links.len() - 1
                });
                self.slot_of.insert(key, slot);
                slot
            }
        };
        let prev = self.newest;
        self.links[slot] = Link {
            key,
            prev,
            next: NIL,
        };
        match prev {
            NIL => self.oldest = slot,
            p => self.links[p].next = slot,
        }
        self.newest = slot;
    }

    /// Tracked keys from least to most recently used.
    pub(crate) fn oldest_first(&self) -> impl Iterator<Item = K> + '_ {
        std::iter::successors(self.links.get(self.oldest), |l| self.links.get(l.next))
            .map(|l| l.key)
    }

    /// Number of tracked keys (test helper).
    pub fn tracked(&self) -> usize {
        self.slot_of.len()
    }
}

impl<K: Eq + Hash + Ord + Copy + Debug + Send> ReplacementPolicy<K> for Lru<K> {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_hit(&mut self, key: &K) {
        debug_assert!(self.slot_of.contains_key(key), "hit on untracked key");
        self.touch(*key);
    }

    fn on_insert(&mut self, key: K) {
        self.touch(key);
    }

    fn on_remove(&mut self, key: &K) {
        if let Some(slot) = self.slot_of.remove(key) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    fn choose_victim(&mut self, _oracle: &dyn UtilityOracle<K>) -> Option<K> {
        self.oldest_first().next()
    }

    fn metadata_bytes(&self) -> usize {
        // Index entry (key + slot) plus list link (key + two slot indices).
        self.slot_of.len() * (2 * size_of::<K>() + 3 * size_of::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;

    fn victim(l: &mut Lru<u32>) -> Option<u32> {
        l.choose_victim(&NullOracle)
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut l = Lru::new();
        l.on_insert(1);
        l.on_insert(2);
        l.on_insert(3);
        assert_eq!(victim(&mut l), Some(1));
        l.on_hit(&1); // 2 is now the oldest
        assert_eq!(victim(&mut l), Some(2));
    }

    #[test]
    fn remove_clears_metadata() {
        let mut l = Lru::new();
        l.on_insert(1);
        l.on_insert(2);
        l.on_remove(&1);
        assert_eq!(l.tracked(), 1);
        assert_eq!(victim(&mut l), Some(2));
    }

    #[test]
    fn empty_policy_has_no_victim() {
        let mut l: Lru<u32> = Lru::new();
        assert_eq!(victim(&mut l), None);
    }

    #[test]
    fn repeated_hits_do_not_duplicate() {
        let mut l = Lru::new();
        l.on_insert(7);
        for _ in 0..10 {
            l.on_hit(&7);
        }
        assert_eq!(l.tracked(), 1);
        assert_eq!(victim(&mut l), Some(7));
    }
}
