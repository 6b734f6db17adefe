//! A fixed, unkeyed hasher for maps that are only looked up.
//!
//! std's `HashMap` hashes with a randomly keyed SipHash, which resists keys
//! crafted to collide but costs tens of nanoseconds per lookup. The replay's
//! keys — atom ids, query and part ids, timesteps, job ids — are generated by
//! the program, never read from an adversary, so [`FastMap`] and
//! [`FastSet`] trade that protection for one multiply per word: the
//! multiply-rotate construction of rustc-hash 2.
//!
//! Hash order would be reproducible across runs (the hasher has no key), but
//! it follows insertion history and capacity, so a refactor that changed
//! either would reorder anything fed by an iteration: the maps therefore
//! iterate only in sorted order. `clippy.toml` bans std's `HashMap` and
//! `HashSet` in the scheduler and the engine, leaving these two types.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;

/// Odd multiplier of rustc-hash 2: each word is added, then the sum is
/// multiplied, so every input bit reaches the bits above it.
const MUL: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher. A multiply only carries bits upward, and
/// hashbrown takes bucket indices from the low bits, so [`Hasher::finish`]
/// rotates the high bits down: keys that differ only above bit 48 (a packed
/// part id's node tag) still land in different buckets.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MUL);
    }
}

impl Hasher for FxHasher {
    /// Byte strings are hashed a byte at a time: every key on the replay
    /// path is an integer or a struct of integers, so this is never hot.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

type Fx = BuildHasherDefault<FxHasher>;

/// A lookup-only hash map under the fixed multiply-rotate hasher. Its one
/// iteration is [`FastMap::sorted`], in ascending key order, so no hash
/// order can reach a caller; state that is iterated for decisions belongs
/// in a `BTreeMap`.
///
/// ```
/// use jaws_morton::FastMap;
/// let mut m: FastMap<u32, &str> = FastMap::default();
/// m.insert(2, "b");
/// m.insert(1, "a");
/// assert_eq!(m.get(&1), Some(&"a"));
/// assert_eq!(m.sorted(), [(&1, &"a"), (&2, &"b")]);
/// ```
///
/// Iterating the map itself does not compile:
///
/// ```compile_fail
/// use jaws_morton::FastMap;
/// let mut m: FastMap<u32, &str> = FastMap::default();
/// m.insert(1, "a");
/// for (k, v) in &m {
///     println!("{k} {v}");
/// }
/// ```
#[derive(Clone)]
pub struct FastMap<K, V>(HashMap<K, V, Fx>);

impl<K, V> Default for FastMap<K, V> {
    fn default() -> Self {
        FastMap(HashMap::default())
    }
}

/// Prints the length only: the entries in hash order would leak that order.
impl<K, V> fmt::Debug for FastMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastMap")
            .field("len", &self.0.len())
            .finish()
    }
}

impl<K: Eq + Hash, V> FastMap<K, V> {
    /// An empty map with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        FastMap(HashMap::with_capacity_and_hasher(capacity, Fx::default()))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.0.get_mut(key)
    }

    /// True when `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.0.contains_key(key)
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    /// The entry for `key`, for in-place insert-or-update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }
}

impl<K: Ord, V> FastMap<K, V> {
    /// Every entry in ascending key order: the map's one iteration.
    pub fn sorted(&self) -> Vec<(&K, &V)> {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }
}

/// The value under `key`; panics when there is none, like std's map.
impl<K: Eq + Hash, V> Index<&K> for FastMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        &self.0[key]
    }
}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for FastMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        FastMap(iter.into_iter().collect())
    }
}

/// A lookup-only hash set under the fixed multiply-rotate hasher; like
/// [`FastMap`], it has no iteration in hash order.
///
/// ```
/// use jaws_morton::FastSet;
/// let s: FastSet<u64> = [3, 1].into_iter().collect();
/// assert!(s.contains(&3) && !s.contains(&2));
/// ```
///
/// ```compile_fail
/// use jaws_morton::FastSet;
/// let s: FastSet<u64> = [3, 1].into_iter().collect();
/// let first = s.iter().next();
/// ```
#[derive(Clone)]
pub struct FastSet<K>(HashSet<K, Fx>);

impl<K> Default for FastSet<K> {
    fn default() -> Self {
        FastSet(HashSet::default())
    }
}

/// Prints the length only, as [`FastMap`]'s does.
impl<K> fmt::Debug for FastSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastSet")
            .field("len", &self.0.len())
            .finish()
    }
}

impl<K: Eq + Hash> FastSet<K> {
    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// True when `key` is a member.
    pub fn contains(&self, key: &K) -> bool {
        self.0.contains(key)
    }

    /// Adds `key`; false when it was already a member.
    pub fn insert(&mut self, key: K) -> bool {
        self.0.insert(key)
    }

    /// Removes `key`; false when it was not a member.
    pub fn remove(&mut self, key: &K) -> bool {
        self.0.remove(key)
    }
}

impl<K: Eq + Hash> Extend<K> for FastSet<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl<K: Eq + Hash> FromIterator<K> for FastSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        FastSet(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AtomId, MortonKey};
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashes_are_unkeyed_and_repeatable() {
        let a = AtomId::new(3, MortonKey(41));
        assert_eq!(hash_of(a), hash_of(a));
        assert_eq!(hash_of(a), hash_of(AtomId::new(3, MortonKey(41))));
        assert_ne!(hash_of(a), hash_of(AtomId::new(41, MortonKey(3))));
    }

    #[test]
    fn node_tags_above_bit_48_reach_the_low_bits() {
        // Part ids of one query on nodes 0..16: only bits 48.. differ.
        let low: std::collections::BTreeSet<u64> = (0..16u64)
            .map(|node| hash_of((node << 48) | 7) & 0xffff)
            .collect();
        assert_eq!(low.len(), 16, "node tags collide in the bucket bits");
    }

    #[test]
    fn fast_maps_behave_as_maps() {
        let mut m: FastMap<AtomId, u32> = FastMap::default();
        for t in 0..100u32 {
            m.insert(AtomId::new(t, MortonKey(u64::from(t) * 3)), t);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&AtomId::new(7, MortonKey(21))), Some(&7));
        let s: FastSet<u64> = (0..10).collect();
        assert!(s.contains(&9) && !s.contains(&10));
    }
}
