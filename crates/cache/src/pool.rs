//! The buffer pool: residency, statistics, and overhead accounting.

use crate::policy::{NullOracle, ReplacementPolicy, UtilityOracle};
use jaws_morton::FastMap;
use serde::Serialize;
use std::fmt::Debug;
use std::hash::Hash;
use std::time::Instant;

/// Outcome of a single [`BufferPool::access`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome<K> {
    /// The key was already resident.
    Hit,
    /// The key was faulted in; `evicted` names the victim, if the pool was full.
    Miss {
        /// Key evicted to make room, if any.
        evicted: Option<K>,
    },
}

impl<K> AccessOutcome<K> {
    /// True for cache hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Aggregate cache statistics, serializable for experiment reports.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CacheStats {
    /// Number of accesses served from the cache.
    pub hits: u64,
    /// Number of accesses that faulted.
    pub misses: u64,
    /// Number of evictions performed.
    pub evictions: u64,
    /// Wall-clock nanoseconds spent inside policy maintenance (hit/insert/
    /// victim-selection bookkeeping) — the measured "Overhead/Qry" of Table I.
    pub policy_overhead_ns: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no accesses happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A fixed-capacity cache of `V` values keyed by `K`, with replacement
/// delegated to a [`ReplacementPolicy`].
///
/// The pool stores values; in the large scheduling simulations `V = ()` and
/// the pool only models residency (the paper likewise manages "a 2 GB cache
/// externally from the database", §VI-B).
pub struct BufferPool<K: Eq + Hash + Ord + Copy + Debug, V> {
    capacity: usize,
    resident: FastMap<K, V>,
    policy: Box<dyn ReplacementPolicy<K>>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Ord + Copy + Debug, V> BufferPool<K, V> {
    /// Creates a pool holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — the paper's smallest configuration is
    /// one atom, and a zero-capacity cache would make `access` diverge.
    pub fn new(capacity: usize, policy: Box<dyn ReplacementPolicy<K>>) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BufferPool {
            capacity,
            resident: FastMap::with_capacity(capacity),
            policy,
            stats: CacheStats::default(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident entries.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// True if `key` is resident — this is the scheduler's φ function input
    /// (Eq. 1: φ(i) = 0 if Aᵢ is in memory, 1 otherwise).
    pub fn contains(&self, key: &K) -> bool {
        self.resident.contains_key(key)
    }

    /// Reference to a resident value without touching recency state.
    /// Useful for assertions; normal reads go through [`BufferPool::access`].
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.resident.get(key)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (not residency) — used between measurement windows.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Policy name, e.g. `"URC"`.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Approximate policy metadata footprint in bytes.
    pub fn metadata_bytes(&self) -> usize {
        self.policy.metadata_bytes()
    }

    /// Accesses `key` with the default (ignorant) oracle. See
    /// [`BufferPool::access_with`].
    pub fn access(&mut self, key: K, load: impl FnOnce() -> V) -> AccessOutcome<K> {
        self.access_with(key, load, &NullOracle)
    }

    /// Accesses `key`: on a hit updates recency, on a miss invokes `load`,
    /// inserts the value and — if the pool was full — evicts the policy's
    /// victim. `oracle` supplies scheduler knowledge to URC.
    pub fn access_with(
        &mut self,
        key: K,
        load: impl FnOnce() -> V,
        oracle: &dyn UtilityOracle<K>,
    ) -> AccessOutcome<K> {
        if self.resident.contains_key(&key) {
            self.stats.hits += 1;
            #[expect(
                clippy::disallowed_methods,
                reason = "policy-overhead probe, masked by the determinism tests"
            )]
            let t0 = Instant::now();
            self.policy.on_hit(&key);
            self.stats.policy_overhead_ns += t0.elapsed().as_nanos() as u64;
            return AccessOutcome::Hit;
        }
        self.stats.misses += 1;
        let mut evicted = None;
        if self.resident.len() >= self.capacity {
            #[expect(
                clippy::disallowed_methods,
                reason = "policy-overhead probe, masked by the determinism tests"
            )]
            let t0 = Instant::now();
            let victim = self
                .policy
                .choose_victim(oracle)
                .expect("policy tracks every resident key, pool is non-empty");
            self.policy.on_remove(&victim);
            self.stats.policy_overhead_ns += t0.elapsed().as_nanos() as u64;
            let was = self.resident.remove(&victim);
            debug_assert!(was.is_some(), "victim {victim:?} was not resident");
            self.stats.evictions += 1;
            evicted = Some(victim);
        }
        self.resident.insert(key, load());
        #[expect(
            clippy::disallowed_methods,
            reason = "policy-overhead probe, masked by the determinism tests"
        )]
        let t0 = Instant::now();
        self.policy.on_insert(key);
        self.stats.policy_overhead_ns += t0.elapsed().as_nanos() as u64;
        AccessOutcome::Miss { evicted }
    }

    /// Signals the end of a workload run to the policy (SLRU promotion point).
    pub fn end_run(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "policy-overhead probe, masked by the determinism tests"
        )]
        let t0 = Instant::now();
        self.policy.end_run();
        self.stats.policy_overhead_ns += t0.elapsed().as_nanos() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lru;

    fn pool(cap: usize) -> BufferPool<u32, u32> {
        BufferPool::new(cap, Box::new(Lru::new()))
    }

    #[test]
    fn hit_after_insert() {
        let mut p = pool(2);
        assert!(!p.access(1, || 10).is_hit());
        assert!(p.access(1, || 10).is_hit());
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut p = pool(3);
        for k in 0..100 {
            p.access(k, || k);
            assert!(p.len() <= 3);
        }
        assert_eq!(p.stats().evictions, 97);
    }

    #[test]
    fn eviction_reports_the_victim() {
        let mut p = pool(1);
        p.access(1, || 1);
        match p.access(2, || 2) {
            AccessOutcome::Miss { evicted: Some(1) } => {}
            other => panic!("expected eviction of 1, got {other:?}"),
        }
        assert!(!p.contains(&1));
        assert!(p.contains(&2));
    }

    #[test]
    fn hit_ratio_matches_counts() {
        let mut p = pool(2);
        p.access(1, || 1);
        p.access(1, || 1);
        p.access(1, || 1);
        p.access(2, || 2);
        let s = p.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peek_does_not_count() {
        let mut p = pool(2);
        p.access(1, || 42);
        assert_eq!(p.peek(&1), Some(&42));
        assert_eq!(p.stats().accesses(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }
}
