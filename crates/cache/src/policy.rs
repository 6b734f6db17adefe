//! The replacement-policy abstraction shared by all cache algorithms.

use std::fmt::Debug;
use std::hash::Hash;

/// Rank of an atom as seen by the two-level scheduling framework (§V-B).
///
/// URC evicts "atoms within the same time step … in order of increasing
/// workload throughput. Between two time steps tᵢ and tⱼ, if the mean workload
/// throughput of tⱼ is greater, then atoms from tᵢ are evicted prior to those
/// from tⱼ." A rank therefore orders first by the timestep's mean workload
/// throughput, then by the atom's own workload throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityRank {
    /// Mean workload-throughput metric of the atom's timestep (Eq. 1 averaged
    /// over all atoms in the timestep).
    pub timestep_mean: f64,
    /// The atom's own workload-throughput metric (Eq. 1).
    pub atom_utility: f64,
}

impl UtilityRank {
    /// A rank representing "no pending workload at all" — evicted first.
    pub const ZERO: UtilityRank = UtilityRank {
        timestep_mean: 0.0,
        atom_utility: 0.0,
    };

    /// Total order used by URC: lower ranks are evicted first.
    ///
    /// `total_cmp` (not `partial_cmp`) so the order stays total even if a
    /// NaN rank ever slips in — a NaN would otherwise compare `Equal` to
    /// everything and make victim choice depend on scan order (lint F001).
    pub fn cmp_for_eviction(&self, other: &UtilityRank) -> std::cmp::Ordering {
        self.timestep_mean
            .total_cmp(&other.timestep_mean)
            .then(self.atom_utility.total_cmp(&other.atom_utility))
    }
}

/// Source of [`UtilityRank`]s — implemented by the scheduler's workload
/// manager, which knows every pending request (full workload knowledge).
pub trait UtilityOracle<K> {
    /// Current rank of `key`. Keys with no pending workload return
    /// [`UtilityRank::ZERO`], and no key ranks below it under
    /// [`UtilityRank::cmp_for_eviction`]. URC relies on that floor: its
    /// victim walk stops at the first `ZERO`-ranked key.
    fn rank(&self, key: &K) -> UtilityRank;
}

/// Oracle for policies that do not use workload knowledge (LRU, LRU-K, SLRU).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullOracle;

impl<K> UtilityOracle<K> for NullOracle {
    fn rank(&self, _key: &K) -> UtilityRank {
        UtilityRank::ZERO
    }
}

/// A cache replacement policy: bookkeeping only, no data storage.
///
/// The [`BufferPool`](crate::BufferPool) drives the policy: `on_hit` for every
/// cache hit, `on_insert` after a miss brings a key in, `choose_victim` when
/// the pool is full. The pool guarantees `choose_victim` is only called when at
/// least one key is tracked, and that the returned victim is currently
/// resident.
pub trait ReplacementPolicy<K: Eq + Hash + Ord + Copy + Debug>: Send {
    /// Human-readable policy name (used in reports: "LRU-K", "SLRU", "URC").
    fn name(&self) -> &'static str;

    /// Called on every cache hit.
    fn on_hit(&mut self, key: &K);

    /// Called when `key` becomes resident after a miss.
    fn on_insert(&mut self, key: K);

    /// Called when `key` is removed for any reason (eviction or invalidation)
    /// so the policy can drop its metadata.
    fn on_remove(&mut self, key: &K);

    /// Picks the key to evict. `oracle` supplies scheduler knowledge; policies
    /// that do not use it simply ignore the argument.
    fn choose_victim(&mut self, oracle: &dyn UtilityOracle<K>) -> Option<K>;

    /// Signals the end of a workload *run* (a window of `r` consecutive
    /// queries, §V-A). SLRU performs its batch promotion here; other policies
    /// ignore it.
    fn end_run(&mut self) {}

    /// Approximate bytes of policy metadata currently held, for the paper's
    /// "metadata size is roughly 30 MB" accounting.
    fn metadata_bytes(&self) -> usize;
}
