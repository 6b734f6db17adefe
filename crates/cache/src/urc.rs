//! Utility Ranked Caching (URC) — full workload knowledge (§V-B).
//!
//! URC "incorporates full knowledge of workload access patterns and achieves
//! the best cache hit ratio by evicting atoms that will likely be accessed
//! farthest in the future": cached atoms are ranked by their order in the
//! two-level scheduling framework. Within a timestep, atoms are evicted in
//! increasing workload-throughput order; across timesteps, atoms of the
//! timestep with the lower mean workload throughput go first.
//!
//! The ranks live in the scheduler; this policy pulls them through the
//! [`UtilityOracle`] and evicts the minimum `(rank, LRU stamp)`, so it
//! degrades to LRU when nothing is pending. No rank is below
//! [`UtilityRank::ZERO`] and workload-free atoms rank exactly `ZERO`, so the
//! walk goes oldest first and stops at the first `ZERO` rank: that atom is the
//! exact minimum. Only a walk that finds none re-ranks every resident atom,
//! the overhead Table I charges URC (7 ms/query vs <1 ms for SLRU).

use crate::lru::Lru;
use crate::policy::{ReplacementPolicy, UtilityOracle, UtilityRank};
use std::fmt::Debug;
use std::hash::Hash;

/// URC policy: an [`Lru`] recency order plus the rank walk.
#[derive(Debug, Default)]
pub struct Urc<K> {
    recency: Lru<K>,
    rank_passes: u64,
    keys_walked: u64,
}

impl<K: Eq + Hash + Ord + Copy + Debug> Urc<K> {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Urc {
            recency: Lru::new(),
            rank_passes: 0,
            keys_walked: 0,
        }
    }

    /// Number of full re-rank passes (walks without an early exit) so far.
    pub fn rank_passes(&self) -> u64 {
        self.rank_passes
    }

    /// Number of keys ranked by victim walks so far.
    pub fn keys_walked(&self) -> u64 {
        self.keys_walked
    }
}

impl<K: Eq + Hash + Ord + Copy + Debug + Send> ReplacementPolicy<K> for Urc<K> {
    fn name(&self) -> &'static str {
        "URC"
    }

    fn on_hit(&mut self, key: &K) {
        self.recency.on_hit(key);
    }

    fn on_insert(&mut self, key: K) {
        self.recency.on_insert(key);
    }

    fn on_remove(&mut self, key: &K) {
        self.recency.on_remove(key);
    }

    fn choose_victim(&mut self, oracle: &dyn UtilityOracle<K>) -> Option<K> {
        // Oldest first, so the first key of the lowest rank seen wins ties.
        let mut best: Option<(K, UtilityRank)> = None;
        for key in self.recency.oldest_first() {
            self.keys_walked += 1;
            let rank = oracle.rank(&key);
            let vs_floor = rank.cmp_for_eviction(&UtilityRank::ZERO);
            debug_assert!(vs_floor.is_ge(), "{key:?} ranks {rank:?}, below ZERO");
            if vs_floor.is_eq() {
                return Some(key);
            }
            if best.is_none_or(|(_, b)| rank.cmp_for_eviction(&b).is_lt()) {
                best = Some((key, rank));
            }
        }
        self.rank_passes += 1;
        best.map(|(key, _)| key)
    }

    fn metadata_bytes(&self) -> usize {
        self.recency.metadata_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullOracle;
    use std::collections::HashMap;

    /// Oracle backed by a map, standing in for the scheduler.
    struct MapOracle {
        ranks: HashMap<u32, UtilityRank>,
    }

    impl UtilityOracle<u32> for MapOracle {
        fn rank(&self, key: &u32) -> UtilityRank {
            self.ranks.get(key).copied().unwrap_or(UtilityRank::ZERO)
        }
    }

    fn rank(ts_mean: f64, util: f64) -> UtilityRank {
        UtilityRank {
            timestep_mean: ts_mean,
            atom_utility: util,
        }
    }

    #[test]
    fn evicts_lowest_utility_within_a_timestep() {
        let mut p = Urc::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_insert(3);
        let oracle = MapOracle {
            ranks: [
                (1, rank(5.0, 9.0)),
                (2, rank(5.0, 1.0)),
                (3, rank(5.0, 4.0)),
            ]
            .into_iter()
            .collect(),
        };
        assert_eq!(p.choose_victim(&oracle), Some(2));
    }

    #[test]
    fn lower_mean_timestep_evicted_before_higher_even_if_atom_utility_is_higher() {
        let mut p = Urc::new();
        p.on_insert(10); // timestep A (mean 2.0), high atom utility
        p.on_insert(20); // timestep B (mean 8.0), low atom utility
        let oracle = MapOracle {
            ranks: [(10, rank(2.0, 99.0)), (20, rank(8.0, 0.1))]
                .into_iter()
                .collect(),
        };
        assert_eq!(p.choose_victim(&oracle), Some(10));
    }

    #[test]
    fn workload_free_atoms_go_before_any_pending_atom() {
        let mut p = Urc::new();
        p.on_insert(1); // no pending workload -> ZERO rank
        p.on_insert(2);
        let oracle = MapOracle {
            ranks: [(2, rank(1.0, 0.01))].into_iter().collect(),
        };
        assert_eq!(p.choose_victim(&oracle), Some(1));
    }

    #[test]
    fn degrades_to_lru_without_scheduler_knowledge() {
        let mut p = Urc::new();
        p.on_insert(1);
        p.on_insert(2);
        p.on_hit(&1);
        // All ranks equal (ZERO): oldest stamp (2) goes first.
        assert_eq!(p.choose_victim(&NullOracle), Some(2));
    }

    #[test]
    fn remove_clears_metadata() {
        let mut p = Urc::new();
        p.on_insert(1);
        p.on_remove(&1);
        assert_eq!(p.metadata_bytes(), 0);
        assert_eq!(p.choose_victim(&NullOracle), None);
    }

    #[test]
    fn rank_passes_are_counted() {
        let mut p = Urc::new();
        p.on_insert(1);
        p.on_insert(2);
        // Key 1 is workload-free: the walk stops there without a full pass.
        let one_free = MapOracle {
            ranks: [(2, rank(1.0, 1.0))].into_iter().collect(),
        };
        assert_eq!(p.choose_victim(&one_free), Some(1));
        assert_eq!((p.rank_passes(), p.keys_walked()), (0, 1));
        // Every key pending: the walk ranks both and counts one pass.
        let all_pending = MapOracle {
            ranks: [(1, rank(2.0, 1.0)), (2, rank(1.0, 1.0))]
                .into_iter()
                .collect(),
        };
        assert_eq!(p.choose_victim(&all_pending), Some(2));
        assert_eq!((p.rank_passes(), p.keys_walked()), (1, 3));
    }

    #[test]
    fn walk_stops_at_the_oldest_workload_free_key() {
        let mut p = Urc::new();
        for k in 1..=4 {
            p.on_insert(k);
        }
        p.on_hit(&2); // recency, oldest first: 1, 3, 4, 2
        let oracle = MapOracle {
            ranks: [(1, rank(0.5, 0.5))].into_iter().collect(),
        };
        assert_eq!(p.choose_victim(&oracle), Some(3));
        assert_eq!((p.rank_passes(), p.keys_walked()), (0, 2));
    }

    #[test]
    fn full_pass_breaks_rank_ties_by_recency() {
        let mut p = Urc::new();
        for k in 1..=3 {
            p.on_insert(k);
        }
        p.on_hit(&1); // recency, oldest first: 2, 3, 1
        let oracle = MapOracle {
            ranks: [
                (1, rank(1.0, 1.0)),
                (2, rank(3.0, 0.0)),
                (3, rank(1.0, 1.0)),
            ]
            .into_iter()
            .collect(),
        };
        assert_eq!(p.choose_victim(&oracle), Some(3));
        assert_eq!(p.rank_passes(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below ZERO")]
    fn a_rank_below_zero_is_a_contract_violation_in_debug() {
        let mut p = Urc::new();
        p.on_insert(1);
        let oracle = MapOracle {
            ranks: [(1, rank(-1.0, 0.0))].into_iter().collect(),
        };
        p.choose_victim(&oracle);
    }
}
