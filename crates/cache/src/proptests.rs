//! Property-based tests on cache invariants, run against every policy.

use crate::policy::{ReplacementPolicy, UtilityOracle, UtilityRank};
use crate::{BufferPool, Lru, LruK, Slru, Urc};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn policies() -> Vec<Box<dyn ReplacementPolicy<u32>>> {
    vec![
        Box::new(Lru::new()),
        Box::new(LruK::new()),
        Box::new(LruK::with_k(3)),
        Box::new(Slru::new(2)),
        Box::new(Urc::new()),
    ]
}

/// A deterministic oracle deriving a rank from the key itself, so URC gets
/// exercised with non-trivial (but reproducible) rankings.
struct KeyOracle;

impl UtilityOracle<u32> for KeyOracle {
    fn rank(&self, key: &u32) -> UtilityRank {
        UtilityRank {
            timestep_mean: (key % 7) as f64,
            atom_utility: (key % 13) as f64,
        }
    }
}

proptest! {
    /// Residency never exceeds capacity; hits+misses equals accesses; a key
    /// reported evicted really is gone, for every policy.
    #[test]
    fn pool_invariants_hold_for_every_policy(
        capacity in 1usize..12,
        accesses in proptest::collection::vec(0u32..32, 1..300),
        run_every in 5usize..40,
    ) {
        for policy in policies() {
            let name = policy.name();
            let mut pool: BufferPool<u32, u32> = BufferPool::new(capacity, policy);
            let mut shadow: HashSet<u32> = HashSet::new();
            for (i, &k) in accesses.iter().enumerate() {
                let was_resident = pool.contains(&k);
                prop_assert_eq!(was_resident, shadow.contains(&k),
                    "{}: residency model diverged at step {}", name, i);
                let outcome = pool.access_with(k, || k, &KeyOracle);
                prop_assert_eq!(outcome.is_hit(), was_resident, "{}", name);
                if let crate::AccessOutcome::Miss { evicted } = outcome {
                    shadow.insert(k);
                    if let Some(v) = evicted {
                        prop_assert!(shadow.remove(&v),
                            "{}: evicted non-resident {}", name, v);
                        prop_assert!(!pool.contains(&v), "{}", name);
                    }
                }
                prop_assert!(pool.len() <= capacity, "{}: over capacity", name);
                prop_assert_eq!(pool.len(), shadow.len(), "{}", name);
                if (i + 1) % run_every == 0 {
                    pool.end_run();
                }
            }
            let s = pool.stats();
            prop_assert_eq!(s.accesses(), accesses.len() as u64, "{}", name);
        }
    }

    /// Accessed key is always resident afterwards, for every policy.
    #[test]
    fn accessed_key_is_resident(
        capacity in 1usize..8,
        accesses in proptest::collection::vec(0u32..16, 1..120),
    ) {
        for policy in policies() {
            let name = policy.name();
            let mut pool: BufferPool<u32, ()> = BufferPool::new(capacity, policy);
            for &k in &accesses {
                pool.access_with(k, || (), &KeyOracle);
                prop_assert!(pool.contains(&k), "{}: key {} not resident", name, k);
            }
        }
    }

    /// With capacity >= distinct keys, nothing is ever evicted and every
    /// re-access hits.
    #[test]
    fn no_eviction_when_everything_fits(
        accesses in proptest::collection::vec(0u32..10, 1..100),
    ) {
        for policy in policies() {
            let name = policy.name();
            let mut pool: BufferPool<u32, ()> = BufferPool::new(10, policy);
            for &k in &accesses {
                pool.access_with(k, || (), &KeyOracle);
            }
            prop_assert_eq!(pool.stats().evictions, 0, "{}", name);
            let distinct = accesses.iter().collect::<HashSet<_>>().len() as u64;
            prop_assert_eq!(pool.stats().misses, distinct, "{}", name);
        }
    }
}

/// Ranks the URC equivalence test draws from: exact `ZERO` twice, many
/// equal ranks, and a rank with a zero timestep mean that is still above
/// `ZERO`.
const RANK_GRID: [UtilityRank; 8] = [
    UtilityRank::ZERO,
    UtilityRank::ZERO,
    rank(0.0, 1.0),
    rank(1.0, 0.0),
    rank(1.0, 0.0),
    rank(1.0, 2.0),
    rank(3.0, 0.5),
    rank(3.0, 0.5),
];

const fn rank(timestep_mean: f64, atom_utility: f64) -> UtilityRank {
    UtilityRank {
        timestep_mean,
        atom_utility,
    }
}

/// Keys the URC equivalence test draws from.
const URC_KEYS: u32 = 12;

/// A rank table indexed by key, mutated between victim picks.
struct TableOracle([UtilityRank; URC_KEYS as usize]);

impl UtilityOracle<u32> for TableOracle {
    fn rank(&self, key: &u32) -> UtilityRank {
        self.0[*key as usize]
    }
}

/// The definition URC's victim walk must match: stamp every insert and hit
/// with a logical clock, then take the minimum `(rank, stamp)` over all
/// tracked keys.
#[derive(Default)]
struct FullRerank {
    clock: u64,
    stamp_of: HashMap<u32, u64>,
}

impl FullRerank {
    fn touch(&mut self, key: u32) {
        self.stamp_of.insert(key, self.clock);
        self.clock += 1;
    }

    fn victim(&self, oracle: &dyn UtilityOracle<u32>) -> Option<u32> {
        self.stamp_of
            .iter()
            .map(|(&k, &stamp)| (k, oracle.rank(&k), stamp))
            .min_by(|a, b| a.1.cmp_for_eviction(&b.1).then(a.2.cmp(&b.2)))
            .map(|(k, _, _)| k)
    }
}

/// URC's oldest-first walk with its `ZERO` early exit picks the same victim
/// as a full `(rank, stamp)` re-rank on random insert/hit/remove/victim
/// sequences, and both the early exit and the full pass are exercised.
#[test]
fn urc_victim_equals_full_rerank() {
    // (op, key, grid index): ops 0–3 access, 4 removes, 5 re-ranks one key,
    // 6 re-ranks every key across the whole grid, 7 lifts every key off
    // `ZERO` (a phase with no workload-free key), 8–9 pick and evict a
    // victim (the pool never asks an empty policy).
    let ops = collection::vec((0u8..10, 0..URC_KEYS, 0..RANK_GRID.len()), 1..400);
    let (mut early_exits, mut full_passes) = (0u64, 0u64);
    for case in 0..proptest::cases() {
        let mut rng = proptest::TestRng::for_case("urc_victim_equals_full_rerank", case);
        let ops = ops.sample(&mut rng);
        let mut urc = Urc::new();
        let mut reference = FullRerank::default();
        let mut oracle = TableOracle([UtilityRank::ZERO; URC_KEYS as usize]);
        let mut victims = 0u64;
        for (step, &(op, key, grid)) in ops.iter().enumerate() {
            match op {
                0..=3 if reference.stamp_of.contains_key(&key) => {
                    urc.on_hit(&key);
                    reference.touch(key);
                }
                0..=3 => {
                    urc.on_insert(key);
                    reference.touch(key);
                }
                4 => {
                    urc.on_remove(&key);
                    reference.stamp_of.remove(&key);
                }
                5 => oracle.0[key as usize] = RANK_GRID[grid],
                6 => {
                    for (k, r) in oracle.0.iter_mut().enumerate() {
                        *r = RANK_GRID[(k * 5 + grid) % RANK_GRID.len()];
                    }
                }
                7 => {
                    for (k, r) in oracle.0.iter_mut().enumerate() {
                        let lifted = 2 + (k + grid) % (RANK_GRID.len() - 2);
                        if r.cmp_for_eviction(&UtilityRank::ZERO).is_eq() {
                            *r = RANK_GRID[lifted];
                        }
                    }
                }
                _ if reference.stamp_of.is_empty() => {}
                _ => {
                    let want = reference.victim(&oracle);
                    let got = urc.choose_victim(&oracle);
                    assert_eq!(got, want, "case {case} step {step}: {ops:?}");
                    victims += 1;
                    if let Some(v) = got {
                        urc.on_remove(&v);
                        reference.stamp_of.remove(&v);
                    }
                }
            }
        }
        full_passes += urc.rank_passes();
        early_exits += victims - urc.rank_passes();
    }
    assert!(
        early_exits > 0 && full_passes > 0,
        "both branches must run: {early_exits} early exits, {full_passes} full passes"
    );
}

/// The definition LRU-K's victim order must match: each tracked key's last
/// `k` reference stamps, and the minimum `(band, oldest retained stamp,
/// key)` over them, band 0 holding the keys with fewer than `k` references.
struct KStamps {
    k: usize,
    clock: u64,
    stamps: HashMap<u32, Vec<u64>>,
}

impl KStamps {
    fn touch(&mut self, key: u32) {
        let s = self.stamps.entry(key).or_default();
        s.push(self.clock);
        if s.len() > self.k {
            s.remove(0);
        }
        self.clock += 1;
    }

    fn victim(&self) -> Option<u32> {
        self.stamps
            .iter()
            .map(|(&key, s)| (u8::from(s.len() >= self.k), s[0], key))
            .min()
            .map(|(_, _, key)| key)
    }
}

proptest! {
    /// LRU-K picks the naive scan's victim after every step of a random
    /// insert/hit/remove/victim sequence, for K of 1, 2 and 3. Removed keys'
    /// history buffers are recycled for later inserts, so a stale stamp left
    /// in one shows up here as a wrong band or a wrong oldest stamp.
    #[test]
    fn lruk_victim_equals_naive_scan(
        k in 1usize..4,
        // (op, key): ops 0–4 access (insert or hit), 5–6 remove, 7–9 pick
        // and evict a victim.
        ops in proptest::collection::vec((0u8..10, 0u32..10), 1..300),
    ) {
        let mut lruk = LruK::with_k(k);
        let mut naive = KStamps { k, clock: 0, stamps: HashMap::new() };
        for (step, &(op, key)) in ops.iter().enumerate() {
            match op {
                0..=4 if naive.stamps.contains_key(&key) => {
                    lruk.on_hit(&key);
                    naive.touch(key);
                }
                0..=4 => {
                    lruk.on_insert(key);
                    naive.touch(key);
                }
                5 | 6 => {
                    lruk.on_remove(&key);
                    naive.stamps.remove(&key);
                }
                _ => {
                    let got = lruk.choose_victim(&crate::NullOracle);
                    prop_assert_eq!(got, naive.victim(), "step {}", step);
                    if let Some(v) = got {
                        lruk.on_remove(&v);
                        naive.stamps.remove(&v);
                    }
                }
            }
            prop_assert_eq!(lruk.choose_victim(&crate::NullOracle), naive.victim(), "step {}", step);
            prop_assert_eq!(lruk.tracked(), naive.stamps.len());
        }
    }
}
