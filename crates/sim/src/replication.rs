//! Dynamic data placement: hot-atom replication (ROADMAP item 3).
//!
//! The paper's trace is *defined* by skew — ~70 % of queries hit about a
//! dozen timesteps — yet static Morton slabs pin every key to one owner, so
//! the node owning a hot slab saturates while its peers idle. This module
//! turns placement into a scheduled resource, in the spirit of
//! STAR-Scheduler's dispatch-to-replicas and LifeRaft's contention ordering
//! (PAPERS.md):
//!
//! * a per-key **access histogram** (a fixed-capacity ring of recent access
//!   times standing in for a sliding window — see `AccessRing`) is fed
//!   from the engine's dispatch path without allocating per access;
//! * keys whose windowed traffic crosses `promote_accesses` are **promoted**:
//!   a replica is placed on the least-loaded live node that is not the owner
//!   (every node opens the full geometry, so a replica is just a remote cache
//!   line — no data movement is modeled beyond the node's own cold read);
//! * each footprint atom of a submitted query is **routed** to the
//!   least-loaded live candidate among the owner and its replicas, falling
//!   back to the Morton-slab owner;
//! * replicas are **demoted** when the window drains below
//!   `demote_accesses` (hysteresis: `demote_accesses < promote_accesses`),
//!   and **dropped** when a scripted crash kills their host — the slab
//!   itself re-chains through `LiveRouting` exactly as without replication.
//!
//! ## Determinism
//!
//! Every decision is a pure function of simulated time and the seeded trace:
//! the histogram is keyed and trimmed by engine `now_ms`, candidate order is
//! (load, owner-preference, node index) with integer loads, and all state
//! lives in `BTreeMap`s (lint rule D001). The final replica table is
//! serialized into the cluster report via [`ReplicationSummary`], so the
//! byte-identity tests cover placement itself.

use jaws_morton::{FastMap, MortonKey};
use serde::Serialize;
use std::collections::BTreeMap;

/// Knobs for the hot-atom replica overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationConfig {
    /// Master switch; when false the executor routes by static Morton slabs
    /// and allocates no replication state at all.
    pub enabled: bool,
    /// Sliding histogram window, simulated ms. Accesses older than this are
    /// trimmed before every threshold decision.
    pub window_ms: f64,
    /// Windowed access count at or above which a key is promoted.
    pub promote_accesses: u32,
    /// Windowed access count at or below which a replicated key is demoted.
    /// Must be strictly below `promote_accesses` (hysteresis band).
    pub demote_accesses: u32,
    /// Replicas placed per promoted key (capped by live non-owner nodes).
    pub max_replicas_per_atom: u32,
    /// Upper bound on simultaneously replicated keys.
    pub max_hot_atoms: usize,
}

impl ReplicationConfig {
    /// Replication off; the remaining knobs are the [`Self::on`] defaults so
    /// flipping `enabled` alone yields a sane overlay.
    pub fn disabled() -> Self {
        ReplicationConfig {
            enabled: false,
            ..Self::on()
        }
    }

    /// Replication on with defaults sized for the paper-like skewed traces:
    /// a key accessed 8 times inside a one-minute window is hot; it stays
    /// replicated until the window drains to ≤ 2.
    pub fn on() -> Self {
        ReplicationConfig {
            enabled: true,
            window_ms: 60_000.0,
            promote_accesses: 8,
            demote_accesses: 2,
            max_replicas_per_atom: 1,
            max_hot_atoms: 64,
        }
    }

    /// Validates the hysteresis band and window.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (no hysteresis, zero-width
    /// window, or a zero replica budget).
    pub fn validate(&self) {
        assert!(
            self.promote_accesses >= 1,
            "promotion threshold must be ≥ 1"
        );
        assert!(
            self.demote_accesses < self.promote_accesses,
            "hysteresis requires demote ({}) < promote ({})",
            self.demote_accesses,
            self.promote_accesses
        );
        assert!(
            self.window_ms > 0.0,
            "histogram window must be positive, got {}",
            self.window_ms
        );
        assert!(self.max_replicas_per_atom >= 1, "need a replica budget");
        assert!(self.max_hot_atoms >= 1, "need a hot-atom budget");
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Fixed-capacity ring of the most recent access timestamps for one key.
///
/// Promotion and demotion only ever compare the windowed access count
/// against `promote_accesses` and `demote_accesses < promote_accesses`, so
/// the last `promote_accesses` timestamps determine every decision exactly:
/// the ring reports `min(exact windowed count, capacity)`, which lands on
/// the same side of both thresholds as the exact count (engine time is
/// non-decreasing, so the ring always holds the *newest* accesses). Unlike
/// the per-key `VecDeque<f64>` it replaced — which held every in-window
/// access and reallocated as hot keys grew — the ring never grows after
/// construction, so the dispatch path records accesses allocation-free.
#[derive(Debug)]
struct AccessRing {
    /// The last `slots.len()` access times; `slots[cursor]` is the next
    /// overwrite target (the oldest entry once the ring has wrapped).
    slots: Box<[f64]>,
    cursor: usize,
    /// Slots holding real timestamps: `min(total accesses, slots.len())`.
    filled: usize,
}

impl AccessRing {
    fn new(capacity: usize) -> Self {
        AccessRing {
            slots: vec![0.0; capacity.max(1)].into_boxed_slice(),
            cursor: 0,
            filled: 0,
        }
    }

    /// Records one access at `now_ms`, evicting the oldest retained
    /// timestamp once full. No allocation.
    fn record(&mut self, now_ms: f64) {
        self.slots[self.cursor] = now_ms;
        self.cursor = (self.cursor + 1) % self.slots.len();
        self.filled = (self.filled + 1).min(self.slots.len());
    }

    /// Retained accesses still inside the window ending at `now_ms`:
    /// `min(exact windowed count, capacity)`.
    fn windowed_count(&self, now_ms: f64, window_ms: f64) -> u32 {
        self.slots[..self.filled]
            .iter()
            .filter(|&&t| now_ms - t <= window_ms)
            .count() as u32
    }
}

/// One replica-table transition decided while routing an access; the engine
/// turns these into `jaws-obs` events in decision order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ReplicaAction {
    /// A key crossed the promotion threshold; `node` now hosts a replica.
    Promoted {
        morton: MortonKey,
        node: u32,
        /// Windowed access count at promotion, saturated at
        /// `promote_accesses` (the ring retains no more — see
        /// [`AccessRing`]).
        window_accesses: u32,
    },
    /// A key drained below the demotion threshold; `node`'s replica is gone.
    Demoted { morton: MortonKey, node: u32 },
    /// The access was diverted from its slab owner to a replica.
    Routed {
        morton: MortonKey,
        owner: u32,
        replica: u32,
    },
}

/// The replica routing table plus the access histogram feeding it.
#[derive(Debug)]
pub(crate) struct ReplicaDirectory {
    cfg: ReplicationConfig,
    /// Per key: the fixed-capacity ring of recent access timestamps.
    hits: FastMap<MortonKey, AccessRing>,
    /// Per replicated key: hosting nodes, ascending (never the owner).
    replicas: BTreeMap<MortonKey, Vec<u32>>,
    promotions: u64,
    demotions: u64,
    crash_drops: u64,
    replica_routed: u64,
}

impl ReplicaDirectory {
    pub(crate) fn new(cfg: ReplicationConfig) -> Self {
        cfg.validate();
        ReplicaDirectory {
            cfg,
            hits: FastMap::default(),
            replicas: BTreeMap::new(),
            promotions: 0,
            demotions: 0,
            crash_drops: 0,
            replica_routed: 0,
        }
    }

    /// Records one access to `m` at `now_ms`, applies any promotion/demotion
    /// transition the refreshed window triggers, and returns the node that
    /// should serve the access: the least-loaded live candidate among the
    /// owner and the key's replicas (ties prefer the owner, then the lowest
    /// node index). Transitions and diversions are appended to `actions`.
    // lint: hotpath
    pub(crate) fn route_atom(
        &mut self,
        m: MortonKey,
        owner: u32,
        now_ms: f64,
        alive: &[bool],
        load: &[u64],
        actions: &mut Vec<ReplicaAction>,
    ) -> u32 {
        let capacity = self.cfg.promote_accesses as usize;
        let ring = self
            .hits
            .entry(m)
            .or_insert_with(|| AccessRing::new(capacity));
        ring.record(now_ms);
        let count = ring.windowed_count(now_ms, self.cfg.window_ms);

        if let Some(hosts) = self.replicas.get(&m) {
            if count <= self.cfg.demote_accesses {
                for &n in hosts {
                    actions.push(ReplicaAction::Demoted { morton: m, node: n });
                }
                self.replicas.remove(&m);
                self.demotions += 1;
            }
        } else if count >= self.cfg.promote_accesses && self.replicas.len() < self.cfg.max_hot_atoms
        {
            // Candidate hosts: live nodes other than the owner, least loaded
            // first (ties by index). Integer loads, so the order is total.
            // lint: allow(M001) — promotion is a rare table transition; the
            // Vec escapes into the replica table, it is not scratch.
            let mut hosts: Vec<u32> = (0..alive.len() as u32)
                .filter(|&n| n != owner && alive[n as usize])
                .collect();
            hosts.sort_by_key(|&n| (load[n as usize], n));
            hosts.truncate(self.cfg.max_replicas_per_atom as usize);
            if !hosts.is_empty() {
                for &n in &hosts {
                    actions.push(ReplicaAction::Promoted {
                        morton: m,
                        node: n,
                        window_accesses: count,
                    });
                }
                self.replicas.insert(m, hosts);
                self.promotions += 1;
            }
        }

        let mut best = owner;
        if let Some(hosts) = self.replicas.get(&m) {
            for &n in hosts {
                if alive[n as usize] && load[n as usize] < load[best as usize] {
                    best = n;
                }
            }
        }
        if best != owner {
            self.replica_routed += 1;
            actions.push(ReplicaAction::Routed {
                morton: m,
                owner,
                replica: best,
            });
        }
        best
    }

    /// Drops every replica hosted on `node` (a scripted crash killed it) and
    /// returns the keys that lost a replica there, ascending. Future
    /// promotions only consider live nodes, so the table never re-learns a
    /// dead host.
    pub(crate) fn drop_node(&mut self, node: u32) -> Vec<MortonKey> {
        let mut dropped = Vec::new();
        self.replicas.retain(|&m, hosts| {
            let before = hosts.len();
            hosts.retain(|&n| n != node);
            if hosts.len() < before {
                dropped.push(m);
                self.crash_drops += 1;
            }
            !hosts.is_empty()
        });
        dropped
    }

    /// Serializable end-of-run summary (replica table included, so report
    /// byte-identity covers placement).
    pub(crate) fn summary(&self) -> ReplicationSummary {
        ReplicationSummary {
            promotions: self.promotions,
            demotions: self.demotions,
            crash_drops: self.crash_drops,
            replica_routed: self.replica_routed,
            replicas: self
                .replicas
                .iter()
                .map(|(m, hosts)| ReplicaEntry {
                    morton: m.raw(),
                    nodes: hosts.clone(),
                })
                .collect(),
        }
    }
}

/// End-of-run replication summary, serialized into the cluster report.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicationSummary {
    /// Keys promoted to a replica at least once.
    pub promotions: u64,
    /// Keys demoted by histogram drift.
    pub demotions: u64,
    /// Replicas dropped because their host crashed.
    pub crash_drops: u64,
    /// Footprint atoms diverted from their slab owner to a replica.
    pub replica_routed: u64,
    /// Final replica table, ascending Morton key.
    pub replicas: Vec<ReplicaEntry>,
}

/// One row of the final replica table.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaEntry {
    /// The replicated Morton key.
    pub morton: u64,
    /// Hosting nodes, ascending.
    pub nodes: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(promote: u32, demote: u32) -> ReplicaDirectory {
        ReplicaDirectory::new(ReplicationConfig {
            enabled: true,
            window_ms: 1_000.0,
            promote_accesses: promote,
            demote_accesses: demote,
            max_replicas_per_atom: 1,
            max_hot_atoms: 8,
        })
    }

    #[test]
    fn cold_keys_route_to_their_owner() {
        let mut d = dir(3, 1);
        let alive = [true; 4];
        let load = [0u64; 4];
        let mut acts = Vec::new();
        assert_eq!(
            d.route_atom(MortonKey(7), 2, 0.0, &alive, &load, &mut acts),
            2
        );
        assert!(acts.is_empty(), "no transitions on a cold key: {acts:?}");
        assert!(d.summary().replicas.is_empty());
    }

    #[test]
    fn hot_key_promotes_to_the_least_loaded_non_owner() {
        let mut d = dir(3, 1);
        let alive = [true; 4];
        let load = [9u64, 4, 0, 2]; // owner 0 busy; node 2 idlest
        let mut acts = Vec::new();
        for t in 0..2 {
            d.route_atom(MortonKey(7), 0, t as f64, &alive, &load, &mut acts);
        }
        assert!(acts.is_empty(), "below threshold: {acts:?}");
        let target = d.route_atom(MortonKey(7), 0, 2.0, &alive, &load, &mut acts);
        assert!(matches!(
            acts[0],
            ReplicaAction::Promoted {
                node: 2,
                window_accesses: 3,
                ..
            }
        ));
        assert_eq!(target, 2, "the promoting access already diverts");
        assert!(matches!(
            acts[1],
            ReplicaAction::Routed {
                owner: 0,
                replica: 2,
                ..
            }
        ));
    }

    #[test]
    fn routing_prefers_the_owner_on_load_ties() {
        let mut d = dir(2, 0);
        let alive = [true; 2];
        let load = [3u64, 3];
        let mut acts = Vec::new();
        d.route_atom(MortonKey(1), 0, 0.0, &alive, &load, &mut acts);
        let t = d.route_atom(MortonKey(1), 0, 1.0, &alive, &load, &mut acts);
        assert_eq!(t, 0, "equal load must not divert");
    }

    #[test]
    fn window_drift_demotes() {
        let mut d = dir(2, 1);
        let alive = [true; 2];
        let load = [5u64, 0];
        let mut acts = Vec::new();
        d.route_atom(MortonKey(3), 0, 0.0, &alive, &load, &mut acts);
        d.route_atom(MortonKey(3), 0, 10.0, &alive, &load, &mut acts); // promotes
        assert_eq!(d.summary().replicas.len(), 1);
        acts.clear();
        // Next access far outside the window: count falls to 1 ≤ demote.
        let t = d.route_atom(MortonKey(3), 0, 10_000.0, &alive, &load, &mut acts);
        assert!(matches!(acts[0], ReplicaAction::Demoted { node: 1, .. }));
        assert_eq!(t, 0, "demoted key routes to its owner");
        assert!(d.summary().replicas.is_empty());
        assert_eq!(d.summary().demotions, 1);
    }

    #[test]
    fn crash_drops_replicas_and_promotions_avoid_the_dead_node() {
        let mut d = dir(2, 0);
        let mut alive = [true; 3];
        let load = [5u64, 0, 1];
        let mut acts = Vec::new();
        d.route_atom(MortonKey(3), 0, 0.0, &alive, &load, &mut acts);
        d.route_atom(MortonKey(3), 0, 1.0, &alive, &load, &mut acts); // replica on 1
        assert_eq!(d.drop_node(1), vec![MortonKey(3)]);
        assert!(d.summary().replicas.is_empty());
        assert_eq!(d.summary().crash_drops, 1);
        alive[1] = false;
        acts.clear();
        // Re-promotion after the crash must pick a live host.
        d.route_atom(MortonKey(3), 0, 2.0, &alive, &load, &mut acts);
        assert!(
            matches!(acts[0], ReplicaAction::Promoted { node: 2, .. }),
            "{acts:?}"
        );
    }

    #[test]
    fn hot_atom_budget_caps_the_table() {
        let mut d = ReplicaDirectory::new(ReplicationConfig {
            max_hot_atoms: 1,
            ..dir(1, 0).cfg
        });
        let alive = [true; 2];
        let load = [5u64, 0];
        let mut acts = Vec::new();
        d.route_atom(MortonKey(1), 0, 0.0, &alive, &load, &mut acts);
        d.route_atom(MortonKey(2), 0, 0.0, &alive, &load, &mut acts);
        assert_eq!(d.summary().replicas.len(), 1, "budget of one key");
    }

    /// The retired histogram, verbatim: per-key `VecDeque<f64>` of every
    /// in-window access timestamp, trimmed exactly. Kept as the decision
    /// oracle for [`AccessRing`]. The only deliberate difference is the
    /// `window_accesses` payload of `Promoted`, which the ring saturates at
    /// `promote_accesses`; the oracle applies the same saturation so the
    /// comparison below is exact over full action sequences.
    struct DequeOracle {
        cfg: ReplicationConfig,
        hits: BTreeMap<MortonKey, std::collections::VecDeque<f64>>,
        replicas: BTreeMap<MortonKey, Vec<u32>>,
    }

    impl DequeOracle {
        fn new(cfg: ReplicationConfig) -> Self {
            DequeOracle {
                cfg,
                hits: BTreeMap::new(),
                replicas: BTreeMap::new(),
            }
        }

        fn route_atom(
            &mut self,
            m: MortonKey,
            owner: u32,
            now_ms: f64,
            alive: &[bool],
            load: &[u64],
            actions: &mut Vec<ReplicaAction>,
        ) -> u32 {
            let window = self.hits.entry(m).or_default();
            window.push_back(now_ms);
            while let Some(&t) = window.front() {
                if now_ms - t > self.cfg.window_ms {
                    window.pop_front();
                } else {
                    break;
                }
            }
            let count = window.len() as u32;
            if let Some(hosts) = self.replicas.get(&m) {
                if count <= self.cfg.demote_accesses {
                    for &n in hosts {
                        actions.push(ReplicaAction::Demoted { morton: m, node: n });
                    }
                    self.replicas.remove(&m);
                }
            } else if count >= self.cfg.promote_accesses
                && self.replicas.len() < self.cfg.max_hot_atoms
            {
                let mut hosts: Vec<u32> = (0..alive.len() as u32)
                    .filter(|&n| n != owner && alive[n as usize])
                    .collect();
                hosts.sort_by_key(|&n| (load[n as usize], n));
                hosts.truncate(self.cfg.max_replicas_per_atom as usize);
                if !hosts.is_empty() {
                    for &n in &hosts {
                        actions.push(ReplicaAction::Promoted {
                            morton: m,
                            node: n,
                            window_accesses: count.min(self.cfg.promote_accesses),
                        });
                    }
                    self.replicas.insert(m, hosts);
                }
            }
            let mut best = owner;
            if let Some(hosts) = self.replicas.get(&m) {
                for &n in hosts {
                    if alive[n as usize] && load[n as usize] < load[best as usize] {
                        best = n;
                    }
                }
            }
            if best != owner {
                actions.push(ReplicaAction::Routed {
                    morton: m,
                    owner,
                    replica: best,
                });
            }
            best
        }
    }

    /// The bucket-ring histogram must reproduce the exact sliding window's
    /// promote/demote/route decisions on a paper-like skewed trace: ~70 % of
    /// accesses hammer a dozen hot keys (driving promotions, demotions on
    /// drift, and replica routing), the rest spread over a long cold tail.
    #[test]
    fn ring_pins_identical_decisions_to_the_deque_oracle_on_a_skewed_trace() {
        let cfg = ReplicationConfig {
            enabled: true,
            window_ms: 500.0,
            promote_accesses: 8,
            demote_accesses: 2,
            max_replicas_per_atom: 2,
            max_hot_atoms: 6, // deliberately tight: budget refusals included
        };
        let mut ring = ReplicaDirectory::new(cfg);
        let mut oracle = DequeOracle::new(cfg);
        let nodes = 5usize;
        let mut alive = vec![true; nodes];
        let mut load = vec![0u64; nodes];
        let mut state = 0x2009_0720_u64;
        let mut rng = move || {
            // splitmix64 — the workspace's seeded-stream idiom.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut now_ms = 0.0f64;
        let mut ring_actions = Vec::new();
        let mut oracle_actions = Vec::new();
        for step in 0..4096 {
            let r = rng();
            // 70 % of traffic on 12 hot keys, the rest on a 500-key tail.
            let key = if r % 10 < 7 {
                MortonKey((r / 10) % 12)
            } else {
                MortonKey(100 + (r / 10) % 500)
            };
            let owner = (key.raw() % nodes as u64) as u32;
            // Phased arrivals: dense bursts (hot keys cross the promotion
            // threshold) alternating with lulls (their windows drain past
            // the demotion threshold).
            now_ms += if (step / 512) % 2 == 0 {
                (r >> 32) as f64 % 4.0
            } else {
                60.0 + (r >> 32) as f64 % 80.0
            };
            load[step % nodes] = r % 97; // drifting load picture
            if step == 1500 {
                // Mid-trace crash: both tables drop node 3's replicas.
                assert_eq!(ring.drop_node(3), {
                    let mut dropped = Vec::new();
                    oracle.replicas.retain(|&m, hosts| {
                        let before = hosts.len();
                        hosts.retain(|&n| n != 3);
                        if hosts.len() < before {
                            dropped.push(m);
                        }
                        !hosts.is_empty()
                    });
                    dropped
                });
                alive[3] = false;
            }
            let a = ring.route_atom(key, owner, now_ms, &alive, &load, &mut ring_actions);
            let b = oracle.route_atom(key, owner, now_ms, &alive, &load, &mut oracle_actions);
            assert_eq!(a, b, "routing diverged at step {step}");
        }
        assert_eq!(ring_actions, oracle_actions, "action sequences diverged");
        // The trace actually exercised every transition kind.
        let has = |f: &dyn Fn(&ReplicaAction) -> bool| ring_actions.iter().any(f);
        assert!(has(&|a| matches!(a, ReplicaAction::Promoted { .. })));
        assert!(has(&|a| matches!(a, ReplicaAction::Demoted { .. })));
        assert!(has(&|a| matches!(a, ReplicaAction::Routed { .. })));
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn degenerate_hysteresis_rejected() {
        ReplicationConfig {
            demote_accesses: 4,
            promote_accesses: 4,
            ..ReplicationConfig::on()
        }
        .validate();
    }
}
