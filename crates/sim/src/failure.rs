//! Seeded failure scenarios for the cluster engine (ROADMAP item 3).
//!
//! The §V-C deployment assumes every node survives the replay; a production
//! JAWS must keep draining the workload when a node crashes mid-batch or
//! degrades into a straggler (STAR-Scheduler is the reference point for
//! distributed I/O-intensive dispatch under node failure). A [`FailurePlan`]
//! is a *deterministic script* of such events, injected into the engine's
//! event queue like any other event:
//!
//! * **Crash** — at time `T` the node is marked dead, its Morton slab is
//!   re-routed to a designated survivor (clamped routing update, chained
//!   across repeated failures), and every in-flight or queued sub-query part
//!   it held is re-enqueued through the survivor's scheduler so ordered-job
//!   barriers still resolve. Re-dispatched work re-enters the survivor's
//!   utility ranking — it does not jump the queue (LifeRaft's
//!   starvation-vs-throughput lesson).
//! * **Slowdown** — at time `T` the node's charged service times (batches and
//!   speculative reads) are multiplied by a factor, modeling a straggler.
//!
//! ## Determinism contract
//!
//! A plan is constructed from an **explicit seed** and explicit event times —
//! this module contains no entropy or wall-clock source (`clippy.toml` bans
//! them), and
//! the compiler enforces that plans are built through [`FailurePlan::new`]:
//! the fields are private and there is no `Default`, so the seed can never be
//! defaulted away. The seed
//! drives only the optional deterministic time [`FailurePlan::jittered`]
//! perturbation; same seed + same plan ⇒ byte-identical reports and JSONL
//! traces (asserted by `crates/sim/tests/determinism.rs`).

use serde::Serialize;

/// One scripted failure event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FailureEvent {
    /// The node dies at `at_ms`: its slab is re-routed and its pending parts
    /// re-dispatched to `survivor` (or, when `None`, the lowest-indexed node
    /// still alive).
    Crash {
        /// Simulated time of the crash, ms.
        at_ms: f64,
        /// The node that dies.
        node: u32,
        /// Designated survivor inheriting the slab; `None` picks the
        /// lowest-indexed live node deterministically.
        survivor: Option<u32>,
    },
    /// The node turns into a straggler at `at_ms`: every subsequently charged
    /// batch or prefetch service time is multiplied by `factor`.
    Slowdown {
        /// Simulated time the degradation starts, ms.
        at_ms: f64,
        /// The straggling node.
        node: u32,
        /// Service-time multiplier (≥ 1 models degradation; must be finite
        /// and > 0).
        factor: f64,
    },
}

impl FailureEvent {
    /// The simulated time the event fires.
    pub fn at_ms(&self) -> f64 {
        match *self {
            FailureEvent::Crash { at_ms, .. } | FailureEvent::Slowdown { at_ms, .. } => at_ms,
        }
    }

    /// The node the event targets.
    pub fn node(&self) -> u32 {
        match *self {
            FailureEvent::Crash { node, .. } | FailureEvent::Slowdown { node, .. } => node,
        }
    }
}

/// A deterministic, seeded script of node failures for one cluster replay.
///
/// Construction requires an explicit seed ([`FailurePlan::new`]) even though
/// event times are explicit, so that every derived perturbation
/// ([`FailurePlan::jittered`]) is replayable and no call site can fall back
/// to ambient entropy:
///
/// ```
/// let plan = jaws_sim::FailurePlan::new(17).crash_at(1_000.0, 1);
/// assert_eq!(plan.seed(), 17);
/// ```
///
/// The fields are private, so a struct literal does not compile outside
/// this module:
///
/// ```compile_fail,E0451
/// let plan = jaws_sim::FailurePlan { seed: 0, events: Vec::new() };
/// ```
///
/// and there is no `Default` to hide the seed behind:
///
/// ```compile_fail,E0599
/// let plan = jaws_sim::FailurePlan::default();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailurePlan {
    seed: u64,
    events: Vec<FailureEvent>,
}

impl FailurePlan {
    /// An empty plan under an explicit seed. Add events with
    /// [`FailurePlan::crash_at`] / [`FailurePlan::slowdown_at`].
    pub fn new(seed: u64) -> Self {
        FailurePlan {
            seed,
            events: Vec::new(),
        }
    }

    /// The canonical no-failure plan (seed 0, no events) — what a plain
    /// replay uses.
    pub fn none() -> Self {
        Self::new(0)
    }

    /// Schedules a crash of `node` at `at_ms` with the default survivor rule
    /// (lowest-indexed node still alive at crash time).
    pub fn crash_at(mut self, at_ms: f64, node: u32) -> Self {
        assert!(
            at_ms.is_finite() && at_ms >= 0.0,
            "crash time must be finite"
        );
        self.events.push(FailureEvent::Crash {
            at_ms,
            node,
            survivor: None,
        });
        self
    }

    /// Schedules a crash of `node` at `at_ms`, designating `survivor` to
    /// inherit its slab.
    pub fn crash_with_survivor(mut self, at_ms: f64, node: u32, survivor: u32) -> Self {
        assert!(
            at_ms.is_finite() && at_ms >= 0.0,
            "crash time must be finite"
        );
        assert_ne!(node, survivor, "a node cannot survive its own crash");
        self.events.push(FailureEvent::Crash {
            at_ms,
            node,
            survivor: Some(survivor),
        });
        self
    }

    /// Schedules a service-time slowdown of `node` by `factor` from `at_ms`.
    pub fn slowdown_at(mut self, at_ms: f64, node: u32, factor: f64) -> Self {
        assert!(
            at_ms.is_finite() && at_ms >= 0.0,
            "slowdown time must be finite"
        );
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown factor must be finite and positive"
        );
        self.events.push(FailureEvent::Slowdown {
            at_ms,
            node,
            factor,
        });
        self
    }

    /// Derives a plan whose event times are deterministically perturbed by up
    /// to ±`amplitude_ms`, driven by the plan's seed (splitmix64 over the
    /// event index — no entropy). Perturbed times are clamped at 0. Useful
    /// for sweeping "the same scenario, slightly shifted" without inventing
    /// new seeds per run.
    pub fn jittered(&self, amplitude_ms: f64) -> Self {
        assert!(
            amplitude_ms.is_finite() && amplitude_ms >= 0.0,
            "jitter amplitude must be finite and non-negative"
        );
        let jitter_of = |i: u64| {
            // splitmix64: the standard 64-bit finalizer; a pure function of
            // (seed, index), so the derived plan is itself deterministic.
            let mut z = self
                .seed
                .wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            // Map to [-1, 1) on a 53-bit mantissa grid (exact in f64).
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let events = self
            .events
            .iter()
            .enumerate()
            .map(|(i, ev)| {
                let shift = jitter_of(i as u64) * amplitude_ms;
                match *ev {
                    FailureEvent::Crash {
                        at_ms,
                        node,
                        survivor,
                    } => FailureEvent::Crash {
                        at_ms: (at_ms + shift).max(0.0),
                        node,
                        survivor,
                    },
                    FailureEvent::Slowdown {
                        at_ms,
                        node,
                        factor,
                    } => FailureEvent::Slowdown {
                        at_ms: (at_ms + shift).max(0.0),
                        node,
                        factor,
                    },
                }
            })
            .collect();
        FailurePlan {
            seed: self.seed,
            events,
        }
    }

    /// The scripted events, in insertion order (the engine queues them with
    /// time + insertion-id keys, so same-time events fire in this order).
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// The explicit seed the plan was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan schedules nothing (the plain-replay fast path).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Validates the plan against a cluster of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range node indices, a crash scripted twice for the
    /// same node, or a plan that crashes every node (nothing could drain the
    /// workload).
    pub fn validate(&self, nodes: u32) {
        let mut crashed = std::collections::BTreeSet::new();
        for ev in &self.events {
            assert!(
                ev.node() < nodes,
                "failure event targets node {} of a {}-node cluster",
                ev.node(),
                nodes
            );
            if let FailureEvent::Crash { node, survivor, .. } = ev {
                assert!(
                    crashed.insert(*node),
                    "node {node} is scripted to crash twice"
                );
                if let Some(s) = survivor {
                    assert!(
                        *s < nodes,
                        "survivor {s} out of range for a {nodes}-node cluster"
                    );
                }
            }
        }
        assert!(
            (crashed.len() as u32) < nodes,
            "a FailurePlan must leave at least one node alive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_events_in_order() {
        let p = FailurePlan::new(7)
            .crash_at(100.0, 1)
            .slowdown_at(50.0, 0, 2.0);
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.events()[0].at_ms(), 100.0);
        assert_eq!(p.events()[1].node(), 0);
        assert_eq!(p.seed(), 7);
        assert!(!p.is_empty());
        assert!(FailurePlan::none().is_empty());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = FailurePlan::new(42)
            .crash_at(1000.0, 0)
            .slowdown_at(2000.0, 1, 4.0);
        let a = p.jittered(100.0);
        let b = p.jittered(100.0);
        assert_eq!(a, b, "same seed must derive the same jittered plan");
        for (orig, j) in p.events().iter().zip(a.events()) {
            assert!((j.at_ms() - orig.at_ms()).abs() <= 100.0);
            assert!(j.at_ms() >= 0.0);
        }
        // A different seed moves the times differently.
        let c = FailurePlan::new(43)
            .crash_at(1000.0, 0)
            .slowdown_at(2000.0, 1, 4.0);
        assert_ne!(a.events()[0].at_ms(), c.jittered(100.0).events()[0].at_ms());
    }

    #[test]
    fn validate_accepts_sane_plans() {
        FailurePlan::new(1)
            .crash_with_survivor(10.0, 0, 1)
            .slowdown_at(5.0, 1, 8.0)
            .validate(2);
    }

    #[test]
    #[should_panic(expected = "at least one node alive")]
    fn validate_rejects_total_cluster_loss() {
        FailurePlan::new(1)
            .crash_at(1.0, 0)
            .crash_at(2.0, 1)
            .validate(2);
    }

    #[test]
    #[should_panic(expected = "crash twice")]
    fn validate_rejects_double_crash() {
        FailurePlan::new(1)
            .crash_at(1.0, 0)
            .crash_at(2.0, 0)
            .validate(4);
    }

    #[test]
    #[should_panic(expected = "targets node")]
    fn validate_rejects_out_of_range_nodes() {
        FailurePlan::new(1).slowdown_at(1.0, 9, 2.0).validate(2);
    }
}
