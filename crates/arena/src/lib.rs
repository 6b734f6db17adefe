//! Allocation-reuse scratch for the JAWS engine's fan-out.
//!
//! The discrete-event engine splits every query's footprint by owning
//! cluster node, once per simulated query — millions of times per
//! experiment. [`Lanes`] is a fixed set of reusable buckets (one per node)
//! for that group-by-node scatter, replacing a fresh
//! `BTreeMap<u32, Vec<T>>` per query. Iteration is always in ascending lane
//! order, so the deterministic-order obligations of the engine hold by
//! construction.
//!
//! It is plain safe Rust over `Vec`; the win is reuse, not custom memory
//! management. It is not thread-safe — the engine owns its scratch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A fixed set of reusable buckets for group-by-lane scatters.
///
/// The cluster fan-out path groups a query's footprint atoms by owning node.
/// With a `BTreeMap<u32, Vec<_>>` that is one map allocation plus one `Vec`
/// per touched node *per query*; `Lanes` keeps one bucket per node alive
/// across queries instead. [`Lanes::drain`] visits the non-empty buckets in
/// ascending lane order — the same order the `BTreeMap` iteration produced —
/// and leaves every bucket empty (capacity retained) for the next query.
#[derive(Debug, Default)]
pub struct Lanes<T> {
    lanes: Vec<Vec<T>>,
}

impl<T> Lanes<T> {
    /// Creates `n` empty lanes.
    pub fn new(n: usize) -> Self {
        Lanes {
            lanes: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when there are no lanes at all.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Items currently in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }

    /// Appends `item` to lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn push(&mut self, lane: usize, item: T) {
        self.lanes[lane].push(item);
    }

    /// Visits every non-empty lane in ascending order, handing each bucket's
    /// contents out by `mem::take` (the callee owns the `Vec`). A taken
    /// bucket's capacity leaves with it; buckets the callee gives back via
    /// [`Lanes::restore`] keep their capacity for the next round.
    pub fn drain(&mut self, mut f: impl FnMut(usize, Vec<T>)) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            if !lane.is_empty() {
                f(i, std::mem::take(lane));
            }
        }
    }

    /// Takes lane `lane`'s bucket out by `mem::take`, leaving an empty slot.
    ///
    /// This is the borrow-friendly sibling of [`Lanes::drain`] for loops that
    /// need `&mut self` access between visiting lanes (take the bucket, use
    /// it, [`Lanes::restore`] it).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn take_lane(&mut self, lane: usize) -> Vec<T> {
        std::mem::take(&mut self.lanes[lane])
    }

    /// Returns a drained bucket's `Vec` to lane `lane` so its capacity is
    /// reused. The buffer is cleared here; empty or out-of-range restores are
    /// dropped silently.
    pub fn restore(&mut self, lane: usize, mut v: Vec<T>) {
        if let Some(slot) = self.lanes.get_mut(lane) {
            if slot.capacity() < v.capacity() {
                v.clear();
                *slot = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_drain_in_ascending_order_and_reuse_capacity() {
        let mut lanes: Lanes<u32> = Lanes::new(4);
        lanes.push(2, 20);
        lanes.push(0, 1);
        lanes.push(2, 21);
        let mut seen = Vec::new();
        let mut returned = Vec::new();
        lanes.drain(|lane, bucket| {
            seen.push((lane, bucket.clone()));
            returned.push((lane, bucket));
        });
        assert_eq!(seen, vec![(0, vec![1]), (2, vec![20, 21])]);
        for (lane, bucket) in returned {
            lanes.restore(lane, bucket);
        }
        // Buckets are empty again and a second round sees fresh contents.
        lanes.push(1, 7);
        let mut second = Vec::new();
        lanes.drain(|lane, bucket| second.push((lane, bucket)));
        assert_eq!(second, vec![(1, vec![7])]);
    }
}
