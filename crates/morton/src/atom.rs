//! Atom addressing: (timestep, Morton key) pairs.
//!
//! An *atom* is the fundamental unit of I/O in the Turbulence database: a
//! 64³-voxel storage block of roughly 8 MB (§III-A). Atoms are addressed by
//! the timestep they belong to plus their Morton key within that timestep —
//! exactly the composite key of the production cluster's clustered B+ tree.
//!
//! `AtomId` lives in this crate (rather than in `jaws-turbdb`) because every
//! layer — storage, cache, scheduler, simulator — speaks in atom addresses,
//! and this is the lowest crate they all share.

use crate::key::MortonKey;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Address of one atom: timestep plus Morton key within the timestep.
///
/// `Ord` is lexicographic on `(timestep, morton)`, matching the on-disk atom
/// order so that a full-timestep scan is one contiguous range.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AtomId {
    /// Simulation timestep the atom belongs to.
    pub timestep: u32,
    /// Morton key of the atom within its timestep.
    pub morton: MortonKey,
}

impl AtomId {
    /// Builds an atom id.
    #[inline]
    pub fn new(timestep: u32, morton: MortonKey) -> Self {
        AtomId { timestep, morton }
    }

    /// Builds an atom id from atom-grid coordinates.
    #[inline]
    pub fn from_coords(timestep: u32, x: u32, y: u32, z: u32) -> Self {
        AtomId {
            timestep,
            morton: MortonKey::from_coords(x, y, z),
        }
    }
}

impl fmt::Display for AtomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}:{}", self.timestep, self.morton)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_timestep_major() {
        let a = AtomId::from_coords(0, 15, 15, 15);
        let b = AtomId::from_coords(1, 0, 0, 0);
        assert!(a < b, "all atoms of timestep 0 precede timestep 1");
    }

    #[test]
    fn order_within_timestep_is_morton() {
        let a = AtomId::from_coords(3, 1, 0, 0);
        let b = AtomId::from_coords(3, 0, 1, 0);
        assert!(a < b, "Morton order breaks ties");
    }

    #[test]
    fn display_is_compact() {
        let a = AtomId::from_coords(7, 1, 2, 3);
        assert!(a.to_string().starts_with("t7:"));
    }
}
