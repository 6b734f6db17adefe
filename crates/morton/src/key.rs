//! Typed Morton keys with cube-hierarchy operations.

use crate::encode::{decode, encode, MAX_COORD};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Morton (Z-order) index identifying one atom within a timestep.
///
/// The Turbulence database logically partitions space "into cubes of side 2^k
/// for k = 0, …, log(n)" (§III-A). A `MortonKey` addresses a unit cell (an
/// atom) and exposes that hierarchy: [`MortonKey::parent_at`] returns the
/// enclosing cube at a coarser level, and [`MortonKey::cube_range`] the
/// contiguous Morton interval the cube occupies — contiguity is what makes
/// Morton-range reads sequential on disk.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct MortonKey(pub u64);

impl MortonKey {
    /// Builds a key from per-axis cell coordinates.
    #[inline]
    pub fn from_coords(x: u32, y: u32, z: u32) -> Self {
        MortonKey(encode(x, y, z))
    }

    /// Recovers the per-axis cell coordinates.
    #[inline]
    pub fn coords(self) -> (u32, u32, u32) {
        decode(self.0)
    }

    /// The raw 63-bit code.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Key of the enclosing cube of side `2^level`, expressed as the smallest
    /// Morton key inside that cube (`level = 0` is the cell itself).
    ///
    /// Because the curve visits each aligned cube contiguously, the cube of
    /// side `2^level` containing `self` occupies the half-open Morton interval
    /// `[parent_at(level), parent_at(level) + 8^level)`.
    #[inline]
    pub fn parent_at(self, level: u32) -> MortonKey {
        debug_assert!(level <= 21);
        let mask = !((1u64 << (3 * level)) - 1);
        MortonKey(self.0 & mask)
    }

    /// Half-open Morton interval `[lo, hi)` covered by the enclosing cube of
    /// side `2^level`.
    #[inline]
    pub fn cube_range(self, level: u32) -> (MortonKey, MortonKey) {
        let lo = self.parent_at(level);
        (lo, MortonKey(lo.0 + (1u64 << (3 * level))))
    }

    /// Chebyshev (L∞) distance in cells between two keys — the natural
    /// adjacency metric for ghost-cell overlap between atoms.
    pub fn chebyshev_distance(self, other: MortonKey) -> u32 {
        let (ax, ay, az) = self.coords();
        let (bx, by, bz) = other.coords();
        let d = |a: u32, b: u32| a.abs_diff(b);
        d(ax, bx).max(d(ay, by)).max(d(az, bz))
    }

    /// The up-to-26 face/edge/corner neighbours of this cell whose coordinates
    /// stay within `[0, side)` on every axis, in Morton order.
    ///
    /// Used by interpolation kernels: a Lagrange stencil near an atom boundary
    /// also reads the neighbouring atoms (§V, locality of reference).
    pub fn neighbors_within(self, side: u32) -> Vec<MortonKey> {
        debug_assert!(side > 0 && side <= MAX_COORD + 1);
        let (x, y, z) = self.coords();
        let mut out = Vec::with_capacity(26);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let nx = x as i64 + dx;
                    let ny = y as i64 + dy;
                    let nz = z as i64 + dz;
                    if (0..side as i64).contains(&nx)
                        && (0..side as i64).contains(&ny)
                        && (0..side as i64).contains(&nz)
                    {
                        out.push(MortonKey::from_coords(nx as u32, ny as u32, nz as u32));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

impl fmt::Display for MortonKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (x, y, z) = self.coords();
        write!(f, "m{}({},{},{})", self.0, x, y, z)
    }
}

impl From<u64> for MortonKey {
    fn from(v: u64) -> Self {
        MortonKey(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_of_cell_in_first_octant_is_origin() {
        let k = MortonKey::from_coords(1, 1, 1);
        assert_eq!(k.parent_at(1), MortonKey(0));
    }

    #[test]
    fn parent_at_zero_is_identity() {
        let k = MortonKey::from_coords(5, 9, 2);
        assert_eq!(k.parent_at(0), k);
    }

    #[test]
    fn cube_range_spans_exactly_8_pow_level_cells() {
        let k = MortonKey::from_coords(13, 7, 5);
        for level in 0..4 {
            let (lo, hi) = k.cube_range(level);
            assert_eq!(hi.0 - lo.0, 8u64.pow(level));
            assert!(lo <= k && k < hi, "key inside its own cube");
        }
    }

    #[test]
    fn cube_range_contains_every_cell_of_the_cube() {
        // Cube of side 4 at (4..8)³ == Morton interval of length 64.
        let k = MortonKey::from_coords(5, 6, 7);
        let (lo, hi) = k.cube_range(2);
        for x in 4..8 {
            for y in 4..8 {
                for z in 4..8 {
                    let c = MortonKey::from_coords(x, y, z);
                    assert!(lo <= c && c < hi, "{c} outside [{lo},{hi})");
                }
            }
        }
    }

    #[test]
    fn chebyshev_distance_is_max_axis_delta() {
        let a = MortonKey::from_coords(0, 0, 0);
        let b = MortonKey::from_coords(3, 1, 2);
        assert_eq!(a.chebyshev_distance(b), 3);
        assert_eq!(b.chebyshev_distance(a), 3);
        assert_eq!(a.chebyshev_distance(a), 0);
    }

    #[test]
    fn corner_cell_has_7_neighbors() {
        let k = MortonKey::from_coords(0, 0, 0);
        assert_eq!(k.neighbors_within(16).len(), 7);
    }

    #[test]
    fn interior_cell_has_26_neighbors() {
        let k = MortonKey::from_coords(8, 8, 8);
        let n = k.neighbors_within(16);
        assert_eq!(n.len(), 26);
        assert!(n.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        assert!(n.iter().all(|m| k.chebyshev_distance(*m) == 1));
    }

    #[test]
    fn face_cell_has_17_neighbors() {
        // On one face (z = 0) but interior in x and y.
        let k = MortonKey::from_coords(8, 8, 0);
        assert_eq!(k.neighbors_within(16).len(), 17);
    }

    #[test]
    fn neighbors_respect_grid_side() {
        let k = MortonKey::from_coords(15, 15, 15);
        assert_eq!(k.neighbors_within(16).len(), 7, "corner of a 16³ grid");
    }

    #[test]
    fn display_shows_coords() {
        let k = MortonKey::from_coords(1, 2, 3);
        let s = k.to_string();
        assert!(s.contains("(1,2,3)"), "{s}");
    }
}
