//! Property-based tests for Morton encoding and the key hierarchy.

use crate::{decode, encode, MortonKey, MAX_COORD};
use proptest::prelude::*;

proptest! {
    /// encode/decode are inverses over the whole coordinate domain.
    #[test]
    fn encode_decode_round_trip(x in 0..=MAX_COORD, y in 0..=MAX_COORD, z in 0..=MAX_COORD) {
        prop_assert_eq!(decode(encode(x, y, z)), (x, y, z));
    }

    /// Morton codes are unique per coordinate triple.
    #[test]
    fn encode_is_injective(
        a in (0u32..256, 0u32..256, 0u32..256),
        b in (0u32..256, 0u32..256, 0u32..256),
    ) {
        let ca = encode(a.0, a.1, a.2);
        let cb = encode(b.0, b.1, b.2);
        prop_assert_eq!(ca == cb, a == b);
    }

    /// Incrementing a single axis strictly increases the code (monotone per axis).
    #[test]
    fn per_axis_monotonicity(x in 0..MAX_COORD, y in 0..MAX_COORD, z in 0..MAX_COORD) {
        let c = encode(x, y, z);
        prop_assert!(encode(x + 1, y, z) > c);
        prop_assert!(encode(x, y + 1, z) > c);
        prop_assert!(encode(x, y, z + 1) > c);
    }

    /// The cube hierarchy nests: the level-(l+1) cube contains the level-l cube.
    #[test]
    fn cube_hierarchy_nests(code in 0u64..(1 << 30), level in 0u32..9) {
        let k = MortonKey(code);
        let (lo1, hi1) = k.cube_range(level);
        let (lo2, hi2) = k.cube_range(level + 1);
        prop_assert!(lo2 <= lo1 && hi1 <= hi2);
        prop_assert!(lo1 <= k && k < hi1);
    }

    /// Chebyshev distance is a metric: symmetric, zero iff equal, triangle inequality.
    #[test]
    fn chebyshev_is_a_metric(
        a in (0u32..128, 0u32..128, 0u32..128),
        b in (0u32..128, 0u32..128, 0u32..128),
        c in (0u32..128, 0u32..128, 0u32..128),
    ) {
        let ka = MortonKey::from_coords(a.0, a.1, a.2);
        let kb = MortonKey::from_coords(b.0, b.1, b.2);
        let kc = MortonKey::from_coords(c.0, c.1, c.2);
        prop_assert_eq!(ka.chebyshev_distance(kb), kb.chebyshev_distance(ka));
        prop_assert_eq!(ka.chebyshev_distance(kb) == 0, a == b);
        prop_assert!(
            ka.chebyshev_distance(kc) <= ka.chebyshev_distance(kb) + kb.chebyshev_distance(kc)
        );
    }
}
