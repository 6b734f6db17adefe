//! Pins the synthesized payload bit for bit: an FNV-1a digest over every
//! voxel of every atom of the smoke geometry (the `exp::smoke_db()` values)
//! at timesteps 0 and 7, against a constant recorded from the direct
//! per-voxel evaluation (`SyntheticField::velocity_pressure` at every voxel).
//! A fill that moves any stored `f32` by one ulp changes the digest.

#![forbid(unsafe_code)]

use jaws_turbdb::{AtomData, AtomId, DbConfig, SyntheticField};

/// Digest of the direct per-voxel evaluation, recorded before the block
/// fill replaced it.
const SMOKE_PAYLOAD_DIGEST: u64 = 0x3c74_6999_2beb_d444;

fn smoke_db() -> DbConfig {
    DbConfig {
        grid_side: 32,
        atom_side: 8,
        ghost: 2,
        timesteps: 8,
        dt: 0.002,
        seed: 2009_0720,
    }
}

fn fnv1a(h: &mut u64, bits: u32) {
    for b in bits.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

#[test]
fn smoke_geometry_payload_matches_the_pinned_digest() {
    let cfg = smoke_db();
    let field = SyntheticField::new(cfg.seed, cfg.grid_side);
    let n = cfg.atoms_per_side();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for timestep in [0, 7] {
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let atom =
                        AtomData::materialize(&cfg, &field, AtomId::from_coords(timestep, x, y, z));
                    let (vx, vy, vz, p) = atom.planes();
                    for i in 0..vx.len() {
                        for v in [vx[i], vy[i], vz[i], p[i]] {
                            fnv1a(&mut h, v.to_bits());
                        }
                    }
                }
            }
        }
    }
    assert_eq!(h, SMOKE_PAYLOAD_DIGEST, "payload digest {h:#018x}");
}
