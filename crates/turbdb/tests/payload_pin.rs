//! Pins the synthesized payload bit for bit: an FNV-1a digest over every
//! voxel of every atom of a geometry at the given timesteps, against a
//! constant that matches the direct per-voxel evaluation
//! (`SyntheticField::velocity_pressure` at every voxel). A fill that moves
//! any stored `f32` by one ulp changes the digest. Two geometries are
//! pinned: the smoke geometry (the `exp::smoke_db()` values) and a 64³ grid
//! of 16³ atoms with a 4-voxel ghost shell, whose wider ghost and larger
//! atoms exercise other block-fill extents.

#![forbid(unsafe_code)]

use jaws_turbdb::{AtomData, AtomId, DbConfig, SyntheticField};

/// Digest of the direct per-voxel evaluation, recorded before the block
/// fill replaced it.
const SMOKE_PAYLOAD_DIGEST: u64 = 0x3c74_6999_2beb_d444;

/// Digest of the 64³ geometry at timestep 0. Recorded from the block fill
/// on a payload whose per-atom XOR checksum (`df62f809f6c2fccf`) was the one
/// the direct per-voxel evaluation had produced before the block fill.
const GRID64_PAYLOAD_DIGEST: u64 = 0x82a2_e850_7c22_6f02;

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

fn grid64_db() -> DbConfig {
    DbConfig {
        grid_side: 64,
        atom_side: 16,
        ghost: 4,
        timesteps: 4,
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

/// FNV-1a over every stored voxel of every atom of `cfg` at `timesteps`.
fn payload_digest(cfg: &DbConfig, timesteps: &[u32]) -> u64 {
    let field = SyntheticField::new(cfg.seed, cfg.grid_side);
    let n = cfg.atoms_per_side();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &timestep in timesteps {
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let atom =
                        AtomData::materialize(cfg, &field, AtomId::from_coords(timestep, x, y, z));
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
    h
}

#[test]
fn smoke_geometry_payload_matches_the_pinned_digest() {
    let h = payload_digest(&smoke_db(), &[0, 7]);
    assert_eq!(h, SMOKE_PAYLOAD_DIGEST, "payload digest {h:#018x}");
}

#[test]
fn grid64_geometry_payload_matches_the_pinned_digest() {
    let h = payload_digest(&grid64_db(), &[0]);
    assert_eq!(h, GRID64_PAYLOAD_DIGEST, "payload digest {h:#018x}");
}
