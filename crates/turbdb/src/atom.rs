//! Atom payloads: the 64³-voxel storage blocks with ghost replication.
//!
//! "The data are partitioned into fixed sized storage blocks or atoms of 64³
//! voxels of roughly 8MB in size. (In practice, each atom is 72³ in length
//! with four units of replication on each side for performance reasons.)"
//! (§III-A). The ghost shell means a Lagrange stencil whose center lies inside
//! the atom but whose support leaks up to `ghost` voxels outside can still be
//! served from this single atom — the locality-of-reference property the
//! two-level scheduler exploits with its batch size `k`.

use crate::config::DbConfig;
use crate::synth::{FillWorkspace, SyntheticField};
use jaws_morton::AtomId;

/// Materialized voxel data of one atom, including the ghost shell.
///
/// Voxels store a velocity vector and a pressure scalar, exactly the fields
/// of the production database. Local coordinates run over
/// `[-ghost, side + ghost)` on each axis.
///
/// Storage is structure-of-arrays: four `f32` planes (`vx`, `vy`, `vz`,
/// `p`) indexed by the same voxel offset, rather than one `Vec<[f32; 3]>`
/// plus a pressure vector. Sweep kernels that walk a single component (the
/// longitudinal structure function reads only `vx`; gradient sweeps read one
/// component per difference quotient) touch a quarter of the memory they
/// used to, in unit stride — the layout the autovectorizer wants. The four
/// planes sit one after another in a single buffer, so a payload is one
/// allocation. The per-voxel accessors gather from the planes, so the
/// numeric values are unchanged from the array-of-structs layout
/// ([`crate::reference`] retains that layout for bitwise-equality tests).
#[derive(Debug, Clone)]
pub struct AtomData {
    id: AtomId,
    side: u32,
    ghost: u32,
    /// Base (global) voxel coordinate of the atom's (0,0,0) corner.
    base: [i64; 3],
    /// The planes `vx`, `vy`, `vz`, `p`, each `ext³` long, in that order.
    planes: Vec<f32>,
}

impl AtomData {
    /// Materializes an atom from the synthetic field at the timestep's
    /// simulation time. Fills the full `(side + 2·ghost)³` block including the
    /// replicated shell; the field is periodic so the shell is well defined
    /// even at the domain boundary.
    ///
    /// The one-shot form of [`Self::materialize_with`]: it fills through a
    /// fresh [`FillWorkspace`]. The payload is bitwise the `f32` rounding of
    /// a direct `velocity_pressure` evaluation at every voxel.
    pub fn materialize(cfg: &DbConfig, field: &SyntheticField, id: AtomId) -> Self {
        Self::materialize_with(cfg, field, &mut FillWorkspace::new(), id)
    }

    /// [`Self::materialize`] through `ws`, which keeps the phasor tables
    /// and scratch shared by successive atoms of `field`. The payload is the
    /// same bits as a fresh materialization; once `ws` is warm, the payload
    /// buffer is the only allocation.
    pub fn materialize_with(
        cfg: &DbConfig,
        field: &SyntheticField,
        ws: &mut FillWorkspace,
        id: AtomId,
    ) -> Self {
        let side = cfg.atom_side;
        let ghost = cfg.ghost;
        let (ax, ay, az) = id.morton.coords();
        let base = [(ax * side) as i64, (ay * side) as i64, (az * side) as i64];
        let t = id.timestep as f64 * cfg.dt;
        let grid = cfg.grid_side as i64;
        // Global voxel coordinates along each axis, wrapped periodically.
        let axes = base.map(|b| {
            (b - ghost as i64..b + (side + ghost) as i64).map(move |g| g.rem_euclid(grid) as u32)
        });
        let ext = (side + 2 * ghost) as usize;
        let mut planes = vec![0.0; 4 * ext * ext * ext];
        ws.fill(field, axes, t, &mut planes);
        AtomData {
            id,
            side,
            ghost,
            base,
            planes,
        }
    }

    /// Voxels per plane: `ext³`.
    #[inline]
    fn volume(&self) -> usize {
        self.planes.len() / 4
    }

    /// The atom's address.
    pub fn id(&self) -> AtomId {
        self.id
    }

    /// Voxels per side (excluding ghosts).
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Ghost width per side.
    pub fn ghost(&self) -> u32 {
        self.ghost
    }

    /// Global voxel coordinate of the atom's (0,0,0) corner.
    pub fn base(&self) -> [i64; 3] {
        self.base
    }

    /// True if local coordinates `(lx, ly, lz)` (which may be negative, into
    /// the ghost shell) are servable from this atom.
    pub fn covers_local(&self, lx: i64, ly: i64, lz: i64) -> bool {
        let lo = -(self.ghost as i64);
        let hi = (self.side + self.ghost) as i64;
        (lo..hi).contains(&lx) && (lo..hi).contains(&ly) && (lo..hi).contains(&lz)
    }

    #[inline]
    fn index(&self, lx: i64, ly: i64, lz: i64) -> usize {
        debug_assert!(self.covers_local(lx, ly, lz), "ghost bounds exceeded");
        let ext = (self.side + 2 * self.ghost) as i64;
        let g = self.ghost as i64;
        ((lz + g) * ext * ext + (ly + g) * ext + (lx + g)) as usize
    }

    /// Velocity at local voxel `(lx, ly, lz)`; ghost coordinates allowed.
    /// Gathers from the three component planes.
    #[inline]
    pub fn velocity_at(&self, lx: i64, ly: i64, lz: i64) -> [f32; 3] {
        let (i, vol) = (self.index(lx, ly, lz), self.volume());
        [
            self.planes[i],
            self.planes[vol + i],
            self.planes[2 * vol + i],
        ]
    }

    /// Longitudinal (x) velocity component at local voxel `(lx, ly, lz)` —
    /// a single-plane read for kernels that only need one component, such as
    /// the longitudinal structure-function gather.
    #[inline]
    pub fn velocity_x_at(&self, lx: i64, ly: i64, lz: i64) -> f32 {
        self.planes[self.index(lx, ly, lz)]
    }

    /// Pressure at local voxel `(lx, ly, lz)`; ghost coordinates allowed.
    #[inline]
    pub fn pressure_at(&self, lx: i64, ly: i64, lz: i64) -> f32 {
        self.planes[3 * self.volume() + self.index(lx, ly, lz)]
    }

    /// The four SoA planes `(vx, vy, vz, pressure)`, each `ext³` long in
    /// z-major voxel order, for sweep kernels that want unit-stride slices.
    /// Use [`AtomData::plane_index`] to address them.
    pub fn planes(&self) -> (&[f32], &[f32], &[f32], &[f32]) {
        let (vx, rest) = self.planes.split_at(self.volume());
        let (vy, rest) = rest.split_at(self.volume());
        let (vz, p) = rest.split_at(self.volume());
        (vx, vy, vz, p)
    }

    /// Offset of local voxel `(lx, ly, lz)` into the [`AtomData::planes`]
    /// slices; ghost coordinates allowed.
    ///
    /// # Panics
    ///
    /// May panic (debug) or return an out-of-range offset (release) when the
    /// coordinates fall outside the ghost-extended block; callers gate on
    /// [`AtomData::covers_local`].
    #[inline]
    pub fn plane_index(&self, lx: i64, ly: i64, lz: i64) -> usize {
        self.index(lx, ly, lz)
    }

    /// Nominal stored size in bytes (velocity + pressure voxels, with ghosts).
    pub fn nominal_bytes(&self) -> usize {
        self.planes.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(cfg: &DbConfig, id: AtomId) -> (SyntheticField, AtomData) {
        let field = SyntheticField::with_modes(cfg.seed, cfg.grid_side, 12);
        let atom = AtomData::materialize(cfg, &field, id);
        (field, atom)
    }

    #[test]
    fn interior_voxels_match_the_field() {
        let cfg = DbConfig::tiny();
        let id = AtomId::from_coords(1, 1, 0, 1);
        let (field, atom) = make(&cfg, id);
        let t = cfg.dt;
        let base = atom.base();
        for &(lx, ly, lz) in &[(0i64, 0i64, 0i64), (3, 5, 7), (7, 7, 7)] {
            let p = [
                (base[0] + lx) as f64,
                (base[1] + ly) as f64,
                (base[2] + lz) as f64,
            ];
            let expect = field.velocity(p, t);
            let got = atom.velocity_at(lx, ly, lz);
            for i in 0..3 {
                assert!((got[i] as f64 - expect[i]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn ghost_shell_replicates_neighbor_data() {
        let cfg = DbConfig::tiny();
        // Two atoms adjacent in x: ghost of the left atom overlaps the
        // interior of the right one.
        let left = AtomId::from_coords(0, 0, 0, 0);
        let right = AtomId::from_coords(0, 1, 0, 0);
        let field = SyntheticField::with_modes(cfg.seed, cfg.grid_side, 12);
        let a = AtomData::materialize(&cfg, &field, left);
        let b = AtomData::materialize(&cfg, &field, right);
        // Left atom local x = side (first ghost voxel) == right atom local x = 0.
        let s = cfg.atom_side as i64;
        assert_eq!(a.velocity_at(s, 3, 4), b.velocity_at(0, 3, 4));
        assert_eq!(a.velocity_at(s + 1, 0, 0), b.velocity_at(1, 0, 0));
    }

    #[test]
    fn ghost_wraps_periodically_at_domain_boundary() {
        let cfg = DbConfig::tiny(); // 2 atoms per side
        let last = AtomId::from_coords(0, 1, 0, 0);
        let first = AtomId::from_coords(0, 0, 0, 0);
        let field = SyntheticField::with_modes(cfg.seed, cfg.grid_side, 12);
        let a = AtomData::materialize(&cfg, &field, last);
        let b = AtomData::materialize(&cfg, &field, first);
        let s = cfg.atom_side as i64;
        // One voxel past the right edge of the last atom == first voxel of the
        // first atom (periodic wrap).
        assert_eq!(a.velocity_at(s, 2, 2), b.velocity_at(0, 2, 2));
    }

    #[test]
    fn covers_local_respects_ghost_bounds() {
        let cfg = DbConfig::tiny();
        let (_, atom) = make(&cfg, AtomId::from_coords(0, 0, 0, 0));
        let g = cfg.ghost as i64;
        let s = cfg.atom_side as i64;
        assert!(atom.covers_local(-g, 0, 0));
        assert!(atom.covers_local(s + g - 1, 0, 0));
        assert!(!atom.covers_local(-g - 1, 0, 0));
        assert!(!atom.covers_local(0, s + g, 0));
    }

    #[test]
    fn nominal_size_scales_with_ghost_shell() {
        let cfg = DbConfig::tiny();
        let (_, atom) = make(&cfg, AtomId::from_coords(0, 0, 0, 0));
        let ext = (cfg.atom_side + 2 * cfg.ghost) as usize;
        assert_eq!(atom.nominal_bytes(), ext * ext * ext * 16);
    }

    #[test]
    fn production_atom_would_be_roughly_8mb() {
        // 72³ voxels × 16 bytes ≈ 6 MB of float payload — the paper's
        // "roughly 8MB" block once page headers and alignment are added.
        let ext: usize = 72;
        let bytes = ext * ext * ext * 16;
        assert!((4 << 20..12 << 20).contains(&bytes));
    }
}
