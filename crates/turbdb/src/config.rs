//! Database geometry and cost-model configuration.

use serde::{Deserialize, Serialize};

/// Geometry of the stored simulation.
///
/// The production database is `grid_side = 1024`, `atom_side = 64`,
/// `timesteps = 1024` over 2.048 s of simulation time (dt = 0.002 s). The
/// paper's experiments use a 31-timestep sample ("0.062 seconds of simulation
/// time"); [`DbConfig::paper_sample`] mirrors that.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DbConfig {
    /// Voxels per side of the full cube (must be a multiple of `atom_side`).
    pub grid_side: u32,
    /// Voxels per side of one atom (64 in production).
    pub atom_side: u32,
    /// Ghost-cell replication width per side (4 in production: 72³ stored
    /// for a 64³ atom).
    pub ghost: u32,
    /// Number of stored timesteps.
    pub timesteps: u32,
    /// Simulation-time spacing between stored timesteps, in seconds.
    pub dt: f64,
    /// Seed for the synthetic turbulence field.
    pub seed: u64,
}

impl DbConfig {
    /// The 800 GB experimental sample of §VI: 31 timesteps of the 1024³ grid,
    /// 4096 atoms per timestep.
    pub fn paper_sample() -> Self {
        DbConfig {
            grid_side: 1024,
            atom_side: 64,
            ghost: 4,
            timesteps: 31,
            dt: 0.002,
            seed: 0x7ab5_ce1e,
        }
    }

    /// A laptop-scale configuration with real voxel payloads: 128³ grid in
    /// 32³ atoms (64 atoms per timestep), for kernel examples and tests.
    pub fn small_synthetic() -> Self {
        DbConfig {
            grid_side: 128,
            atom_side: 32,
            ghost: 2,
            timesteps: 8,
            dt: 0.002,
            seed: 0x7ab5_ce1e,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        DbConfig {
            grid_side: 16,
            atom_side: 8,
            ghost: 2,
            timesteps: 4,
            dt: 0.002,
            seed: 42,
        }
    }

    /// Atoms per side of the atom grid.
    pub fn atoms_per_side(&self) -> u32 {
        self.grid_side / self.atom_side
    }

    /// Atoms per timestep (4096 in production).
    pub fn atoms_per_timestep(&self) -> u64 {
        let a = self.atoms_per_side() as u64;
        a * a * a
    }

    /// Total atoms stored.
    pub fn total_atoms(&self) -> u64 {
        self.atoms_per_timestep() * self.timesteps as u64
    }

    /// Validates geometric consistency.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on an inconsistent configuration.
    pub fn validate(&self) {
        assert!(self.atom_side > 0, "atom_side must be positive");
        assert!(
            self.grid_side.is_multiple_of(self.atom_side),
            "grid_side {} not a multiple of atom_side {}",
            self.grid_side,
            self.atom_side
        );
        assert!(
            self.atoms_per_side().is_power_of_two(),
            "atoms per side must be a power of two for Morton indexing"
        );
        assert!(self.ghost < self.atom_side, "ghost width exceeds atom");
        assert!(self.timesteps > 0, "need at least one timestep");
        assert!(self.dt > 0.0, "dt must be positive");
    }
}

impl Default for DbConfig {
    fn default() -> Self {
        Self::small_synthetic()
    }
}

/// Time costs of the physical operations, in simulated milliseconds.
///
/// Equation 1 of the paper is expressed in exactly these terms: `T_b`
/// estimates "the time cost of reading an atom from disk" and `T_m` "the
/// computation cost for a single position"; both "can be derived empirically"
/// and I/O cost is uniform because atoms are equal-sized.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostModel {
    /// Average seek + rotational latency charged when a read is not
    /// disk-sequential with the previous one, in ms.
    pub seek_ms: f64,
    /// Transfer time for one 8 MB atom (T_b), in ms.
    pub atom_read_ms: f64,
    /// Computation cost for a single queried position (T_m), in ms.
    pub position_compute_ms: f64,
    /// Fixed cost per scheduling pass (batch submission to the database
    /// engine: statement preparation, plan lookup, result delivery), in ms.
    /// This is what the two-level framework amortizes over `k` atoms — a
    /// single-atom-per-pass scheduler pays it on every atom.
    pub batch_dispatch_ms: f64,
    /// Number of neighboring atoms each atom's kernel evaluation touches
    /// (Lagrange stencils of boundary positions spill into adjacent atoms,
    /// §V: sub-queries "may require that a position accesses data from
    /// multiple atoms that are nearby in space"). Neighbor reads go through
    /// the cache, so co-scheduling nearby atoms in one pass (two-level
    /// batching) amortizes them. Zero disables the effect.
    pub stencil_neighbors: u32,
}

impl CostModel {
    /// Costs calibrated to the paper's testbed: ~8 MB atoms on a 4-disk
    /// RAID 5 (~100 MB/s effective → 80 ms per atom), ~8 ms average seek, and
    /// a per-position cost that puts an average query (a few thousand
    /// positions, a handful of atoms) in the paper's observed 1.4–1.6 s range.
    pub fn paper_testbed() -> Self {
        CostModel {
            seek_ms: 8.0,
            atom_read_ms: 80.0,
            position_compute_ms: 0.05,
            batch_dispatch_ms: 15.0,
            stencil_neighbors: 0,
        }
    }

    /// Asserts every time cost is finite and non-negative. A negative T_b or
    /// T_m makes Eq. 1 negative, below the rank of a workload-free atom that
    /// URC's victim walk treats as the floor.
    ///
    /// # Panics
    ///
    /// Panics naming the first invalid cost.
    pub fn validate(&self) {
        for (name, ms) in [
            ("seek_ms", self.seek_ms),
            ("atom_read_ms", self.atom_read_ms),
            ("position_compute_ms", self.position_compute_ms),
            ("batch_dispatch_ms", self.batch_dispatch_ms),
        ] {
            assert!(
                ms.is_finite() && ms >= 0.0,
                "cost {name} must be finite and >= 0, got {ms}"
            );
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "cost position_compute_ms must be finite and >= 0, got NaN")]
    fn nan_cost_is_rejected() {
        CostModel {
            position_compute_ms: f64::NAN,
            ..CostModel::paper_testbed()
        }
        .validate();
    }

    #[test]
    fn paper_sample_matches_published_geometry() {
        let c = DbConfig::paper_sample();
        c.validate();
        assert_eq!(c.atoms_per_side(), 16);
        assert_eq!(c.atoms_per_timestep(), 4096, "4096 8MB atoms per timestep");
        assert_eq!(c.timesteps, 31, "31 timesteps in the 800GB sample");
    }

    #[test]
    fn small_config_is_consistent() {
        let c = DbConfig::small_synthetic();
        c.validate();
        assert_eq!(c.atoms_per_timestep(), 64);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_grid_rejected() {
        let c = DbConfig {
            grid_side: 100,
            ..DbConfig::tiny()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_atom_grid_rejected() {
        let c = DbConfig {
            grid_side: 24,
            atom_side: 8,
            ..DbConfig::tiny()
        };
        c.validate();
    }
}
