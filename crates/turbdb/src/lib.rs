//! Simulated Turbulence Database Cluster substrate (§III-A of the JAWS paper).
//!
//! The production system stores "the complete space-time histories of Direct
//! Numerical Simulation": 1024 timesteps of velocity vectors and pressure
//! fields on a 1024³ grid, partitioned into fixed-size storage blocks (*atoms*)
//! of 64³ voxels (physically 72³ with four units of replication per side),
//! laid out on disk in Morton order behind a clustered B+ tree keyed on
//! (Morton index, timestep). What the scheduler exploits is that layout, so
//! the model keeps the layout and drops the tree: an atom's disk block is a
//! function of its (timestep, Morton) address.
//!
//! This crate rebuilds that substrate from scratch:
//!
//! * [`synth`] — a deterministic synthetic turbulence generator (superposed
//!   Fourier modes with a Kolmogorov −5/3 energy spectrum) standing in for the
//!   27 TB DNS archive.
//! * [`atom`] — atom payloads with ghost-cell replication.
//! * [`disk`] — a simulated disk with an explicit seek + transfer cost model;
//!   sequential reads of Morton-adjacent atoms avoid seek charges, which is
//!   exactly the effect Morton-ordered batch execution exploits.
//! * [`db`] — the [`TurbDb`] facade combining the atom layout, disk and a
//!   buffer pool, in either [`DataMode::Virtual`] (costs only, for large
//!   scheduling simulations) or [`DataMode::Synthetic`] (real voxel payloads,
//!   for the computation kernels).
//! * [`kernels`] — query evaluation kernels mirroring the public Turbulence
//!   services: Lagrange interpolation of velocity, finite-difference
//!   velocity gradients, particle advection (RK2/RK4), and region statistics.
//! * [`structures`] — turbulent-structure identification and tracking
//!   (vorticity / Q-criterion thresholding + connected components), the
//!   third production workload class.
//! * [`reference`](mod@reference) — the retained array-of-structs atom layout, pinning the
//!   SoA conversion's bitwise-identity obligations under property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod config;
pub mod db;
pub mod disk;
pub mod kernels;
pub mod reference;
pub mod structures;
pub mod synth;

pub use atom::AtomData;
pub use config::{CostModel, DbConfig};
pub use db::{DataMode, ReadResult, TurbDb};
pub use disk::{DiskStats, SimulatedDisk};
pub use jaws_morton::{AtomId, MortonKey};
pub use synth::{FillWorkspace, SyntheticField};
