//! 3-D Morton (Z-order) spatial indexing for the JAWS turbulence database.
//!
//! The Turbulence Database Cluster partitions each 1024³ timestep into 64³-voxel
//! *atoms* and lays the atoms out on disk in Morton order. The Morton index acts
//! as a space-filling curve: atoms that are close together in Morton order are
//! also near each other in voxel space, so both range and containment queries
//! are I/O-efficient, and sorting query positions in Morton order amortizes disk
//! seeks (JAWS paper, §III-A).
//!
//! This crate provides:
//!
//! * [`encode`]/[`decode`] — branch-free 3-D Morton encoding via bit dilation.
//! * [`MortonKey`] — a typed Morton index with hierarchy operations (the paper's
//!   "cubes of side 2^k" logical partitioning).
//! * [`AtomId`] — a (timestep, Morton key) pair, the addressing unit of the
//!   database, the cache and the schedulers.
//! * [`FastMap`]/[`FastSet`] — hash containers under a fixed multiply-rotate
//!   hasher, for the maps every layer looks these ids up in.
//!
//! All operations support coordinates up to 2²¹−1 per axis (63 usable bits),
//! far beyond the 16 atoms/side (1024³ grid / 64³ atoms) of the production
//! database.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod encode;
mod hash;
mod key;

pub use atom::AtomId;
pub use encode::{decode, encode, MAX_COORD};
pub use hash::{FastMap, FastSet};
pub use key::MortonKey;

#[cfg(test)]
mod proptests;
