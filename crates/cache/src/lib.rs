//! Buffer cache with pluggable replacement policies for the JAWS reproduction.
//!
//! JAWS performance "depends crucially on caching in which up to 54% of
//! requests in Turbulence workloads are serviced from the cache" (§I). The
//! paper evaluates three replacement algorithms against each other
//! (§V-B, Table I):
//!
//! * **LRU-K** — the baseline; SQL Server's page replacement is a variant of
//!   LRU-K \[O'Neil et al., SIGMOD '93\]. Implemented in [`LruK`].
//! * **SLRU** — Segmented LRU with a probationary and a small (5–10%)
//!   protected segment; the most frequently accessed atoms are promoted into
//!   the protected segment at the end of each workload run. Implemented in
//!   [`Slru`].
//! * **URC** — Utility Ranked Caching, which exploits full scheduler knowledge:
//!   atoms are evicted in increasing workload-throughput order, grouped by
//!   timestep so that "groups of data regions that are used together are
//!   cached together". Implemented in [`Urc`]; it pulls ranks from a
//!   [`UtilityOracle`] supplied by the scheduler.
//!
//! A plain [`Lru`] is also provided as a reference point.
//!
//! The [`BufferPool`] owns residency bookkeeping, hit/miss statistics and
//! wall-clock overhead accounting (Table I's "Overhead/Qry" column); it is
//! generic over the cached value so the turbulence database can cache real
//! voxel payloads (`Arc<AtomData>`) while large scheduling simulations cache
//! `()` and only model residency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lru;
mod lruk;
mod policy;
mod pool;
mod slru;
mod urc;

pub use lru::Lru;
pub use lruk::LruK;
pub use policy::{NullOracle, ReplacementPolicy, UtilityOracle, UtilityRank};
pub use pool::{AccessOutcome, BufferPool, CacheStats};
pub use slru::Slru;
pub use urc::Urc;

#[cfg(test)]
mod proptests;
