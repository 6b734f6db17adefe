//! The database facade: atom layout + simulated disk + buffer pool.

use crate::atom::AtomData;
use crate::config::{CostModel, DbConfig};
use crate::disk::{DiskStats, SimulatedDisk};
use crate::synth::{FillWorkspace, SyntheticField};
use jaws_cache::{AccessOutcome, BufferPool, CacheStats, ReplacementPolicy, UtilityOracle};
use jaws_morton::{AtomId, MortonKey};
use jaws_obs::ObsSink;
use std::collections::VecDeque;
use std::sync::Arc;

/// Residency change-log capacity. Consumers that fall more than this many
/// flips behind get a truncation signal and fall back to a full recheck, so
/// the bound only caps memory, never correctness.
const RESIDENCY_LOG_CAP: usize = 1024;

/// Whether atom payloads are materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Only residency and cost are modeled; no voxel data exists. Used by the
    /// large scheduling experiments (the paper's 4096-atom timesteps).
    Virtual,
    /// Voxel payloads are synthesized on first read and cached. Used by the
    /// computation kernels, examples and physics tests.
    Synthetic,
}

/// Result of reading one atom.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// True if the read was served from the buffer pool.
    pub cache_hit: bool,
    /// Simulated I/O time charged, in ms (zero on a hit).
    pub io_ms: f64,
    /// The payload, in [`DataMode::Synthetic`] only.
    pub data: Option<Arc<AtomData>>,
}

/// One node of the Turbulence Database Cluster.
///
/// Each cluster node runs a separate JAWS instance over its spatial partition
/// (§V-C); a `TurbDb` models one such node: atoms laid out on a simulated
/// disk in (timestep, Morton) order, and an externally managed buffer pool
/// exactly like the paper's 2 GB external cache (§VI-B).
///
/// The production cluster finds an atom's disk extent through SQL Server's
/// clustered B+ tree. Here the layout itself is the index: atom `m` of
/// timestep `t` is block `t·A + m` (A = atoms per timestep). The seek model
/// reads contiguity from that block number alone, and an index lookup costs
/// no simulated time.
pub struct TurbDb {
    cfg: DbConfig,
    mode: DataMode,
    /// The field and the workspace that fills its atoms (Synthetic mode
    /// only): successive misses share the workspace's phasor tables. Boxed,
    /// so a Virtual-mode database carries one pointer for it.
    synth: Option<Box<(SyntheticField, FillWorkspace)>>,
    disk: SimulatedDisk,
    pool: BufferPool<AtomId, Option<Arc<AtomData>>>,
    materializations: u64,
    /// Ring buffer of `(atom, now_resident)` buffer-pool flips, so schedulers
    /// can refresh their cached Eq. 1 values without re-probing every atom.
    res_log: VecDeque<(AtomId, bool)>,
    /// Epoch of the oldest retained log entry; `res_log_base + res_log.len()`
    /// is the current epoch.
    res_log_base: u64,
    /// Observability sink (null unless wired): atom reads and cache
    /// evictions. The eviction event is emitted here rather than inside
    /// `jaws-cache` because the pool is generic over keys, holds no clock,
    /// and its policies must stay `Send`; the database has the concrete
    /// `AtomId` pool, the oracle to score the victim, and the engine's
    /// `now_ms`.
    sink: ObsSink,
}

impl TurbDb {
    /// Opens a database whose atoms lie in (timestep, Morton) order on the
    /// simulated disk. Nothing is built per atom.
    ///
    /// `cache_atoms` is the buffer pool capacity in atoms (the paper's 2 GB
    /// cache is 256 × 8 MB atoms) and `policy` its replacement policy.
    pub fn open(
        cfg: DbConfig,
        cost: CostModel,
        mode: DataMode,
        cache_atoms: usize,
        policy: Box<dyn ReplacementPolicy<AtomId>>,
    ) -> Self {
        cfg.validate();
        cost.validate();
        let synth = match mode {
            DataMode::Virtual => None,
            DataMode::Synthetic => Some(Box::new((
                SyntheticField::new(cfg.seed, cfg.grid_side),
                FillWorkspace::new(),
            ))),
        };
        TurbDb {
            cfg,
            mode,
            synth,
            disk: SimulatedDisk::new(cost),
            pool: BufferPool::new(cache_atoms, policy),
            materializations: 0,
            res_log: VecDeque::new(),
            res_log_base: 0,
            sink: ObsSink::null(),
        }
    }

    /// Wires an observability sink; the default is null (no overhead beyond
    /// one branch per read).
    pub fn set_recorder(&mut self, sink: ObsSink) {
        self.sink = sink;
    }

    fn log_residency(&mut self, atom: AtomId, now_resident: bool) {
        if self.res_log.len() == RESIDENCY_LOG_CAP {
            self.res_log.pop_front();
            self.res_log_base += 1;
        }
        self.res_log.push_back((atom, now_resident));
    }

    /// The geometry configuration.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// The data mode.
    pub fn mode(&self) -> DataMode {
        self.mode
    }

    /// The synthetic field (Synthetic mode only) — exposed for ground-truth
    /// physics checks in tests.
    pub fn field(&self) -> Option<&SyntheticField> {
        self.synth.as_deref().map(|(field, _)| field)
    }

    /// φ from Eq. 1: true if the atom is resident in the buffer pool.
    pub fn is_resident(&self, id: &AtomId) -> bool {
        self.pool.contains(id)
    }

    /// True if the buffer pool is full, i.e. the next *miss* must evict a
    /// victim (and will therefore consult the utility oracle passed to
    /// [`Self::read_atom_at`]). While the pool is still filling, the oracle is
    /// never read, so callers may skip building a real snapshot.
    pub fn cache_at_capacity(&self) -> bool {
        self.pool.len() >= self.pool.capacity()
    }

    /// Monotone counter advanced on every residency flip (insert or evict).
    /// Pairs with [`Self::residency_changes_since`] so schedulers can update
    /// cached per-atom metrics in O(flips) instead of re-probing every atom.
    pub fn residency_epoch(&self) -> u64 {
        self.res_log_base + self.res_log.len() as u64
    }

    /// The `(atom, now_resident)` flips since epoch `since`, oldest first, or
    /// `None` when the ring buffer no longer reaches back that far (the
    /// caller must then re-check every atom it cares about). Borrows the log;
    /// nothing is allocated.
    pub fn residency_changes_since(
        &self,
        since: u64,
    ) -> Option<impl Iterator<Item = (AtomId, bool)> + '_> {
        if since < self.res_log_base || since > self.residency_epoch() {
            return None;
        }
        let skip = (since - self.res_log_base) as usize;
        Some(self.res_log.range(skip..).copied())
    }

    /// Atom (Morton key) owning a continuous voxel position, with periodic
    /// wrapping.
    pub fn atom_of_position(&self, p: [f64; 3]) -> MortonKey {
        let l = self.cfg.grid_side as f64;
        let side = self.cfg.atom_side as f64;
        let wrap = |v: f64| v.rem_euclid(l);
        let ax = (wrap(p[0]) / side) as u32;
        let ay = (wrap(p[1]) / side) as u32;
        let az = (wrap(p[2]) / side) as u32;
        MortonKey::from_coords(ax, ay, az)
    }

    /// Reads one atom through the cache; charges simulated I/O on a miss.
    ///
    /// Convenience wrapper over [`Self::read_atom_at`] for callers outside
    /// the discrete-event engine (physics kernels, tests, benches), which
    /// have no simulated clock: observability records from such reads are
    /// stamped `t_ms = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the stored geometry.
    pub fn read_atom(&mut self, id: AtomId, oracle: &dyn UtilityOracle<AtomId>) -> ReadResult {
        self.read_atom_at(id, oracle, 0.0)
    }

    /// Reads one atom through the cache at simulated engine time `now_ms`;
    /// charges simulated I/O on a miss and stamps the
    /// [`jaws_obs::Event::AtomRead`] / [`jaws_obs::Event::CacheEvict`]
    /// records with `now_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the stored geometry: its block number would
    /// alias another atom's.
    pub fn read_atom_at(
        &mut self,
        id: AtomId,
        oracle: &dyn UtilityOracle<AtomId>,
        now_ms: f64,
    ) -> ReadResult {
        let block = self.block_of(id);
        let mut io_ms = 0.0;
        let mut materialized = None;
        let outcome = self.pool.access_with(
            id,
            || {
                io_ms = self.disk.read(block);
                let (field, ws) = self.synth.as_deref_mut()?;
                self.materializations += 1;
                let data = Arc::new(AtomData::materialize_with(&self.cfg, field, ws, id));
                materialized = Some(Arc::clone(&data));
                Some(data)
            },
            oracle,
        );
        if let AccessOutcome::Miss { evicted } = &outcome {
            if let Some(victim) = evicted {
                self.log_residency(*victim, false);
                if self.sink.enabled() {
                    let rank = oracle.rank(victim);
                    self.sink.emit(
                        now_ms,
                        jaws_obs::Event::CacheEvict {
                            timestep: victim.timestep,
                            morton: victim.morton.raw(),
                            timestep_mean: rank.timestep_mean,
                            atom_utility: rank.atom_utility,
                        },
                    );
                }
            }
            self.log_residency(id, true);
        }
        let cache_hit = outcome.is_hit();
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::AtomRead {
                    timestep: id.timestep,
                    morton: id.morton.raw(),
                    hit: cache_hit,
                    io_ms,
                },
            );
        }
        let data = if cache_hit {
            self.pool.peek(&id).and_then(|d| d.clone())
        } else {
            materialized
        };
        ReadResult {
            cache_hit,
            io_ms,
            data,
        }
    }

    /// The disk block holding `id`: `t·A + m`, with A atoms per timestep.
    fn block_of(&self, id: AtomId) -> u64 {
        let per_ts = self.cfg.atoms_per_timestep();
        let m = id.morton.raw();
        assert!(
            id.timestep < self.cfg.timesteps && m < per_ts,
            "atom {id} not in the stored geometry ({} timesteps of {per_ts} atoms)",
            self.cfg.timesteps
        );
        id.timestep as u64 * per_ts + m
    }

    /// Simulated compute charge for evaluating `positions` positions (T_m).
    pub fn compute_cost_ms(&self, positions: u64) -> f64 {
        self.disk.cost_model().position_compute_ms * positions as f64
    }

    /// Fixed per-pass submission cost (statement preparation, result
    /// delivery) — amortized by multi-atom batches.
    pub fn batch_dispatch_ms(&self) -> f64 {
        self.disk.cost_model().batch_dispatch_ms
    }

    /// The neighboring atoms a kernel evaluation of `id` touches beyond the
    /// atom itself (up to `stencil_neighbors` of them, configured in the cost
    /// model): Lagrange stencils at boundary positions spill into the atoms
    /// adjacent along the x axis, periodically wrapped. These reads go
    /// through the cache like any other (§V's locality of reference).
    pub fn stencil_neighbor_ids(&self, id: AtomId) -> Vec<AtomId> {
        let n = self.disk.cost_model().stencil_neighbors.min(2);
        if n == 0 {
            return Vec::new();
        }
        let side = self.cfg.atoms_per_side();
        let (x, y, z) = id.morton.coords();
        let mut out = Vec::with_capacity(n as usize);
        out.push(AtomId::from_coords(id.timestep, (x + 1) % side, y, z));
        if n > 1 {
            out.push(AtomId::from_coords(
                id.timestep,
                (x + side - 1) % side,
                y,
                z,
            ));
        }
        out
    }

    /// Disk statistics.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.pool.stats()
    }

    /// Cache policy name.
    pub fn cache_policy_name(&self) -> &'static str {
        self.pool.policy_name()
    }

    /// Policy metadata footprint in bytes.
    pub fn cache_metadata_bytes(&self) -> usize {
        self.pool.metadata_bytes()
    }

    /// Number of atoms materialized so far (Synthetic mode).
    pub fn materializations(&self) -> u64 {
        self.materializations
    }

    /// Signals a workload-run boundary to the cache (SLRU promotion point).
    pub fn end_run(&mut self) {
        self.pool.end_run();
    }

    /// Resets disk and cache statistics (residency preserved) — used between
    /// warm-up and measurement phases.
    pub fn reset_stats(&mut self) {
        self.disk.reset_stats();
        self.pool.reset_stats();
    }

    /// Total number of atoms stored.
    pub fn total_atoms(&self) -> u64 {
        self.cfg.total_atoms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaws_cache::Lru;

    fn open_tiny(mode: DataMode, cache_atoms: usize) -> TurbDb {
        TurbDb::open(
            DbConfig::tiny(),
            CostModel {
                seek_ms: 10.0,
                atom_read_ms: 100.0,
                position_compute_ms: 0.5,
                batch_dispatch_ms: 0.0,
                stencil_neighbors: 0,
            },
            mode,
            cache_atoms,
            Box::new(Lru::new()),
        )
    }

    #[test]
    #[should_panic(expected = "cost atom_read_ms must be finite and >= 0, got -80")]
    fn open_rejects_a_negative_cost() {
        TurbDb::open(
            DbConfig::tiny(),
            CostModel {
                atom_read_ms: -80.0,
                ..CostModel::paper_testbed()
            },
            DataMode::Virtual,
            4,
            Box::new(Lru::new()),
        );
    }

    #[test]
    fn every_atom_is_stored() {
        let db = open_tiny(DataMode::Virtual, 4);
        assert_eq!(db.total_atoms(), 4 * 8); // 4 timesteps × 2³ atoms
    }

    #[test]
    #[should_panic(expected = "atom t4:m0(0,0,0) not in")]
    fn reading_past_the_last_timestep_panics() {
        let cfg = DbConfig::tiny();
        let mut db = open_tiny(DataMode::Virtual, 4);
        db.read_atom(
            AtomId::new(cfg.timesteps, MortonKey(0)),
            &jaws_cache::NullOracle,
        );
    }

    #[test]
    #[should_panic(expected = "atom t0:m8(2,0,0) not in")]
    fn reading_past_the_last_morton_key_panics() {
        let cfg = DbConfig::tiny();
        let mut db = open_tiny(DataMode::Virtual, 4);
        db.read_atom(
            AtomId::new(0, MortonKey(cfg.atoms_per_timestep())),
            &jaws_cache::NullOracle,
        );
    }

    #[test]
    fn miss_then_hit() {
        let mut db = open_tiny(DataMode::Virtual, 4);
        let id = AtomId::from_coords(0, 1, 0, 1);
        let r1 = db.read_atom(id, &jaws_cache::NullOracle);
        assert!(!r1.cache_hit);
        assert!(r1.io_ms > 0.0);
        let r2 = db.read_atom(id, &jaws_cache::NullOracle);
        assert!(r2.cache_hit);
        assert_eq!(r2.io_ms, 0.0);
        assert!(db.is_resident(&id));
    }

    #[test]
    fn morton_sequential_reads_amortize_seeks() {
        let mut db = open_tiny(DataMode::Virtual, 8);
        for m in 0..8u64 {
            db.read_atom(AtomId::new(0, MortonKey(m)), &jaws_cache::NullOracle);
        }
        let s = db.disk_stats();
        assert_eq!(s.reads, 8);
        assert_eq!(s.seeks, 1, "Morton-ordered scan pays a single seek");
    }

    #[test]
    fn timestep_boundary_is_still_sequential_on_disk() {
        // t0's last atom (block 7) and t1's first atom (block 8) are
        // physically contiguous, so crossing the timestep boundary in key
        // order does not pay a seek.
        let mut db = open_tiny(DataMode::Virtual, 16);
        db.read_atom(AtomId::new(0, MortonKey(7)), &jaws_cache::NullOracle);
        let before = db.disk_stats().seeks;
        db.read_atom(AtomId::new(1, MortonKey(0)), &jaws_cache::NullOracle);
        assert_eq!(db.disk_stats().seeks, before, "t-boundary is contiguous");
    }

    #[test]
    fn synthetic_mode_returns_data() {
        let mut db = open_tiny(DataMode::Synthetic, 4);
        let id = AtomId::from_coords(2, 0, 1, 0);
        let r = db.read_atom(id, &jaws_cache::NullOracle);
        let data = r.data.expect("payload in synthetic mode");
        assert_eq!(data.id(), id);
        assert_eq!(db.materializations(), 1);
        // A hit returns the same Arc without re-materializing.
        let r2 = db.read_atom(id, &jaws_cache::NullOracle);
        assert!(r2.cache_hit);
        assert!(r2.data.is_some());
        assert_eq!(db.materializations(), 1);
    }

    #[test]
    fn virtual_mode_has_no_data() {
        let mut db = open_tiny(DataMode::Virtual, 4);
        let r = db.read_atom(AtomId::from_coords(0, 0, 0, 0), &jaws_cache::NullOracle);
        assert!(r.data.is_none());
    }

    #[test]
    fn position_to_atom_mapping_wraps() {
        let db = open_tiny(DataMode::Virtual, 4);
        // tiny: grid 16, atom 8 → 2 atoms per side.
        assert_eq!(
            db.atom_of_position([0.0, 0.0, 0.0]),
            MortonKey::from_coords(0, 0, 0)
        );
        assert_eq!(
            db.atom_of_position([7.9, 0.0, 0.0]),
            MortonKey::from_coords(0, 0, 0)
        );
        assert_eq!(
            db.atom_of_position([8.0, 0.0, 0.0]),
            MortonKey::from_coords(1, 0, 0)
        );
        assert_eq!(
            db.atom_of_position([16.0, 0.0, 0.0]),
            MortonKey::from_coords(0, 0, 0)
        );
        assert_eq!(
            db.atom_of_position([-0.5, 0.0, 0.0]),
            MortonKey::from_coords(1, 0, 0)
        );
    }

    #[test]
    fn compute_cost_is_linear_in_positions() {
        let db = open_tiny(DataMode::Virtual, 4);
        assert_eq!(db.compute_cost_ms(0), 0.0);
        assert_eq!(db.compute_cost_ms(100), 50.0);
    }

    #[test]
    fn eviction_under_tiny_cache() {
        let mut db = open_tiny(DataMode::Virtual, 2);
        for m in 0..6u64 {
            db.read_atom(AtomId::new(0, MortonKey(m)), &jaws_cache::NullOracle);
        }
        assert_eq!(db.cache_stats().evictions, 4);
        assert!(!db.is_resident(&AtomId::new(0, MortonKey(0))));
    }

    #[test]
    fn residency_log_tracks_inserts_and_evictions() {
        let mut db = open_tiny(DataMode::Virtual, 2);
        let e0 = db.residency_epoch();
        assert_eq!(e0, 0);
        db.read_atom(AtomId::new(0, MortonKey(0)), &jaws_cache::NullOracle);
        db.read_atom(AtomId::new(0, MortonKey(1)), &jaws_cache::NullOracle);
        // A hit flips nothing.
        db.read_atom(AtomId::new(0, MortonKey(1)), &jaws_cache::NullOracle);
        assert_eq!(db.residency_epoch(), 2);
        // Third distinct atom evicts the LRU victim (atom 0).
        db.read_atom(AtomId::new(0, MortonKey(2)), &jaws_cache::NullOracle);
        assert_eq!(db.residency_epoch(), 4);
        let changes: Vec<_> = db.residency_changes_since(e0).unwrap().collect();
        assert_eq!(
            changes,
            vec![
                (AtomId::new(0, MortonKey(0)), true),
                (AtomId::new(0, MortonKey(1)), true),
                (AtomId::new(0, MortonKey(0)), false),
                (AtomId::new(0, MortonKey(2)), true),
            ]
        );
        assert_eq!(db.residency_changes_since(2).unwrap().count(), 2);
        assert_eq!(db.residency_changes_since(4).unwrap().count(), 0);
        // The log's net effect agrees with is_resident.
        assert!(!db.is_resident(&AtomId::new(0, MortonKey(0))));
        assert!(db.is_resident(&AtomId::new(0, MortonKey(1))));
        assert!(db.is_resident(&AtomId::new(0, MortonKey(2))));
    }

    #[test]
    fn residency_log_truncation_signals_full_recheck() {
        let mut db = open_tiny(DataMode::Virtual, 2);
        // Cycling 8 atoms through a 2-atom pool misses every read; each miss
        // logs 2 flips, so 100 rounds × 8 reads overflow the 1024-entry ring.
        for round in 0..100u64 {
            for m in 0..8u64 {
                let t = (round % 4) as u32;
                db.read_atom(AtomId::new(t, MortonKey(m)), &jaws_cache::NullOracle);
            }
        }
        assert!(db.residency_epoch() > super::RESIDENCY_LOG_CAP as u64);
        assert!(
            db.residency_changes_since(0).is_none(),
            "epoch 0 predates the ring buffer"
        );
        let recent = db.residency_epoch() - 1;
        assert_eq!(db.residency_changes_since(recent).unwrap().count(), 1);
        assert!(db
            .residency_changes_since(db.residency_epoch() + 1)
            .is_none());
    }
}
