//! Simulated disk with seek + transfer cost accounting.
//!
//! Atoms are laid out per timestep in Morton order — the space-filling curve
//! "provides a linear ordering of the atoms on disk while preserving spatial
//! locality" (§III-A). The disk charges a seek whenever a read is not
//! physically contiguous with the previous one, so Morton-sorted batches (the
//! scheduler's execution order) genuinely earn their amortization: reading a
//! Morton range costs one seek plus `n` transfers. One block holds one atom.

use crate::config::CostModel;
use serde::Serialize;

/// Cumulative I/O statistics.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct DiskStats {
    /// Atom-sized reads issued.
    pub reads: u64,
    /// Reads that required a seek (non-sequential with the predecessor).
    pub seeks: u64,
    /// Total simulated I/O time in milliseconds.
    pub io_ms: f64,
}

/// The simulated device.
#[derive(Debug)]
pub struct SimulatedDisk {
    cost: CostModel,
    /// Block number one past the last read, for sequentiality detection.
    head: Option<u64>,
    stats: DiskStats,
}

impl SimulatedDisk {
    /// A disk with the given cost model, head parked.
    pub fn new(cost: CostModel) -> Self {
        SimulatedDisk {
            cost,
            head: None,
            stats: DiskStats::default(),
        }
    }

    /// Reads the atom stored in `block`, returning the simulated time it
    /// took in ms.
    pub fn read(&mut self, block: u64) -> f64 {
        let sequential = self.head == Some(block);
        let mut ms = self.cost.atom_read_ms;
        if !sequential {
            ms += self.cost.seek_ms;
            self.stats.seeks += 1;
        }
        self.head = Some(block + 1);
        self.stats.reads += 1;
        self.stats.io_ms += ms;
        ms
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Resets statistics (head position is kept).
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    /// The configured cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimulatedDisk {
        SimulatedDisk::new(CostModel {
            seek_ms: 10.0,
            atom_read_ms: 100.0,
            position_compute_ms: 0.0,
            batch_dispatch_ms: 0.0,
            stencil_neighbors: 0,
        })
    }

    #[test]
    fn first_read_pays_a_seek() {
        let mut d = disk();
        assert_eq!(d.read(5), 110.0);
        assert_eq!(d.stats().seeks, 1);
    }

    #[test]
    fn sequential_reads_skip_the_seek() {
        let mut d = disk();
        d.read(5);
        assert_eq!(d.read(6), 100.0, "contiguous follow-up read");
        assert_eq!(d.read(7), 100.0);
        assert_eq!(d.stats().seeks, 1);
        assert_eq!(d.stats().reads, 3);
    }

    #[test]
    fn backward_or_skipping_reads_pay_seeks() {
        let mut d = disk();
        d.read(5);
        assert_eq!(d.read(4), 110.0, "backward");
        assert_eq!(d.read(9), 110.0, "skip ahead");
        assert_eq!(d.stats().seeks, 3);
    }

    #[test]
    fn morton_range_costs_one_seek() {
        let mut d = disk();
        let total: f64 = (100..116).map(|b| d.read(b)).sum();
        assert_eq!(total, 10.0 + 16.0 * 100.0);
    }

    #[test]
    fn io_time_accumulates() {
        let mut d = disk();
        d.read(0);
        d.read(1);
        assert!((d.stats().io_ms - 210.0).abs() < 1e-9);
        d.reset_stats();
        assert_eq!(d.stats().reads, 0);
        // Head survives the reset: next read of block 2 is sequential.
        assert_eq!(d.read(2), 100.0);
    }
}
