//! Pins the allocation cost of atom synthesis: once a [`FillWorkspace`] has
//! filled one atom, every further atom it fills allocates exactly two
//! blocks — the payload buffer and the `Arc` the buffer pool stores it in.
//! The phasor tables, the z memo and the row scratch are all reused.
//!
//! The counting allocator is process-global, so this file holds a single
//! test: no other test thread allocates while it measures.

use jaws_bench::alloc_counter::{self, CountingAlloc};
use jaws_bench::exp;
use jaws_turbdb::{AtomData, AtomId, DbConfig, FillWorkspace, MortonKey, SyntheticField};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by materializing `ids` in order through one workspace,
/// after a warm-up fill of `ids[0]`: one count per id.
fn warm_allocations(cfg: &DbConfig, ids: &[AtomId]) -> Vec<u64> {
    let field = SyntheticField::new(cfg.seed, cfg.grid_side);
    let mut ws = FillWorkspace::new();
    drop(Arc::new(AtomData::materialize_with(
        cfg, &field, &mut ws, ids[0],
    )));
    let mut counts = Vec::with_capacity(ids.len());
    for &id in ids {
        let before = alloc_counter::count();
        let atom = Arc::new(AtomData::materialize_with(cfg, &field, &mut ws, id));
        counts.push(alloc_counter::count() - before);
        drop(atom);
    }
    counts
}

#[test]
fn warm_materialization_allocates_only_the_payload_and_its_arc() {
    let grid64 = DbConfig {
        grid_side: 64,
        atom_side: 16,
        ghost: 4,
        ..exp::smoke_db()
    };
    for cfg in [exp::smoke_db(), grid64] {
        // The first 16 atoms of two timesteps in Morton order: z-memo hits
        // and misses, and x/y coordinates both fresh and already computed.
        let ids: Vec<AtomId> = (0..2)
            .flat_map(|t| (0..16).map(move |m| AtomId::new(t, MortonKey(m))))
            .collect();
        let counts = warm_allocations(&cfg, &ids);
        assert!(
            counts.iter().all(|&n| n == 2),
            "allocations per warm materialization on a {}³ grid: {counts:?}",
            cfg.grid_side
        );
    }
}
