//! Full-scan **reference oracle** for the workload manager's maintained
//! views.
//!
//! Every function here recomputes a derived view from the queue state
//! alone — O(pending atoms) per call, no aggregates, no caches. Their one
//! caller is the equivalence tests, which assert after every step of a
//! random op sequence that [`WorkloadManager`]'s incremental views match
//! these recomputes **bit for bit**. The module is compiled for tests only,
//! so no production scheduler code can call into it — dispatch cost must
//! stay proportional to what changed, not to queue size. The fold
//! orders here (sorted `(timestep, morton)` atom order, max-normalizers
//! folded over `finite_or_zero`) are the *definition* the incremental path
//! reproduces; change them only together.

use crate::policy::Residency;
use jaws_morton::{AtomId, FastMap};
use std::collections::BTreeMap;

use super::{blend, finite_or_zero, UtilitySnapshot, WorkloadManager};

/// Eq. 2 over every pending atom by full scan: `(atom, U_e)` with both terms
/// max-normalized before blending, in sorted `(timestep, morton)` order.
/// `alpha = 0` is pure contention order, `alpha = 1` pure arrival (age)
/// order. The oracle for [`WorkloadManager::aged_utilities`].
pub fn aged_utilities(
    wm: &WorkloadManager,
    now_ms: f64,
    alpha: f64,
    residency: &dyn Residency,
) -> Vec<(AtomId, f64)> {
    debug_assert!((0.0..=1.0).contains(&alpha));
    let raw: Vec<(AtomId, f64, f64)> = wm
        .pending_atom_ids()
        .into_iter()
        .map(|a| {
            (
                a,
                wm.workload_throughput(&a, residency.is_resident(&a)),
                wm.age(&a, now_ms),
            )
        })
        .collect();
    debug_assert!(
        raw.iter().all(|&(_, u, e)| u.is_finite() && e.is_finite()),
        "non-finite utility/age reached the Eq. 2 normalization fold"
    );
    let max_u = raw
        .iter()
        .map(|&(_, u, _)| finite_or_zero(u))
        .fold(0.0f64, f64::max);
    let max_e = raw
        .iter()
        .map(|&(_, _, e)| finite_or_zero(e))
        .fold(0.0f64, f64::max);
    raw.into_iter()
        .map(|(a, u, e)| (a, blend(u, e, max_u, max_e, alpha)))
        .collect()
}

/// Mean workload throughput per timestep by full scan (workload-free atoms
/// contribute zero, the divisor is the full per-timestep atom count). The
/// oracle for [`WorkloadManager::timestep_means`].
pub fn timestep_means(wm: &WorkloadManager, residency: &dyn Residency) -> BTreeMap<u32, f64> {
    let mut sum: BTreeMap<u32, f64> = BTreeMap::new();
    for a in wm.pending_atom_ids() {
        let u = wm.workload_throughput(&a, residency.is_resident(&a));
        *sum.entry(a.timestep).or_insert(0.0) += u;
    }
    let n = wm.params().atoms_per_timestep.max(1) as f64;
    sum.into_iter().map(|(t, s)| (t, s / n)).collect()
}

/// The URC oracle snapshot by full rebuild: every pending atom's Eq. 1 value
/// plus its timestep's mean. The oracle for
/// [`WorkloadManager::utility_snapshot`].
pub fn utility_snapshot(wm: &WorkloadManager, residency: &dyn Residency) -> UtilitySnapshot {
    let means: FastMap<u32, f64> = timestep_means(wm, residency).into_iter().collect();
    let atoms: FastMap<AtomId, f64> = wm
        .pending_atom_ids()
        .into_iter()
        .map(|a| {
            let u = wm.workload_throughput(&a, residency.is_resident(&a));
            (a, u)
        })
        .collect();
    UtilitySnapshot::from_parts(atoms, means)
}
