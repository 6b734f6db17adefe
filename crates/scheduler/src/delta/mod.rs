//! The delta-propagation core: the one store of pending work, plus every
//! piece of *derived* scheduler state, maintained incrementally.
//!
//! # Why a single layer
//!
//! Schedulers consult the Eq. 1 / Eq. 2 metrics on every dispatch, but each
//! dispatch changes only a handful of atoms (the batch taken, the residency
//! flips its reads caused, the sub-queries that arrived). This module keeps
//! the workload queues themselves — "the union of Wⱼ¹, Wⱼ², …" of §III-C —
//! and everything derived from them in one place, in the style of
//! differential dataflow: changes enter through `DeltaCore::arrive`,
//! `DeltaCore::take` and the typed [`Delta`]s of `DeltaCore::apply`, mark
//! what they touched dirty, and integration brings the derived views up to
//! date before the next read. A dispatch costs O(Δ log m) bookkeeping for the
//! Δ atoms that changed, plus one contiguous O(m_ts) refold of each timestep
//! a changed atom belongs to — never a scan of every pending atom.
//!
//! # Update taxonomy
//!
//! | Update                      | Source                         | Effect |
//! |-----------------------------|--------------------------------|--------|
//! | `DeltaCore::arrive`         | `WorkloadManager::enqueue`     | sub-query joins its atom's slot (created if absent); ΣW and oldest updated eagerly; slot marked dirty |
//! | `DeltaCore::take`           | `WorkloadManager::take_atom`   | slot leaves its slab and hands its sub-queries to the caller; atom listed as taken |
//! | `DeltaCore::clear`          | `WorkloadManager::clear`       | every slab, aggregate, index and view dropped |
//! | [`Delta::Completed`]        | `Scheduler::on_query_complete` | bookkeeping counter (queue state already settled at take time) |
//! | [`Delta::ResidencyChanged`] | [`Residency`] change tracking (internal) | slot marked dirty iff pending and φ actually flipped |
//! | [`Delta::Aged`]             | every timed read               | advances the clock watermark (ages derive from `now` lazily) |
//!
//! # State
//!
//! `DeltaCore` owns:
//!
//! * one **slab** per timestep: a `Vec` of slots, one per pending atom,
//!   sorted by Morton key (the canonical fold order) and found by binary
//!   search. A slot *is* the atom's workload queue — its sub-queries, ΣW and
//!   oldest enqueue time — plus the cached Eq. 1 value, the residency that
//!   value was computed under, and a dirty flag;
//! * the per-timestep aggregates (ΣU, max U, Σoldest, min/max oldest);
//! * the lazily built clamped-age prefix indexes;
//! * the `Arc`-backed [`UtilitySnapshot`] the URC cache policy consumes.
//!
//! Dirtiness is recorded twice, cheaply: the slot's flag, plus a list of
//! touched timesteps that integration deduplicates. Integration recomputes
//! Eq. 1 for dirty slots *inside* the per-timestep refold, so it is one
//! linear pass over contiguous memory with no per-atom map lookup. Taken
//! atoms leave the URC view before any dirty slot re-enters it, so an atom
//! taken and re-enqueued inside one window ends up present. Inserting or
//! removing a slot is an O(m_ts) memmove, but the same change already forces
//! an O(m_ts) refold of that timestep at the next integration, so the slab
//! changes constants, not asymptotics.
//!
//! All of it is private to this module: the methods above and integration
//! are the only mutation paths. Reads assume an integrated core;
//! `WorkloadManager` integrates before every derived read.
//!
//! # Bitwise equivalence
//!
//! Floating-point sums are *refolded* per dirty timestep in slab (ascending
//! Morton) order — never drifted with `+=`/`-=` across dispatches — so every
//! incremental result is bit-for-bit identical to the full-scan
//! [`mod@reference`] oracle, which is retained **only** for tests, proptests and
//! the `dispatch_scaling` bench. No production caller may use it. The
//! interleaving proptests in `queues.rs` assert the equivalence after every
//! step of random enqueue/take/complete/residency-flip/clock-advance
//! sequences; because the oracle reads the same slots it checks, the
//! interleaving proptest also keeps an independent shadow model of the
//! queues.
//!
//! # Generation counter and no-op reads
//!
//! Every state-changing update bumps a generation counter. The coarse
//! timestep choice and the Eq. 2 max-normalizers are memoized on
//! `(generation, now, α)`, so a dispatch that changed nothing — gate rulings,
//! `AlphaController` probes, repeated snapshot reads — performs **zero**
//! arrangement folds and zero coarse scans ([`DeltaStats`] counts both; a
//! regression test pins the zero).

pub mod reference;

use crate::batch::SubQuery;
use crate::policy::Residency;
use crate::queues::{finite_or_zero, MetricParams};
use jaws_cache::{UtilityOracle, UtilityRank};
use jaws_morton::{AtomId, FastMap, MortonKey};
use jaws_workload::QueryId;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Eq. 1 for one queue. Shared by the reference and incremental paths so the
/// two can never diverge.
pub(crate) fn eq1(params: &MetricParams, positions: u64, resident: bool) -> f64 {
    debug_assert!(
        [params.atom_read_ms, params.position_compute_ms]
            .iter()
            .all(|c| c.is_finite() && *c >= 0.0),
        "non-finite cost model or negative cost: T_b={} T_m={}",
        params.atom_read_ms,
        params.position_compute_ms
    );
    let w = positions as f64;
    let phi = if resident { 0.0 } else { 1.0 };
    let denom = params.atom_read_ms * phi + params.position_compute_ms * w;
    if denom > 0.0 {
        return finite_or_zero(w / denom);
    }
    // Degenerate cost model: a resident atom with zero per-position compute
    // cost (or an all-zero model). An "infinite" throughput sentinel would
    // poison max-normalization — every other atom's normalized utility
    // collapses toward 0 and Eq. 2 degenerates to pure age order. Instead
    // rank the atom as if it still cost half an atom read: finite, monotone
    // in ΣW, and on the same scale as disk atoms (exactly twice the utility
    // of an equally loaded non-resident atom in the T_m → 0 limit).
    let half_read = 0.5 * params.atom_read_ms;
    if half_read > 0.0 {
        finite_or_zero(w / half_read)
    } else {
        w
    }
}

/// Eq. 2 blend of a max-normalized throughput and age. Shared by the
/// reference and incremental paths so the two can never diverge.
pub(crate) fn blend(u: f64, e: f64, max_u: f64, max_e: f64, alpha: f64) -> f64 {
    let un = if max_u > 0.0 { u / max_u } else { 0.0 };
    let en = if max_e > 0.0 { e / max_e } else { 0.0 };
    un * (1.0 - alpha) + en * alpha
}

/// One typed update entering the delta-propagation core that carries no
/// queue contents (arrivals and takes move sub-queries, so they have methods
/// of their own). See the module docs for the taxonomy table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delta {
    /// A query's last sub-query finished executing. Queue state settled at
    /// take time; this is lifecycle bookkeeping for [`DeltaStats`].
    Completed {
        /// The completed query.
        query: QueryId,
    },
    /// An atom's buffer-pool residency (φ of Eq. 1) flipped. Generated
    /// internally from the [`Residency`] change-tracking protocol during
    /// integration — external callers never construct these.
    ResidencyChanged {
        /// The atom whose residency flipped.
        atom: AtomId,
        /// Its new residency.
        resident: bool,
    },
    /// The simulated clock advanced. Ages derive from `now` lazily at read
    /// time, so this only moves the watermark — no arrangement is touched.
    Aged {
        /// The new clock value, ms.
        now_ms: f64,
    },
}

/// Counters over the delta stream and the maintenance work it caused.
/// Monotone; consumers diff two snapshots to measure one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DeltaStats {
    /// Sub-queries that arrived (`DeltaCore::arrive`).
    pub arrived: u64,
    /// Atom queues taken for execution (`DeltaCore::take`).
    pub taken: u64,
    /// [`Delta::Completed`] applied.
    pub completed: u64,
    /// [`Delta::ResidencyChanged`] applied (including no-op flips for
    /// non-pending atoms).
    pub residency_changed: u64,
    /// [`Delta::Aged`] applied.
    pub aged: u64,
    /// Per-atom Eq. 1 recomputations performed by integration.
    pub eq1_recomputes: u64,
    /// Per-timestep aggregate refolds performed by integration.
    pub ts_refolds: u64,
    /// Residency probes issued for untracked/volatile sources (the
    /// conservative fallback of the change-tracking protocol).
    pub residency_probes: u64,
    /// Coarse-level O(#timesteps) scans that actually ran (memo misses).
    pub coarse_scans: u64,
}

/// One pending atom of a timestep's slab: the atom's workload queue plus
/// the values integration derives from it. `subs`, `positions` and `oldest`
/// are kept eagerly by `DeltaCore::arrive`; `u` and `resident` are written by
/// integration's recompute of dirty slots, so between the arrival that
/// created a slot and the next integration they are placeholders that no
/// read ever sees.
#[derive(Debug)]
struct Slot {
    /// Morton key of the atom within its timestep — the slab's sort key.
    morton: MortonKey,
    /// The atom's pending sub-queries, in arrival order.
    subs: Vec<SubQuery>,
    /// ΣW (total pending positions) — the numerator of Eq. 1.
    positions: u64,
    /// Enqueue time of the atom's oldest pending sub-query, ms.
    oldest: f64,
    /// Cached Eq. 1 value.
    u: f64,
    /// The residency `u` was computed under; `None` until the first
    /// integration after the slot was created (unless carried over, see
    /// [`DeltaCore::taken`]).
    resident: Option<bool>,
    /// Set when the slot's inputs changed since the last integration.
    dirty: bool,
}

impl Slot {
    /// An empty queue awaiting its first sub-query and recompute. The NaN
    /// placeholder makes a missed recompute visible to any fold instead of
    /// silently reading 0.
    fn new(morton: MortonKey, resident: Option<bool>) -> Self {
        Slot {
            morton,
            subs: Vec::new(),
            positions: 0,
            oldest: f64::INFINITY,
            u: f64::NAN,
            resident,
            dirty: false,
        }
    }

    /// Eq. 2 of this slot at `now_ms` under the given normalizers.
    fn aged(&self, now_ms: f64, max_u: f64, max_e: f64, alpha: f64) -> f64 {
        blend(self.u, (now_ms - self.oldest).max(0.0), max_u, max_e, alpha)
    }
}

/// Binary search for `morton` in one Morton-sorted slab.
fn slot_index(slab: &[Slot], morton: MortonKey) -> Result<usize, usize> {
    slab.binary_search_by(|s| s.morton.cmp(&morton))
}

/// Per-timestep aggregates, refolded (in slab order) whenever any atom of
/// the timestep changes. Everything the coarse scheduling level and the
/// global normalizers need is answerable from these in O(#timesteps).
#[derive(Debug, Clone, Copy)]
struct TsAgg {
    /// Σ of cached Eq. 1 values over pending atoms of the timestep.
    sum_u: f64,
    /// max of cached Eq. 1 values.
    max_u: f64,
    /// Pending atom count.
    count: u64,
    /// Σ of per-atom oldest enqueue times, ms.
    sum_oldest: f64,
    /// min/max of per-atom oldest enqueue times, ms.
    min_oldest: f64,
    max_oldest: f64,
    /// Refold generation stamp, for invalidating derived lazy indexes.
    epoch: u64,
}

/// Lazily built per-timestep index for the clamped-age case of
/// [`DeltaCore::best_timestep`]: oldest enqueue times sorted ascending with
/// their running prefix sums. Lets Σ (now − oldest)⁺ be answered in
/// O(log n) — atoms enqueued at or before `now` contribute through the
/// prefix closed form, later ones contribute exactly zero.
#[derive(Debug, Clone)]
struct AgeIndex {
    /// The [`TsAgg::epoch`] this index was built against.
    epoch: u64,
    /// Per-atom oldest enqueue times, ascending (`total_cmp` order).
    oldest: Vec<f64>,
    /// `prefix[i]` = Σ `oldest[..=i]`, folded in ascending order.
    prefix: Vec<f64>,
}

/// Memo of the coarse timestep choice, keyed on the state generation and the
/// read parameters. A hit means nothing changed since the identical question
/// was last answered, so the cached answer is returned without any scan.
#[derive(Debug, Clone, Copy)]
struct CoarseMemo {
    generation: u64,
    now_bits: u64,
    alpha_bits: u64,
    best: Option<u32>,
}

/// Memo of the Eq. 2 max-normalizers, keyed like [`CoarseMemo`] minus α
/// (the normalizers do not depend on it).
#[derive(Debug, Clone, Copy)]
struct NormMemo {
    generation: u64,
    now_bits: u64,
    max_u: f64,
    max_e: f64,
}

/// The delta-propagation core: the pending work and every maintained
/// arrangement over it. See module docs.
#[derive(Debug)]
pub(crate) struct DeltaCore {
    /// Pending atoms per timestep, one Morton-sorted slot slab each — the
    /// canonical fold order. A timestep with no pending atom has no entry.
    slabs: BTreeMap<u32, Vec<Slot>>,
    /// Emptied slabs kept with their capacity, so a timestep that drains
    /// and refills does not regrow its `Vec` from nothing.
    spare_slabs: Vec<Vec<Slot>>,
    /// Atoms [`Self::take`] removed since the last integration, with the
    /// residency their slot was computed under. Integration drops them from
    /// the URC view. An atom taken and re-enqueued inside one integration
    /// window gets its old residency carried over to its fresh slot, so a
    /// [`Delta::ResidencyChanged`] for it dirties (and bumps the generation)
    /// exactly when it flips against the residency its cached Eq. 1 value
    /// was computed under — the same rule as for an atom that never left.
    /// That keeps [`DeltaStats`] and every memo hit/miss independent of
    /// whether the atom's queue was drained in between.
    taken: Vec<(AtomId, Option<bool>)>,
    /// Per-timestep aggregates (lazily refolded).
    ts_aggs: BTreeMap<u32, TsAgg>,
    /// Clamped-age indexes, built on demand (lookup-only, never iterated).
    age_indexes: FastMap<u32, AgeIndex>,
    /// Timesteps touched since the last integration (a slot marked dirty or
    /// taken), possibly repeated; integration sorts and dedups it. Reused,
    /// so `integrate` is alloc-free at steady state.
    dirty_ts: Vec<u32>,
    /// Reusable scratch of `(upper bound, timestep)` pairs for
    /// [`Self::best_atom`], so a LifeRaft dispatch allocates nothing.
    best_atom_scratch: Vec<(f64, u32)>,
    /// Residency epoch the slots are synced to (`None` = never/volatile).
    synced_epoch: Option<u64>,
    /// Refold generation counter feeding [`TsAgg::epoch`].
    refold_epoch: u64,
    /// Arc-backed URC snapshot view, patched in place on integration.
    urc_view: UtilitySnapshot,
    /// State generation: bumps on every delta that can change a read result.
    generation: u64,
    /// Clock watermark from [`Delta::Aged`], ms.
    clock_ms: f64,
    /// Monotone counters over the stream and its maintenance work.
    delta_stats: DeltaStats,
    /// Memoized coarse timestep choice.
    coarse_memo: Option<CoarseMemo>,
    /// Memoized Eq. 2 normalizers.
    norm_memo: Option<NormMemo>,
}

impl DeltaCore {
    /// An empty core: no pending atoms, generation zero.
    pub(crate) fn new() -> Self {
        DeltaCore {
            slabs: BTreeMap::new(),
            spare_slabs: Vec::new(),
            taken: Vec::new(),
            ts_aggs: BTreeMap::new(),
            age_indexes: FastMap::default(),
            dirty_ts: Vec::new(),
            best_atom_scratch: Vec::new(),
            synced_epoch: None,
            refold_epoch: 0,
            urc_view: UtilitySnapshot::empty(),
            generation: 0,
            clock_ms: 0.0,
            delta_stats: DeltaStats::default(),
            coarse_memo: None,
            norm_memo: None,
        }
    }

    /// Appends one sub-query to its atom's queue, creating the atom's slot
    /// if absent. O(log m) search plus at most one O(m_ts) slot insert — the
    /// float work is deferred to the next integration, so a burst of
    /// arrivals costs one refold, not many.
    pub(crate) fn arrive(&mut self, sub: SubQuery) {
        self.delta_stats.arrived += 1;
        let atom = sub.atom;
        let slab = self
            .slabs
            .entry(atom.timestep)
            .or_insert_with(|| self.spare_slabs.pop().unwrap_or_default());
        let at = slot_index(slab, atom.morton).unwrap_or_else(|at| {
            let carried = self
                .taken
                .iter()
                .rev()
                .find_map(|&(a, r)| r.filter(|_| a == atom));
            slab.insert(at, Slot::new(atom.morton, carried));
            at
        });
        let slot = &mut slab[at];
        slot.oldest = slot.oldest.min(sub.enqueued_ms);
        slot.positions += sub.positions as u64;
        slot.subs.push(sub);
        if !slot.dirty {
            slot.dirty = true;
            self.dirty_ts.push(atom.timestep);
        }
        self.generation += 1;
    }

    /// Removes one atom's whole queue and returns its sub-queries in arrival
    /// order, `None` if the atom has no pending work.
    pub(crate) fn take(&mut self, atom: AtomId) -> Option<Vec<SubQuery>> {
        let slab = self.slabs.get_mut(&atom.timestep)?;
        let slot = slab.remove(slot_index(slab, atom.morton).ok()?);
        if slab.is_empty() {
            if let Some(empty) = self.slabs.remove(&atom.timestep) {
                self.spare_slabs.push(empty);
            }
        }
        self.delta_stats.taken += 1;
        self.taken.push((atom, slot.resident));
        self.dirty_ts.push(atom.timestep);
        self.generation += 1;
        Some(slot.subs)
    }

    /// Drops all pending work and everything derived from it. Counters stay
    /// monotone; the generation bump invalidates every memo.
    pub(crate) fn clear(&mut self) {
        for (_, mut slab) in std::mem::take(&mut self.slabs) {
            slab.clear();
            self.spare_slabs.push(slab);
        }
        self.taken.clear();
        self.dirty_ts.clear();
        self.ts_aggs.clear();
        self.age_indexes.clear();
        self.urc_view = UtilitySnapshot::empty();
        self.generation += 1;
    }

    /// Folds one queue-free delta into the core.
    pub(crate) fn apply(&mut self, delta: Delta) {
        match delta {
            Delta::Completed { query: _ } => {
                self.delta_stats.completed += 1;
            }
            Delta::ResidencyChanged { atom, resident } => {
                self.delta_stats.residency_changed += 1;
                let Some(slot) = self.slot_mut(atom) else {
                    return;
                };
                if slot.resident != Some(resident) {
                    if !slot.dirty {
                        slot.dirty = true;
                        self.dirty_ts.push(atom.timestep);
                    }
                    self.generation += 1;
                }
            }
            Delta::Aged { now_ms } => {
                self.delta_stats.aged += 1;
                // Watermark only: ages derive from `now` lazily at read time,
                // so the clock does not invalidate the generation (memos key
                // on `now` themselves).
                self.clock_ms = now_ms;
            }
        }
    }

    /// The slot of one pending atom, `None` if it has no pending work.
    fn slot(&self, atom: AtomId) -> Option<&Slot> {
        let slab = self.slabs.get(&atom.timestep)?;
        slot_index(slab, atom.morton).ok().map(|i| &slab[i])
    }

    /// Mutable [`Self::slot`].
    fn slot_mut(&mut self, atom: AtomId) -> Option<&mut Slot> {
        let slab = self.slabs.get_mut(&atom.timestep)?;
        slot_index(slab, atom.morton).ok().map(|i| &mut slab[i])
    }

    /// `(ΣW, oldest enqueue ms)` of one atom's queue, `None` if it has no
    /// pending work. Eager fields, so valid without integration.
    pub(crate) fn queue(&self, atom: AtomId) -> Option<(u64, f64)> {
        self.slot(atom).map(|s| (s.positions, s.oldest))
    }

    /// Pending atoms in sorted `(timestep, morton)` order.
    pub(crate) fn pending_atoms(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.slabs
            .iter()
            .flat_map(|(&ts, slab)| slab.iter().map(move |s| AtomId::new(ts, s.morton)))
    }

    /// Number of pending atoms. O(#timesteps).
    pub(crate) fn atom_count(&self) -> usize {
        self.slabs.values().map(Vec::len).sum()
    }

    /// Number of pending sub-queries. O(pending atoms).
    pub(crate) fn subquery_count(&self) -> usize {
        self.slabs.values().flatten().map(|s| s.subs.len()).sum()
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> DeltaStats {
        self.delta_stats
    }

    /// Current state generation (bumps on every state-changing delta).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Latest [`Delta::Aged`] watermark, ms.
    pub(crate) fn clock_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Number of timesteps with pending atoms.
    pub(crate) fn timestep_count(&self) -> usize {
        self.slabs.len()
    }

    /// Pending atoms of one timestep, Morton order.
    #[cfg(test)]
    pub(crate) fn atoms_in_timestep(&self, timestep: u32) -> Vec<AtomId> {
        self.slabs
            .get(&timestep)
            .map(|slab| {
                slab.iter()
                    .map(|s| AtomId::new(timestep, s.morton))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Residency sync: turns the [`Residency`] change-tracking protocol (or
    /// the conservative full probe, for untracked sources) into
    /// [`Delta::ResidencyChanged`] updates through [`Self::apply`].
    fn sync_residency(&mut self, residency: &dyn Residency) {
        let epoch = residency.residency_epoch();
        let in_sync = matches!((epoch, self.synced_epoch), (Some(e), Some(s)) if e == s);
        if in_sync {
            return;
        }
        let changes = match self.synced_epoch {
            Some(since) if epoch.is_some() => residency.residency_changes_since(since),
            _ => None,
        };
        match changes {
            Some(list) => {
                for (atom, resident) in list {
                    self.apply(Delta::ResidencyChanged { atom, resident });
                }
            }
            None => {
                // Untracked source or truncated log: re-probe every pending
                // atom (cheap boolean probe; only actual flips dirty).
                let mut flips = Vec::new();
                for (&ts, slab) in &self.slabs {
                    for s in slab {
                        let atom = AtomId::new(ts, s.morton);
                        let resident = residency.is_resident(&atom);
                        if s.resident != Some(resident) {
                            flips.push((atom, resident));
                        }
                    }
                    self.delta_stats.residency_probes += slab.len() as u64;
                }
                for (atom, resident) in flips {
                    self.apply(Delta::ResidencyChanged { atom, resident });
                }
            }
        }
        self.synced_epoch = epoch;
    }

    /// Integration: brings every arrangement up to date with the updates
    /// since the last call. Taken atoms leave the URC view first; then each
    /// touched timestep is refolded in one pass over its slab that also
    /// recomputes Eq. 1 for the slots marked dirty. O(Δ) plus one contiguous
    /// O(m_ts) pass per touched timestep; every read method below assumes it
    /// has run.
    pub(crate) fn integrate(&mut self, params: &MetricParams, residency: &dyn Residency) {
        self.sync_residency(residency);
        if self.dirty_ts.is_empty() {
            return;
        }
        let atoms_mut = Arc::make_mut(&mut self.urc_view.atoms);
        // Removals before re-insertions, so an atom taken and re-enqueued in
        // one window ends up present.
        for (atom, _) in self.taken.drain(..) {
            atoms_mut.remove(&atom);
        }
        self.dirty_ts.sort_unstable();
        self.dirty_ts.dedup();
        // Refold touched timesteps in slab order — a full refold, not a
        // `+=`/`-=` adjustment, so the sums are bitwise identical to the
        // reference full-scan fold.
        let means_mut = Arc::make_mut(&mut self.urc_view.means);
        let n = params.atoms_per_timestep.max(1) as f64;
        self.refold_epoch += 1;
        for &ts in &self.dirty_ts {
            let Some(slab) = self.slabs.get_mut(&ts) else {
                self.ts_aggs.remove(&ts);
                self.age_indexes.remove(&ts);
                means_mut.remove(&ts);
                continue;
            };
            self.delta_stats.ts_refolds += 1;
            let mut agg = TsAgg {
                sum_u: 0.0,
                max_u: 0.0,
                count: slab.len() as u64,
                sum_oldest: 0.0,
                min_oldest: f64::INFINITY,
                max_oldest: f64::NEG_INFINITY,
                epoch: self.refold_epoch,
            };
            for s in slab.iter_mut() {
                if s.dirty {
                    let atom = AtomId::new(ts, s.morton);
                    let res = residency.is_resident(&atom);
                    s.u = eq1(params, s.positions, res);
                    s.resident = Some(res);
                    s.dirty = false;
                    self.delta_stats.eq1_recomputes += 1;
                    atoms_mut.insert(atom, s.u);
                }
                agg.sum_u += s.u;
                agg.max_u = agg.max_u.max(s.u);
                agg.sum_oldest += s.oldest;
                agg.min_oldest = agg.min_oldest.min(s.oldest);
                agg.max_oldest = agg.max_oldest.max(s.oldest);
            }
            self.ts_aggs.insert(ts, agg);
            means_mut.insert(ts, agg.sum_u / n);
        }
        self.dirty_ts.clear();
    }

    /// Global max-normalizers of Eq. 2 — `(max U_t, max E)` over all pending
    /// atoms — answered from the per-timestep aggregates in O(#timesteps),
    /// memoized on `(generation, now)` so clean repeat reads are O(1).
    fn normalizers(&mut self, now_ms: f64) -> (f64, f64) {
        debug_assert!(self.dirty_ts.is_empty(), "read before integration");
        if let Some(m) = self.norm_memo {
            if m.generation == self.generation && m.now_bits == now_ms.to_bits() {
                return (m.max_u, m.max_e);
            }
        }
        let mut max_u = 0.0f64;
        let mut min_oldest = f64::INFINITY;
        for agg in self.ts_aggs.values() {
            max_u = max_u.max(agg.max_u);
            min_oldest = min_oldest.min(agg.min_oldest);
        }
        let max_e = if min_oldest.is_finite() {
            (now_ms - min_oldest).max(0.0)
        } else {
            0.0
        };
        self.norm_memo = Some(NormMemo {
            generation: self.generation,
            now_bits: now_ms.to_bits(),
            max_u,
            max_e,
        });
        (max_u, max_e)
    }

    /// Lazily (re)builds the clamped-age index for one timestep. Only
    /// degenerate timesteps — some atom enqueued "after" the query's
    /// `now_ms` — ever pay for the O(n log n) build; the index is reused
    /// across calls until the timestep's aggregate refolds.
    pub(crate) fn ensure_age_index(&mut self, ts: u32) {
        let Some(agg) = self.ts_aggs.get(&ts) else {
            self.age_indexes.remove(&ts);
            return;
        };
        if self
            .age_indexes
            .get(&ts)
            .is_some_and(|ix| ix.epoch == agg.epoch)
        {
            return;
        }
        // A timestep with an aggregate always has a slab.
        let mut oldest: Vec<f64> = self.slabs[&ts].iter().map(|s| s.oldest).collect();
        oldest.sort_by(|a, b| a.total_cmp(b));
        let mut prefix = Vec::with_capacity(oldest.len());
        let mut s = 0.0f64;
        for &o in &oldest {
            s += o;
            prefix.push(s);
        }
        self.age_indexes.insert(
            ts,
            AgeIndex {
                epoch: agg.epoch,
                oldest,
                prefix,
            },
        );
    }

    /// Σ (now − oldest)⁺ over one timestep's pending atoms, answered from the
    /// [`AgeIndex`] in O(log n): atoms enqueued at or before `now_ms`
    /// contribute through the prefix closed form, later ones exactly zero.
    /// Requires [`Self::ensure_age_index`] to have run for `ts`.
    pub(crate) fn clamped_age_sum(&self, ts: u32, now_ms: f64) -> f64 {
        let ix = &self.age_indexes[&ts];
        let cut = ix.oldest.partition_point(|&o| o <= now_ms);
        if cut == 0 {
            0.0
        } else {
            cut as f64 * now_ms - ix.prefix[cut - 1]
        }
    }

    /// Coarse level of two-level scheduling: the timestep with the highest
    /// summed aged utility (equivalently, the highest mean over its fixed
    /// atom count). Ties prefer the smaller timestep. O(#timesteps) — and
    /// O(1) on a clean generation (memoized).
    pub(crate) fn best_timestep(&mut self, now_ms: f64, alpha: f64) -> Option<u32> {
        debug_assert!((0.0..=1.0).contains(&alpha));
        debug_assert!(self.dirty_ts.is_empty(), "read before integration");
        if let Some(m) = self.coarse_memo {
            if m.generation == self.generation
                && m.now_bits == now_ms.to_bits()
                && m.alpha_bits == alpha.to_bits()
            {
                return m.best;
            }
        }
        self.delta_stats.coarse_scans += 1;
        // Degenerate timesteps (some atom enqueued "after" now_ms, so ages
        // clamp) answer from a lazily built sorted-prefix index instead of
        // an O(n) exact fold on every call.
        let degenerate: Vec<u32> = self
            .ts_aggs
            .iter()
            .filter(|&(_, agg)| now_ms < agg.max_oldest)
            .map(|(&ts, _)| ts)
            .collect();
        for ts in degenerate {
            self.ensure_age_index(ts);
        }
        let (max_u, max_e) = self.normalizers(now_ms);
        let mut best: Option<(u32, f64)> = None;
        for (&ts, agg) in &self.ts_aggs {
            let sum_e = if now_ms >= agg.max_oldest {
                agg.count as f64 * now_ms - agg.sum_oldest
            } else {
                self.clamped_age_sum(ts, now_ms)
            };
            let su = if max_u > 0.0 { agg.sum_u / max_u } else { 0.0 };
            let se = if max_e > 0.0 { sum_e / max_e } else { 0.0 };
            let score = su * (1.0 - alpha) + se * alpha;
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((ts, score));
            }
        }
        let best = best.map(|(ts, _)| ts);
        self.coarse_memo = Some(CoarseMemo {
            generation: self.generation,
            now_bits: now_ms.to_bits(),
            alpha_bits: alpha.to_bits(),
            best,
        });
        best
    }

    /// Fine level of two-level scheduling: Eq. 2 for every pending atom of
    /// one timestep, in Morton order, written into `out` (cleared first) so
    /// the dispatch hot path reuses one buffer across calls. Per-atom values
    /// are bitwise identical to the corresponding
    /// [`reference::aged_utilities`] entries.
    pub(crate) fn timestep_aged_utilities_into(
        &mut self,
        timestep: u32,
        now_ms: f64,
        alpha: f64,
        out: &mut Vec<(AtomId, f64)>,
    ) {
        debug_assert!((0.0..=1.0).contains(&alpha));
        out.clear();
        let (max_u, max_e) = self.normalizers(now_ms);
        let Some(slab) = self.slabs.get(&timestep) else {
            return;
        };
        out.extend(slab.iter().map(|s| {
            (
                AtomId::new(timestep, s.morton),
                s.aged(now_ms, max_u, max_e, alpha),
            )
        }));
    }

    /// Eq. 2 over every pending atom, from the slabs — same contract as
    /// [`reference::aged_utilities`] (modulo output order, which here is
    /// always sorted). The output is O(n) by definition; schedulers that only
    /// need an argmax use [`Self::best_atom`] instead.
    pub(crate) fn aged_utilities(&mut self, now_ms: f64, alpha: f64) -> Vec<(AtomId, f64)> {
        debug_assert!((0.0..=1.0).contains(&alpha));
        let (max_u, max_e) = self.normalizers(now_ms);
        self.slabs
            .iter()
            .flat_map(|(&ts, slab)| {
                slab.iter().map(move |s| {
                    (
                        AtomId::new(ts, s.morton),
                        s.aged(now_ms, max_u, max_e, alpha),
                    )
                })
            })
            .collect()
    }

    /// The single pending atom with the highest aged utility (ties prefer
    /// the smaller atom id) — LifeRaft's contention-order pick. Timesteps are
    /// visited in descending upper-bound order and pruned once no remaining
    /// timestep can beat the incumbent, so the common case inspects only the
    /// hottest timestep's slab.
    pub(crate) fn best_atom(&mut self, now_ms: f64, alpha: f64) -> Option<(AtomId, f64)> {
        debug_assert!((0.0..=1.0).contains(&alpha));
        let (max_u, max_e) = self.normalizers(now_ms);
        // blend() is monotone in both terms, so a timestep's best atom is
        // bounded by blending its per-timestep maxima.
        let mut order = std::mem::take(&mut self.best_atom_scratch);
        order.clear();
        order.extend(self.ts_aggs.iter().map(|(&ts, agg)| {
            let e_ub = (now_ms - agg.min_oldest).max(0.0);
            (blend(agg.max_u, e_ub, max_u, max_e, alpha), ts)
        }));
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut best: Option<(AtomId, f64)> = None;
        for &(ub, ts) in &order {
            if let Some((_, bs)) = best {
                // Strict: an exact tie with the bound could still hide an
                // atom with a smaller id.
                if bs > ub {
                    break;
                }
            }
            for s in &self.slabs[&ts] {
                let score = s.aged(now_ms, max_u, max_e, alpha);
                let atom = AtomId::new(ts, s.morton);
                // Total order: (score via total_cmp, then smaller AtomId).
                let better = match best {
                    None => true,
                    Some((ba, bs)) => match score.total_cmp(&bs) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => atom < ba,
                        std::cmp::Ordering::Less => false,
                    },
                };
                if better {
                    best = Some((atom, score));
                }
            }
        }
        self.best_atom_scratch = order;
        best
    }

    /// The URC oracle snapshot view: an O(1) `Arc` clone of the view
    /// integration patched in place. Bitwise identical to
    /// [`reference::utility_snapshot`].
    pub(crate) fn snapshot(&self) -> UtilitySnapshot {
        debug_assert!(self.dirty_ts.is_empty(), "read before integration");
        self.urc_view.clone()
    }

    /// Per-timestep means view. Bitwise identical to
    /// [`reference::timestep_means`].
    #[cfg(any(test, doc))]
    pub(crate) fn timestep_means(&self) -> BTreeMap<u32, f64> {
        debug_assert!(self.dirty_ts.is_empty(), "read before integration");
        // The snapshot map is keyed storage (never iterated for decisions);
        // collecting into a BTreeMap re-establishes sorted order for callers.
        self.urc_view
            .means
            .iter() // lint: sorted — collected into a BTreeMap below
            .map(|(&t, &m)| (t, m))
            .collect::<BTreeMap<u32, f64>>()
    }

    /// Test-only structural check of the slabs: every slab is non-empty and
    /// strictly ascending in Morton order, and every slot's queue is
    /// consistent — non-empty, all of the slot's atom, ΣW and oldest equal to
    /// the fold over its sub-queries. With `residency`, the core must be
    /// integrated against that source: no slot is dirty, and every slot's
    /// `u` and `resident` equal Eq. 1 and the source.
    #[cfg(test)]
    pub(crate) fn check_slabs(&self, params: &MetricParams, residency: Option<&dyn Residency>) {
        for (&ts, slab) in &self.slabs {
            assert!(!slab.is_empty(), "empty slab kept for ts {ts}");
            for pair in slab.windows(2) {
                assert!(
                    pair[0].morton < pair[1].morton,
                    "slab of ts {ts} not strictly ascending"
                );
            }
            for s in slab {
                let atom = AtomId::new(ts, s.morton);
                assert!(!s.subs.is_empty(), "empty queue kept for {atom}");
                assert!(
                    s.subs.iter().all(|q| q.atom == atom),
                    "stray sub-query in {atom}"
                );
                let positions: u64 = s.subs.iter().map(|q| q.positions as u64).sum();
                assert_eq!(s.positions, positions, "ΣW of {atom}");
                let oldest = s
                    .subs
                    .iter()
                    .map(|q| q.enqueued_ms)
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(s.oldest.to_bits(), oldest.to_bits(), "oldest of {atom}");
                let Some(residency) = residency else {
                    continue;
                };
                assert!(!s.dirty, "{atom} not integrated");
                let resident = residency.is_resident(&atom);
                assert_eq!(s.resident, Some(resident), "residency of {atom}");
                assert_eq!(
                    s.u.to_bits(),
                    eq1(params, s.positions, resident).to_bits(),
                    "Eq. 1 of {atom}"
                );
            }
        }
        if residency.is_some() {
            assert!(self.dirty_ts.is_empty(), "core not integrated");
            assert!(self.taken.is_empty(), "taken atoms not integrated");
        }
    }
}

/// A point-in-time ranking of pending atoms, consumed by the URC cache policy
/// through the [`UtilityOracle`] interface. Backed by shared maps, so cloning
/// one is O(1) and the delta core can patch its own copy in place between
/// dispatches.
#[derive(Debug, Clone)]
pub struct UtilitySnapshot {
    atoms: Arc<FastMap<AtomId, f64>>,
    means: Arc<FastMap<u32, f64>>,
}

impl UtilitySnapshot {
    /// A snapshot with no pending workload: every atom ranks
    /// [`UtilityRank::ZERO`], so URC degrades to plain LRU. Used by
    /// schedulers that keep no workload queues (NoShare).
    pub fn empty() -> Self {
        UtilitySnapshot {
            atoms: Arc::new(FastMap::default()),
            means: Arc::new(FastMap::default()),
        }
    }

    /// Builds a snapshot from already-computed maps — the [`reference`]
    /// oracle's constructor. Production code receives snapshots from
    /// [`DeltaCore::snapshot`] instead.
    pub(crate) fn from_parts(atoms: FastMap<AtomId, f64>, means: FastMap<u32, f64>) -> Self {
        UtilitySnapshot {
            atoms: Arc::new(atoms),
            means: Arc::new(means),
        }
    }
}

impl UtilityOracle<AtomId> for UtilitySnapshot {
    fn rank(&self, key: &AtomId) -> UtilityRank {
        match self.atoms.get(key) {
            Some(&u) => UtilityRank {
                timestep_mean: self.means.get(&key.timestep).copied().unwrap_or(0.0),
                atom_utility: u,
            },
            None => UtilityRank::ZERO,
        }
    }
}
