//! Per-atom workload queues and the workload-throughput metrics.
//!
//! "A workload Wⱼⁱ represents the set of positions from Qᵢ that are contained
//! within Aⱼ and the workload queue for an atom Aⱼ consists of the union of
//! Wⱼ¹, Wⱼ², …" (§III-C). The [`WorkloadManager`] owns these queues and
//! computes:
//!
//! * **Eq. 1** — workload throughput
//!   `U_t(i) = ΣW / (T_b·φ(i) + T_m·ΣW)`, where φ(i) is 0 when the atom is
//!   cached and 1 otherwise;
//! * **Eq. 2** — the aged metric `U_e(i) = U_t(i)·(1−α) + E(i)·α`. The paper
//!   combines a throughput (positions/ms) with an age (ms) directly, leaving
//!   the trade-off scale to the tuning of α; to keep α ∈ \[0, 1\]
//!   interpretable across cost models we normalize each term by its current
//!   maximum over all pending atoms before blending (documented deviation —
//!   DESIGN.md).
//!
//! The manager also produces the [`UtilitySnapshot`] that URC (the
//! workload-aware cache policy of §V-B) consumes as its ranking oracle.
//!
//! # One store, maintained views
//!
//! Schedulers consult Eq. 1 / Eq. 2 on every dispatch, but a dispatch
//! changes only a handful of atoms: the batch taken, the residency flips its
//! reads caused, the sub-queries that arrived. So the manager keeps the
//! queues and everything derived from them in one type:
//!
//! * one **slab** per timestep: a `Vec` of slots, one per pending atom,
//!   sorted by Morton key (the canonical fold order) and found by binary
//!   search. A slot *is* the atom's workload queue — the query ids of its
//!   sub-queries in arrival order, ΣW and oldest enqueue time — plus the
//!   cached Eq. 1 value, the residency that value was computed under, and a
//!   dirty flag. Emptied slabs go to a spare list, so a timestep that drains
//!   and refills reuses a buffer instead of growing a fresh one;
//! * one **id arena** for every queue: a slot's query ids are a linked list
//!   of seven-id chunks in arrival order, and a take hands its chunks to
//!   the arena's free list. The arena grows only to the high-water mark of
//!   chunks in use, so arrivals stop allocating once it is reached;
//! * the per-timestep aggregates (ΣU, max U, Σoldest, min/max oldest);
//! * the lazily built clamped-age prefix indexes;
//! * the `Arc`-backed [`UtilitySnapshot`] the URC cache policy consumes;
//! * the per-query count of pending sub-queries, for completion detection.
//!
//! [`WorkloadManager::enqueue`], [`WorkloadManager::take_atom`],
//! [`WorkloadManager::clear`] and the residency flips read from a
//! [`Residency`] source are the only mutations. Each marks what it touched
//! dirty: the slot's flag, plus a list of touched timesteps. Every timed
//! read first *integrates*: taken atoms leave the URC view, then each
//! touched timestep is refolded in one pass over its slab that also
//! recomputes Eq. 1 for its dirty slots. A dispatch therefore costs
//! O(Δ log m) bookkeeping plus one contiguous O(m_ts) refold per touched
//! timestep, never a scan of every pending atom. Inserting or removing a
//! slot is an O(m_ts) memmove, but the same change already forces that
//! timestep's refold, so the slab changes constants, not asymptotics.
//!
//! # Bitwise equivalence
//!
//! Floating-point sums are *refolded* per dirty timestep in slab (ascending
//! Morton) order — never drifted with `+=`/`-=` across dispatches — so every
//! read is bit-for-bit identical to the full-scan `reference` oracle, a
//! test-only module (`#[cfg(test)]`) that no production code can reach.
//! The interleaving proptest below asserts the equivalence after every step
//! of random enqueue/take/residency-flip/clock-advance sequences; because the
//! oracle reads the same slots it checks, it also keeps an independent
//! shadow model of the queues.
//!
//! # Generation counter and no-op reads
//!
//! Every state-changing update bumps a generation counter. The coarse
//! timestep choice and the Eq. 2 max-normalizers are memoized on
//! `(generation, now, α)`, so a dispatch that changed nothing — gate rulings,
//! `AlphaController` probes, repeated snapshot reads — performs **zero**
//! folds and zero coarse scans ([`QueueStats`] counts both; a regression test
//! pins the zero).
//!
//! # Total order (determinism)
//!
//! Selection is a total order: scores compare via
//! `f64::total_cmp` and exact ties fall back to ascending `AtomId`
//! (`(timestep, morton)`), so the chosen atom is a function of queue *state*
//! only — never of enqueue order or map iteration order. The slabs are kept
//! in that `(timestep, morton)` order, which also makes it the canonical
//! fold order for free. Non-finite metric inputs are debug-asserted and
//! clamped to zero (`finite_or_zero`) so a poisoned cost model cannot make
//! the normalization folds — and with them every comparison — NaN.

#[cfg(test)]
mod reference;

use crate::batch::{AtomBatch, SubQuery};
use crate::policy::Residency;
use jaws_cache::{UtilityOracle, UtilityRank};
use jaws_morton::{AtomId, FastMap, MortonKey};
use jaws_workload::QueryId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Clamps a non-finite metric term to zero. A NaN utility or age would
/// propagate through the max-normalizers into *every* atom's Eq. 2 blend and
/// make the ranking incomparable; clamping keeps the order total while the
/// paired `debug_assert` surfaces the broken cost model in tests. Public
/// because report assembly guards derived ratios (e.g. per-node utilization
/// over a zero makespan) with the same rule.
pub fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The cost constants of Eq. 1 plus the geometry the per-timestep mean is
/// taken over.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MetricParams {
    /// T_b: estimated time to read one atom from disk, ms.
    pub atom_read_ms: f64,
    /// T_m: estimated computation cost per position, ms.
    pub position_compute_ms: f64,
    /// Atoms per timestep (4096 in production). §V computes the coarse-level
    /// selection "based on the mean workload throughput metric computed over
    /// all atoms in a time step" — including the workload-free ones — so the
    /// mean needs the full atom count, not just the pending atoms.
    pub atoms_per_timestep: u64,
}

impl MetricParams {
    /// Matches `CostModel::paper_testbed()` and the production 16³ atom grid.
    pub fn paper_testbed() -> Self {
        MetricParams {
            atom_read_ms: 80.0,
            position_compute_ms: 0.05,
            atoms_per_timestep: 4096,
        }
    }
}

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

/// Counters over the maintenance work the manager performed. Monotone;
/// consumers diff two snapshots to measure one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Per-atom Eq. 1 recomputations performed by integration.
    pub eq1_recomputes: u64,
    /// Per-timestep aggregate refolds performed by integration.
    pub ts_refolds: u64,
    /// Residency probes issued by full re-probes (the first sync, and the
    /// fallback when a source's change log was truncated).
    pub residency_probes: u64,
    /// Coarse-level O(#timesteps) scans that actually ran (memo misses).
    pub coarse_scans: u64,
}

/// One pending atom of a timestep's slab: the atom's workload queue plus
/// the values integration derives from it. `queue`, `positions` and `oldest`
/// are kept eagerly by [`WorkloadManager::enqueue`]; `u` and `resident` are
/// written by integration's recompute of dirty slots, so between the arrival
/// that created a slot and the next integration they are placeholders that
/// no read ever sees.
#[derive(Debug)]
struct Slot {
    /// Morton key of the atom within its timestep — the slab's sort key.
    morton: MortonKey,
    /// The query ids of the atom's pending sub-queries, in arrival order, as
    /// a list in the manager's [`IdArena`] — all a take needs: ΣW and
    /// `oldest` are already folded below.
    queue: IdQueue,
    /// ΣW (total pending positions) — the numerator of Eq. 1.
    positions: u64,
    /// Enqueue time of the atom's oldest pending sub-query, ms.
    oldest: f64,
    /// Cached Eq. 1 value.
    u: f64,
    /// The residency `u` was computed under; `None` until the first
    /// integration after the slot was created (unless carried over, see
    /// [`WorkloadManager::taken`]).
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
            queue: IdQueue::EMPTY,
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

/// End of a queue, or of the arena's free list.
const NIL: u32 = u32::MAX;

/// One slot's queue in the [`IdArena`]: first and last chunk, and length.
#[derive(Debug, Clone, Copy)]
struct IdQueue {
    head: u32,
    tail: u32,
    len: u32,
}

impl IdQueue {
    const EMPTY: IdQueue = IdQueue {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// Query ids per [`IdChunk`]: seven ids and a link fill one 64-byte line.
const CHUNK: usize = 7;

/// Up to [`CHUNK`] consecutive ids of one queue, linked to the queue's
/// next chunk (or, once freed, to the next free chunk).
#[derive(Debug, Clone, Copy)]
struct IdChunk {
    ids: [QueryId; CHUNK],
    next: u32,
}

/// The query ids of every slot's queue: each queue is a linked list of
/// chunks in one `Vec`, filled front to back in arrival order. A take hands
/// its queue's chunks to a free list that new chunks are drawn from first,
/// so the `Vec` grows only when the queues need more chunks at once than
/// ever before. A walk reads one cache line per seven ids.
#[derive(Debug)]
struct IdArena {
    chunks: Vec<IdChunk>,
    /// First free chunk, or [`NIL`].
    free: u32,
}

impl IdArena {
    fn new() -> Self {
        IdArena {
            chunks: Vec::new(),
            free: NIL,
        }
    }

    /// Appends `query` to the back of `queue`.
    fn push(&mut self, queue: &mut IdQueue, query: QueryId) {
        let at = queue.len as usize % CHUNK;
        if at == 0 {
            let chunk = IdChunk {
                ids: [0; CHUNK],
                next: NIL,
            };
            let fresh = if self.free == NIL {
                self.chunks.push(chunk);
                (self.chunks.len() - 1) as u32
            } else {
                let fresh = self.free;
                self.free = self.chunks[fresh as usize].next;
                self.chunks[fresh as usize] = chunk;
                fresh
            };
            match queue.tail {
                NIL => queue.head = fresh,
                tail => self.chunks[tail as usize].next = fresh,
            }
            queue.tail = fresh;
        }
        self.chunks[queue.tail as usize].ids[at] = query;
        queue.len += 1;
    }

    /// The ids of `queue`, front to back.
    fn iter(&self, queue: IdQueue) -> impl Iterator<Item = QueryId> + '_ {
        let mut at = queue.head;
        let mut left = queue.len as usize;
        std::iter::from_fn(move || {
            let chunk = self.chunks.get(at as usize).filter(|_| left > 0)?;
            let n = left.min(CHUNK);
            left -= n;
            at = chunk.next;
            Some(&chunk.ids[..n])
        })
        .flatten()
        .copied()
    }

    /// Visits the ids of `queue` front to back, then hands its chunks to
    /// the free list.
    fn drain(&mut self, queue: IdQueue, mut visit: impl FnMut(QueryId)) {
        if queue.len == 0 {
            return;
        }
        self.iter(queue).for_each(&mut visit);
        self.chunks[queue.tail as usize].next = self.free;
        self.free = queue.head;
    }

    /// Frees every chunk at once.
    fn clear(&mut self) {
        self.chunks.clear();
        self.free = NIL;
    }
}

/// Chunks a queue of `len` ids occupies.
#[cfg(test)]
fn chunks_for(len: u32) -> usize {
    (len as usize).div_ceil(CHUNK)
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
/// [`WorkloadManager::best_timestep`]: oldest enqueue times sorted ascending
/// with their running prefix sums. Lets Σ (now − oldest)⁺ be answered in
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

/// The workload manager: the per-atom queues, every view derived from them,
/// and the per-query completion bookkeeping. See the module docs.
#[derive(Debug)]
pub struct WorkloadManager {
    params: MetricParams,
    /// Remaining sub-query count per query (for completion detection).
    pending_subs: FastMap<QueryId, usize>,
    /// Pending atoms per timestep, one Morton-sorted slot slab each — the
    /// canonical fold order. A timestep with no pending atom has no entry.
    slabs: BTreeMap<u32, Vec<Slot>>,
    /// Emptied slabs kept with their capacity, so a timestep that drains
    /// and refills does not regrow its `Vec` from nothing.
    spare_slabs: Vec<Vec<Slot>>,
    /// The query ids of every slot's queue.
    ids: IdArena,
    /// Atoms [`Self::take_atom`] removed since the last integration, with
    /// the residency their slot was computed under. Integration drops them
    /// from the URC view. An atom taken and re-enqueued inside one
    /// integration window gets its old residency carried over to its fresh
    /// slot, so a residency flip dirties it (and bumps the generation)
    /// exactly when it flips against the residency its cached Eq. 1 value
    /// was computed under — the same rule as for an atom that never left.
    /// That keeps [`QueueStats`] and every memo hit/miss independent of
    /// whether the atom's queue was drained in between.
    taken: Vec<(AtomId, Option<bool>)>,
    /// Per-timestep aggregates (lazily refolded).
    ts_aggs: BTreeMap<u32, TsAgg>,
    /// Clamped-age indexes, built on demand (lookup-only, never iterated).
    age_indexes: FastMap<u32, AgeIndex>,
    /// Timesteps touched since the last integration (a slot marked dirty or
    /// taken), possibly repeated; integration sorts and dedups it. Reused,
    /// so integration is alloc-free at steady state.
    dirty_ts: Vec<u32>,
    /// Reusable scratch of `(upper bound, timestep)` pairs for
    /// [`Self::best_atom`], so a LifeRaft dispatch allocates nothing.
    best_atom_scratch: Vec<(f64, u32)>,
    /// Residency epoch the slots are synced to (`None` = never synced).
    synced_epoch: Option<u64>,
    /// Refold generation counter feeding [`TsAgg::epoch`].
    refold_epoch: u64,
    /// Arc-backed URC snapshot view, patched in place on integration.
    urc_view: UtilitySnapshot,
    /// State generation: bumps on every update that can change a read result.
    generation: u64,
    /// Monotone maintenance counters.
    stats: QueueStats,
    /// Memoized coarse timestep choice.
    coarse_memo: Option<CoarseMemo>,
    /// Memoized Eq. 2 normalizers.
    norm_memo: Option<NormMemo>,
}

impl WorkloadManager {
    /// Creates an empty manager: no pending atoms, generation zero.
    pub fn new(params: MetricParams) -> Self {
        WorkloadManager {
            params,
            pending_subs: FastMap::default(),
            slabs: BTreeMap::new(),
            spare_slabs: Vec::new(),
            ids: IdArena::new(),
            taken: Vec::new(),
            ts_aggs: BTreeMap::new(),
            age_indexes: FastMap::default(),
            dirty_ts: Vec::new(),
            best_atom_scratch: Vec::new(),
            synced_epoch: None,
            refold_epoch: 0,
            urc_view: UtilitySnapshot::empty(),
            generation: 0,
            stats: QueueStats::default(),
            coarse_memo: None,
            norm_memo: None,
        }
    }

    /// Cost constants in use.
    pub fn params(&self) -> MetricParams {
        self.params
    }

    /// Adds sub-queries to their atoms' queues, creating an atom's slot if
    /// absent. Per sub-query: O(log m) search plus at most one O(m_ts) slot
    /// insert — the float work is deferred to the next integration, so a
    /// burst of arrivals costs one refold, not many. Query ids go to the id
    /// arena, which reuses freed chunks, so an arrival allocates only when
    /// the queues need more chunks at once than ever before (or a
    /// timestep's slab outgrows its buffer).
    pub fn enqueue(&mut self, subs: impl IntoIterator<Item = SubQuery>) {
        for sub in subs {
            debug_assert!(sub.positions > 0, "empty sub-query");
            debug_assert!(sub.enqueued_ms.is_finite(), "non-finite enqueue time");
            *self.pending_subs.entry(sub.query).or_insert(0) += 1;
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
            self.ids.push(&mut slot.queue, sub.query);
            if !slot.dirty {
                slot.dirty = true;
                self.dirty_ts.push(atom.timestep);
            }
            self.generation += 1;
        }
    }

    /// Discards all pending work: every queue, every derived view and the
    /// per-query completion bookkeeping. Queries still queued will never be
    /// reported complete. Counters stay monotone; the generation bump
    /// invalidates every memo.
    pub fn clear(&mut self) {
        self.pending_subs.clear();
        for (_, mut slab) in std::mem::take(&mut self.slabs) {
            slab.clear();
            self.spare_slabs.push(slab);
        }
        self.ids.clear();
        self.taken.clear();
        self.dirty_ts.clear();
        self.ts_aggs.clear();
        self.age_indexes.clear();
        self.urc_view = UtilitySnapshot::empty();
        self.generation += 1;
    }

    /// True if no sub-queries are pending.
    pub fn is_empty(&self) -> bool {
        self.slabs.is_empty()
    }

    /// Number of pending sub-queries. O(pending atoms).
    pub fn pending_subqueries(&self) -> usize {
        self.slabs
            .values()
            .flatten()
            .map(|s| s.queue.len as usize)
            .sum()
    }

    /// Number of atoms with non-empty queues. O(#timesteps).
    pub fn pending_atoms(&self) -> usize {
        self.slabs.values().map(Vec::len).sum()
    }

    /// The slot of one pending atom, `None` if it has no pending work.
    fn slot(&self, atom: &AtomId) -> Option<&Slot> {
        let slab = self.slabs.get(&atom.timestep)?;
        slot_index(slab, atom.morton).ok().map(|i| &slab[i])
    }

    /// Mutable [`Self::slot`].
    fn slot_mut(&mut self, atom: &AtomId) -> Option<&mut Slot> {
        let slab = self.slabs.get_mut(&atom.timestep)?;
        slot_index(slab, atom.morton).ok().map(|i| &mut slab[i])
    }

    /// Pending positions on one atom (ΣW of Eq. 1), zero if queue-less.
    pub fn atom_positions(&self, atom: &AtomId) -> u64 {
        self.slot(atom).map_or(0, |s| s.positions)
    }

    /// Eq. 1 for one atom. `resident` is φ(i) = 0 (cached) / 1 (on disk).
    ///
    /// Cost models with `position_compute_ms = 0` make a resident atom's
    /// denominator vanish; see `eq1` for the finite ranking used instead of
    /// an infinity sentinel.
    pub fn workload_throughput(&self, atom: &AtomId, resident: bool) -> f64 {
        self.slot(atom)
            .map_or(0.0, |s| eq1(&self.params, s.positions, resident))
    }

    /// Age E(i) of the oldest sub-query on one atom, ms.
    pub fn age(&self, atom: &AtomId, now_ms: f64) -> f64 {
        self.slot(atom)
            .map_or(0.0, |s| (now_ms - s.oldest).max(0.0))
    }

    /// Pending atoms in sorted `(timestep, morton)` order — the canonical
    /// iteration order of every floating-point fold, which is the slabs'
    /// own order. Accessor for the `reference` oracle; production
    /// schedulers never need the full list.
    #[cfg(test)]
    fn pending_atom_ids(&self) -> Vec<AtomId> {
        self.slabs
            .iter()
            .flat_map(|(&ts, slab)| slab.iter().map(move |s| AtomId::new(ts, s.morton)))
            .collect()
    }

    /// Removes the whole queue of one atom and returns its summary (ΣW and
    /// sub-query count), appending the queries that now have no pending
    /// sub-queries anywhere (they complete with this batch) to `completing`
    /// in the queue's arrival order. Batch builders pass one reused buffer,
    /// and the queue's chunks go back to the id arena, so a take allocates
    /// only when `completing` outgrows its capacity.
    ///
    /// # Panics
    ///
    /// Panics if the atom has no queue — schedulers must only take atoms they
    /// observed as pending.
    pub fn take_atom(&mut self, atom: &AtomId, completing: &mut Vec<QueryId>) -> AtomBatch {
        #[expect(
            clippy::panic,
            reason = "invariant: documented public contract (see # Panics above)"
        )]
        let slab = self
            .slabs
            .get_mut(&atom.timestep)
            .unwrap_or_else(|| panic!("take_atom on empty queue {atom}"));
        #[expect(
            clippy::panic,
            reason = "invariant: documented public contract (see # Panics above)"
        )]
        let at = slot_index(slab, atom.morton)
            .unwrap_or_else(|_| panic!("take_atom on empty queue {atom}"));
        let slot = slab.remove(at);
        if slab.is_empty() {
            if let Some(empty) = self.slabs.remove(&atom.timestep) {
                self.spare_slabs.push(empty);
            }
        }
        self.taken.push((*atom, slot.resident));
        self.dirty_ts.push(atom.timestep);
        self.generation += 1;
        let pending_subs = &mut self.pending_subs;
        self.ids.drain(slot.queue, |q| {
            #[expect(
                clippy::expect_used,
                reason = "invariant: enqueue() registered every sub-query's query id"
            )]
            let left = pending_subs
                .get_mut(&q)
                .expect("sub-query of a tracked query");
            *left -= 1;
            if *left == 0 {
                pending_subs.remove(&q);
                completing.push(q);
            }
        });
        AtomBatch {
            atom: *atom,
            positions: slot.positions,
            subqueries: slot.queue.len,
        }
    }

    /// Maintenance counters. Monotone; diff two snapshots to measure one
    /// window.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The state generation: bumps on every update that can change a read
    /// result, stays put across pure reads and clock advances. Two equal
    /// generations bracket a window in which every derived view was provably
    /// served from cache.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// One atom's residency (φ of Eq. 1) flipped: its slot is marked dirty,
    /// and the generation bumps, iff it is pending and the flip differs from
    /// the residency its cached Eq. 1 value was computed under.
    fn flip_residency(&mut self, atom: AtomId, resident: bool) {
        let Some(slot) = self.slot_mut(&atom) else {
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

    /// Residency sync: turns the [`Residency`] change-tracking protocol into
    /// residency flips, falling back to a full probe on the first sync and
    /// when the source's log was truncated.
    fn sync_residency(&mut self, residency: &dyn Residency) {
        let epoch = residency.residency_epoch();
        if self.synced_epoch == Some(epoch) {
            return;
        }
        let answered = match self.synced_epoch {
            Some(since) => residency.residency_changes_since(since, &mut |atom, resident| {
                self.flip_residency(atom, resident)
            }),
            None => false,
        };
        if !answered {
            // First sync or truncated log: re-probe every pending atom
            // (cheap boolean probe; only actual flips dirty).
            let mut flips = Vec::new();
            for (&ts, slab) in &self.slabs {
                for s in slab {
                    let atom = AtomId::new(ts, s.morton);
                    let resident = residency.is_resident(&atom);
                    if s.resident != Some(resident) {
                        flips.push((atom, resident));
                    }
                }
                self.stats.residency_probes += slab.len() as u64;
            }
            for (atom, resident) in flips {
                self.flip_residency(atom, resident);
            }
        }
        self.synced_epoch = Some(epoch);
    }

    /// Integration: brings every derived view up to date with the updates
    /// since the last call. Taken atoms leave the URC view first; then each
    /// touched timestep is refolded in one pass over its slab that also
    /// recomputes Eq. 1 for the slots marked dirty. O(Δ) plus one contiguous
    /// O(m_ts) pass per touched timestep; every derived read runs it first.
    fn integrate(&mut self, residency: &dyn Residency) {
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
        let n = self.params.atoms_per_timestep.max(1) as f64;
        self.refold_epoch += 1;
        for &ts in &self.dirty_ts {
            let Some(slab) = self.slabs.get_mut(&ts) else {
                self.ts_aggs.remove(&ts);
                self.age_indexes.remove(&ts);
                means_mut.remove(&ts);
                continue;
            };
            self.stats.ts_refolds += 1;
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
                    s.u = eq1(&self.params, s.positions, res);
                    s.resident = Some(res);
                    s.dirty = false;
                    self.stats.eq1_recomputes += 1;
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

    /// Eq. 2 over every pending atom: `(atom, U_e)` with both terms
    /// max-normalized before blending, in sorted `(timestep, morton)` order.
    /// `alpha = 0` is pure contention order, `alpha = 1` pure arrival (age)
    /// order. Integration plus an O(n) output; bitwise identical to the
    /// test-only full-scan oracle `reference::aged_utilities`. Schedulers
    /// that only need an argmax use [`Self::best_atom`] instead.
    pub fn aged_utilities(
        &mut self,
        now_ms: f64,
        alpha: f64,
        residency: &dyn Residency,
    ) -> Vec<(AtomId, f64)> {
        debug_assert!((0.0..=1.0).contains(&alpha));
        self.integrate(residency);
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

    /// Mean workload throughput per timestep over *all* of that timestep's
    /// atoms (workload-free atoms contribute zero) — the coarse level of
    /// two-level scheduling (§V) and the cross-timestep eviction order of
    /// URC. Because every timestep has the same atom count, this ranks
    /// timesteps by total pending utility, which "tends to yield higher
    /// workload density". Bitwise identical to `reference::timestep_means`.
    /// Schedulers read the same means through [`Self::utility_snapshot`];
    /// this map view is compiled for tests only.
    #[cfg(test)]
    fn timestep_means(&mut self, residency: &dyn Residency) -> BTreeMap<u32, f64> {
        self.integrate(residency);
        self.urc_view
            .means
            .sorted()
            .into_iter()
            .map(|(&t, &m)| (t, m))
            .collect()
    }

    /// The URC oracle snapshot: every pending atom's Eq. 1 value plus its
    /// timestep's mean. Atoms without pending work rank
    /// [`UtilityRank::ZERO`] and are evicted first. Integration plus an O(1)
    /// `Arc` clone of the view integration patched in place; bitwise
    /// identical to `reference::utility_snapshot`.
    pub fn utility_snapshot(&mut self, residency: &dyn Residency) -> UtilitySnapshot {
        self.integrate(residency);
        self.urc_view.clone()
    }

    /// Lazily (re)builds the clamped-age index for one timestep. Only
    /// degenerate timesteps — some atom enqueued "after" the query's
    /// `now_ms` — ever pay for the O(n log n) build; the index is reused
    /// across calls until the timestep's aggregate refolds.
    fn ensure_age_index(&mut self, ts: u32) {
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
    fn clamped_age_sum(&self, ts: u32, now_ms: f64) -> f64 {
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
    /// atom count). Ties prefer the smaller timestep. O(#timesteps) after
    /// integration, O(1) on a clean generation (memoized).
    pub fn best_timestep(
        &mut self,
        now_ms: f64,
        alpha: f64,
        residency: &dyn Residency,
    ) -> Option<u32> {
        debug_assert!((0.0..=1.0).contains(&alpha));
        self.integrate(residency);
        if let Some(m) = self.coarse_memo {
            if m.generation == self.generation
                && m.now_bits == now_ms.to_bits()
                && m.alpha_bits == alpha.to_bits()
            {
                return m.best;
            }
        }
        self.stats.coarse_scans += 1;
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
    /// the dispatch hot path reuses one buffer across batches. Per-atom
    /// values are bitwise identical to the corresponding
    /// [`Self::aged_utilities`] entries.
    pub fn timestep_aged_utilities(
        &mut self,
        timestep: u32,
        now_ms: f64,
        alpha: f64,
        residency: &dyn Residency,
        out: &mut Vec<(AtomId, f64)>,
    ) {
        debug_assert!((0.0..=1.0).contains(&alpha));
        self.integrate(residency);
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

    /// The single pending atom with the highest aged utility (ties prefer
    /// the smaller atom id) — LifeRaft's contention-order pick. Timesteps are
    /// visited in descending upper-bound order and pruned once no remaining
    /// timestep can beat the incumbent, so the common case inspects only the
    /// hottest timestep's slab.
    pub fn best_atom(
        &mut self,
        now_ms: f64,
        alpha: f64,
        residency: &dyn Residency,
    ) -> Option<(AtomId, f64)> {
        debug_assert!((0.0..=1.0).contains(&alpha));
        self.integrate(residency);
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

    /// The query ids queued on one atom, in arrival order (empty if it has
    /// no queue).
    #[cfg(test)]
    fn queued_ids(&self, atom: &AtomId) -> Vec<QueryId> {
        self.slot(atom)
            .map_or(Vec::new(), |s| self.ids.iter(s.queue).collect())
    }

    /// Pending atoms of one timestep, Morton order.
    #[cfg(test)]
    fn atoms_in_timestep(&self, timestep: u32) -> Vec<AtomId> {
        self.slabs
            .get(&timestep)
            .map(|slab| {
                slab.iter()
                    .map(|s| AtomId::new(timestep, s.morton))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Test-only structural check of the slabs: every slab is non-empty and
    /// strictly ascending in Morton order; every slot's queue is non-empty,
    /// with at least one position per queued sub-query and a finite oldest
    /// enqueue time; and every queued id is a query the completion
    /// bookkeeping still counts, as often as it is queued; every id-arena
    /// chunk is either queued or free. Each slot's exact ids, ΣW and oldest
    /// are compared against a shadow model by the proptests. With `residency`, the manager must be integrated against
    /// that source: no slot is dirty, and every slot's `u` and `resident`
    /// equal Eq. 1 and the source.
    #[cfg(test)]
    fn check_slabs(&self, residency: Option<&dyn Residency>) {
        let mut free = 0;
        let mut at = self.ids.free;
        while at != NIL {
            free += 1;
            at = self.ids.chunks[at as usize].next;
        }
        let queued: usize = self
            .slabs
            .values()
            .flatten()
            .map(|s| chunks_for(s.queue.len))
            .sum();
        assert_eq!(
            free + queued,
            self.ids.chunks.len(),
            "an id chunk is neither queued nor free"
        );
        let mut queued: BTreeMap<QueryId, usize> = BTreeMap::new();
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
                assert!(s.queue.len > 0, "empty queue kept for {atom}");
                assert!(s.positions >= s.queue.len as u64, "ΣW of {atom}");
                assert!(s.oldest.is_finite(), "oldest of {atom}");
                assert_eq!(
                    self.ids.iter(s.queue).count(),
                    s.queue.len as usize,
                    "queue length of {atom}"
                );
                for q in self.ids.iter(s.queue) {
                    *queued.entry(q).or_default() += 1;
                }
                let Some(residency) = residency else {
                    continue;
                };
                assert!(!s.dirty, "{atom} not integrated");
                let resident = residency.is_resident(&atom);
                assert_eq!(s.resident, Some(resident), "residency of {atom}");
                assert_eq!(
                    s.u.to_bits(),
                    eq1(&self.params, s.positions, resident).to_bits(),
                    "Eq. 1 of {atom}"
                );
            }
        }
        let counted: BTreeMap<QueryId, usize> = self
            .pending_subs
            .sorted()
            .into_iter()
            .map(|(&q, &n)| (q, n))
            .collect();
        assert_eq!(queued, counted, "queued ids vs completion bookkeeping");
        if residency.is_some() {
            assert!(self.dirty_ts.is_empty(), "manager not integrated");
            assert!(self.taken.is_empty(), "taken atoms not integrated");
        }
    }
}

/// A point-in-time ranking of pending atoms, consumed by the URC cache policy
/// through the [`UtilityOracle`] interface. Backed by shared maps, so cloning
/// one is O(1) and the workload manager can patch its own copy in place
/// between dispatches.
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

    /// Builds a snapshot from already-computed maps — the `reference`
    /// oracle's constructor. Production code receives snapshots from
    /// [`WorkloadManager::utility_snapshot`] instead.
    #[cfg(test)]
    fn from_parts(atoms: FastMap<AtomId, f64>, means: FastMap<u32, f64>) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_support::FixedResidency;
    use jaws_cache::UtilityOracle;
    use jaws_morton::MortonKey;
    use std::collections::BTreeMap;

    /// [`WorkloadManager::take_atom`] into a fresh completion buffer.
    pub(super) fn take(wm: &mut WorkloadManager, atom: &AtomId) -> (AtomBatch, Vec<QueryId>) {
        let mut completing = Vec::new();
        let batch = wm.take_atom(atom, &mut completing);
        (batch, completing)
    }

    fn sub(query: QueryId, t: u32, m: u64, positions: u32, at: f64) -> SubQuery {
        SubQuery {
            query,
            atom: AtomId::new(t, MortonKey(m)),
            positions,
            enqueued_ms: at,
        }
    }

    fn params() -> MetricParams {
        MetricParams {
            atom_read_ms: 100.0,
            position_compute_ms: 1.0,
            atoms_per_timestep: 64,
        }
    }

    #[test]
    fn eq1_favors_longer_queues() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([sub(1, 0, 0, 10, 0.0), sub(2, 0, 1, 100, 0.0)]);
        let none = FixedResidency::none();
        let a0 = AtomId::new(0, MortonKey(0));
        let a1 = AtomId::new(0, MortonKey(1));
        let u0 = wm.workload_throughput(&a0, none.is_resident(&a0));
        let u1 = wm.workload_throughput(&a1, none.is_resident(&a1));
        // 10/(100+10) vs 100/(100+100).
        assert!((u0 - 10.0 / 110.0).abs() < 1e-12);
        assert!((u1 - 0.5).abs() < 1e-12);
        assert!(u1 > u0, "longer queue amortizes the read better");
    }

    #[test]
    fn finite_or_zero_clamps_only_non_finite_values() {
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NEG_INFINITY), 0.0);
        // Identity on finite values, bit-exactly — the clamp must never
        // perturb the incremental/reference bitwise-equivalence invariant.
        for v in [0.0, -0.0, 1.5e-300, 42.25, f64::MAX, f64::MIN_POSITIVE] {
            assert_eq!(finite_or_zero(v).to_bits(), v.to_bits());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite cost model")]
    fn eq1_rejects_nan_cost_model_in_debug() {
        let poisoned = MetricParams {
            atom_read_ms: f64::NAN,
            position_compute_ms: 0.05,
            atoms_per_timestep: 64,
        };
        let _ = eq1(&poisoned, 10, false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "negative cost")]
    fn eq1_rejects_negative_cost_model_in_debug() {
        let negative = MetricParams {
            atom_read_ms: -80.0,
            ..params()
        };
        let _ = eq1(&negative, 10, false);
    }

    #[test]
    fn eq2_fold_survives_clamped_non_finite_utility() {
        // Release-build behaviour of the Eq. 2 guard: even if a non-finite
        // utility slipped past the debug assertion, the max-normalizer clamps
        // it to zero and every blend stays finite and comparable.
        let raw: Vec<(AtomId, f64, f64)> = vec![
            (AtomId::new(0, MortonKey(0)), f64::NAN, 5.0),
            (AtomId::new(0, MortonKey(1)), 2.0, f64::INFINITY),
            (AtomId::new(0, MortonKey(2)), 1.0, 3.0),
        ];
        let max_u = raw
            .iter()
            .map(|&(_, u, _)| finite_or_zero(u))
            .fold(0.0f64, f64::max);
        let max_e = raw
            .iter()
            .map(|&(_, _, e)| finite_or_zero(e))
            .fold(0.0f64, f64::max);
        assert_eq!(max_u, 2.0);
        assert_eq!(max_e, 5.0);
    }

    #[test]
    fn eq1_phi_zero_for_resident_atoms() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([sub(1, 0, 0, 10, 0.0)]);
        let a0 = AtomId::new(0, MortonKey(0));
        let u_disk = wm.workload_throughput(&a0, false);
        let u_mem = wm.workload_throughput(&a0, true);
        assert!(
            (u_mem - 1.0).abs() < 1e-12,
            "pure compute: W/(T_m·W) = 1/T_m"
        );
        assert!(u_mem > u_disk, "cached atoms rank higher (Eq. 1 φ)");
    }

    #[test]
    fn zero_compute_cost_keeps_the_metric_finite() {
        // T_m = 0 makes a resident atom's Eq. 1 denominator vanish. The old
        // sentinel returned W·1e9, which crushed every other atom's
        // normalized utility to ~0; the replacement ranks the atom as if it
        // cost half an atom read.
        let zero_compute = MetricParams {
            atom_read_ms: 100.0,
            position_compute_ms: 0.0,
            atoms_per_timestep: 64,
        };
        let mut wm = WorkloadManager::new(zero_compute);
        wm.enqueue([sub(1, 0, 0, 10, 0.0), sub(2, 0, 1, 40, 0.0)]);
        let a0 = AtomId::new(0, MortonKey(0));
        let a1 = AtomId::new(0, MortonKey(1));
        let u_res_small = wm.workload_throughput(&a0, true);
        let u_res_big = wm.workload_throughput(&a1, true);
        let u_disk_small = wm.workload_throughput(&a0, false);
        assert!(u_res_small.is_finite());
        assert!((u_res_small - 10.0 / 50.0).abs() < 1e-12, "W / (T_b / 2)");
        assert!(u_res_big > u_res_small, "still monotone in pending work");
        assert_eq!(
            u_res_small,
            2.0 * u_disk_small,
            "resident ranks exactly 2x its on-disk self in the T_m->0 limit"
        );
        // Max-normalization stays meaningful: the disk atom's normalized
        // utility is within an order of magnitude, not ~1e-9.
        let res = FixedResidency::of([a0]);
        let aged: BTreeMap<AtomId, f64> = wm.aged_utilities(1.0, 0.0, &res).into_iter().collect();
        assert!(
            aged[&a1] > 0.1,
            "non-degenerate atom not crushed: {}",
            aged[&a1]
        );
        // All-zero cost model: fall back to raw workload ranking.
        let all_zero = MetricParams {
            atom_read_ms: 0.0,
            position_compute_ms: 0.0,
            atoms_per_timestep: 64,
        };
        let mut wm0 = WorkloadManager::new(all_zero);
        wm0.enqueue([sub(1, 0, 0, 7, 0.0)]);
        assert_eq!(wm0.workload_throughput(&a0, true), 7.0);
    }

    #[test]
    fn age_tracks_oldest_subquery() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([sub(1, 0, 0, 5, 100.0)]);
        wm.enqueue([sub(2, 0, 0, 5, 900.0)]);
        let a0 = AtomId::new(0, MortonKey(0));
        assert_eq!(wm.age(&a0, 1000.0), 900.0, "oldest wins");
        assert_eq!(wm.age(&AtomId::new(0, MortonKey(9)), 1000.0), 0.0);
    }

    #[test]
    fn aged_metric_interpolates_between_contention_and_age() {
        let mut wm = WorkloadManager::new(params());
        // Atom 0: huge queue, fresh. Atom 1: tiny queue, ancient.
        wm.enqueue([sub(1, 0, 0, 1000, 990.0), sub(2, 0, 1, 1, 0.0)]);
        let none = FixedResidency::none();
        let mut rank_of = |alpha: f64| {
            let mut u = wm.aged_utilities(1000.0, alpha, &none);
            u.sort_by(|a, b| b.1.total_cmp(&a.1));
            u[0].0
        };
        assert_eq!(rank_of(0.0), AtomId::new(0, MortonKey(0)), "contention");
        assert_eq!(rank_of(1.0), AtomId::new(0, MortonKey(1)), "arrival order");
    }

    #[test]
    fn take_atom_reports_completions() {
        let mut wm = WorkloadManager::new(params());
        // Query 1 spans two atoms; query 2 one atom.
        wm.enqueue([
            sub(1, 0, 0, 5, 0.0),
            sub(1, 0, 1, 5, 0.0),
            sub(2, 0, 0, 7, 0.0),
        ]);
        assert_eq!(wm.pending_subqueries(), 3);
        let (batch, done) = take(&mut wm, &AtomId::new(0, MortonKey(0)));
        assert_eq!(batch.subqueries, 2);
        assert_eq!(batch.positions, 12);
        assert_eq!(done, vec![2], "query 2 fully served; query 1 still pending");
        let (_, done) = take(&mut wm, &AtomId::new(0, MortonKey(1)));
        assert_eq!(done, vec![1]);
        assert!(wm.is_empty());
    }

    #[test]
    #[should_panic(expected = "take_atom on empty queue")]
    fn take_atom_requires_a_queue() {
        let mut wm = WorkloadManager::new(params());
        take(&mut wm, &AtomId::new(0, MortonKey(0)));
    }

    #[test]
    fn timestep_means_aggregate_per_timestep() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([
            sub(1, 0, 0, 100, 0.0),
            sub(2, 0, 1, 100, 0.0),
            sub(3, 5, 0, 10, 0.0),
        ]);
        let none = FixedResidency::none();
        let means = wm.timestep_means(&none);
        assert_eq!(means.len(), 2);
        assert!(means[&0] > means[&5], "denser timestep has higher mean");
    }

    #[test]
    fn utility_snapshot_feeds_urc() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([sub(1, 0, 0, 100, 0.0), sub(2, 3, 1, 5, 0.0)]);
        let none = FixedResidency::none();
        let snap = wm.utility_snapshot(&none);
        let hot = snap.rank(&AtomId::new(0, MortonKey(0)));
        let cold = snap.rank(&AtomId::new(3, MortonKey(1)));
        let absent = snap.rank(&AtomId::new(7, MortonKey(7)));
        assert!(hot.atom_utility > cold.atom_utility);
        assert!(hot.timestep_mean > cold.timestep_mean);
        assert_eq!(absent.atom_utility, 0.0);
        // URC would evict `absent` first, then `cold`, then `hot`.
        assert_eq!(absent.cmp_for_eviction(&cold), std::cmp::Ordering::Less);
        assert_eq!(cold.cmp_for_eviction(&hot), std::cmp::Ordering::Less);
    }

    #[test]
    fn enqueue_merges_same_atom_across_queries() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([sub(1, 0, 4, 10, 0.0)]);
        wm.enqueue([sub(2, 0, 4, 20, 5.0)]);
        assert_eq!(wm.pending_atoms(), 1);
        assert_eq!(wm.atom_positions(&AtomId::new(0, MortonKey(4))), 30);
    }

    #[test]
    fn incremental_best_atom_matches_reference_argmax() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([
            sub(1, 0, 0, 10, 0.0),
            sub(2, 0, 1, 400, 30.0),
            sub(3, 2, 5, 80, 10.0),
            sub(4, 7, 2, 80, 5.0),
        ]);
        let none = FixedResidency::none();
        for &alpha in &[0.0, 0.3, 1.0] {
            let oracle = reference::aged_utilities(&wm, 1000.0, alpha, &none)
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                .unwrap();
            let fast = wm.best_atom(1000.0, alpha, &none).unwrap();
            assert_eq!(fast.0, oracle.0, "alpha={alpha}");
            assert_eq!(fast.1.to_bits(), oracle.1.to_bits());
        }
    }

    #[test]
    fn incremental_snapshot_tracks_takes_and_arrivals() {
        let mut wm = WorkloadManager::new(params());
        let none = FixedResidency::none();
        wm.enqueue([sub(1, 0, 0, 100, 0.0), sub(2, 3, 1, 5, 0.0)]);
        let s1 = wm.utility_snapshot(&none);
        assert!(s1.rank(&AtomId::new(0, MortonKey(0))).atom_utility > 0.0);
        take(&mut wm, &AtomId::new(0, MortonKey(0)));
        wm.enqueue([sub(3, 3, 2, 50, 4.0)]);
        let s2 = wm.utility_snapshot(&none);
        assert_eq!(
            s2.rank(&AtomId::new(0, MortonKey(0))).atom_utility,
            0.0,
            "taken atom dropped from the snapshot"
        );
        assert!(s2.rank(&AtomId::new(3, MortonKey(2))).atom_utility > 0.0);
        // The earlier snapshot is a frozen point in time.
        assert!(s1.rank(&AtomId::new(0, MortonKey(0))).atom_utility > 0.0);
        assert_eq!(s1.rank(&AtomId::new(3, MortonKey(2))).atom_utility, 0.0);
    }

    #[test]
    fn best_timestep_clamped_age_fallback_is_exact() {
        let mut wm = WorkloadManager::new(params());
        // Timestep 0 holds an atom enqueued "after" now (its age clamps to
        // zero), forcing the degenerate branch; timestep 1 is all past.
        wm.enqueue([
            sub(1, 0, 0, 10, 0.0),
            sub(2, 0, 1, 10, 5_000.0),
            sub(3, 1, 0, 10, 100.0),
        ]);
        let none = FixedResidency::none();
        let now = 1_000.0;
        // Pure age order: ts 0 sums age 1000 (+ 0 clamped), ts 1 sums 900.
        assert_eq!(wm.best_timestep(now, 1.0, &none), Some(0));
        // The sorted-prefix index agrees with the exact per-atom fold.
        wm.ensure_age_index(0);
        let exact: f64 = wm.atoms_in_timestep(0).iter().map(|a| wm.age(a, now)).sum();
        let fast = wm.clamped_age_sum(0, now);
        assert!((fast - exact).abs() <= 1e-9 * exact.max(1.0));
        // A queue change refolds the aggregate and invalidates the index.
        wm.enqueue([sub(4, 0, 2, 10, 7_000.0)]);
        assert_eq!(wm.best_timestep(now, 1.0, &none), Some(0));
        let exact2: f64 = wm.atoms_in_timestep(0).iter().map(|a| wm.age(a, now)).sum();
        let fast2 = wm.clamped_age_sum(0, now);
        assert_eq!(
            exact2.to_bits(),
            exact.to_bits(),
            "new atom's age clamps to 0"
        );
        assert!((fast2 - exact2).abs() <= 1e-9 * exact2.max(1.0));
    }

    /// A dispatch attempt that changed nothing — gate rulings,
    /// `AlphaController` probes, repeated snapshot reads — must perform
    /// **zero** folds and zero coarse scans. The generation counter plus the
    /// read memos make clean repeat reads O(1).
    #[test]
    fn clean_generation_performs_zero_folds() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([
            sub(1, 0, 0, 10, 0.0),
            sub(2, 1, 3, 40, 5.0),
            sub(3, 2, 7, 25, 9.0),
        ]);
        let none = FixedResidency::none();
        let now = 1_000.0;
        let first = wm.best_timestep(now, 0.3, &none);
        let _ = wm.utility_snapshot(&none);
        let _ = wm.timestep_means(&none);
        let gen = wm.generation();
        let before = wm.stats();
        for _ in 0..5 {
            assert_eq!(wm.best_timestep(now, 0.3, &none), first);
            let _ = wm.utility_snapshot(&none);
            let _ = wm.timestep_means(&none);
        }
        let after = wm.stats();
        assert_eq!(wm.generation(), gen, "pure reads must not dirty state");
        assert_eq!(after.eq1_recomputes, before.eq1_recomputes, "Eq. 1 folds");
        assert_eq!(after.ts_refolds, before.ts_refolds, "aggregate refolds");
        assert_eq!(after.coarse_scans, before.coarse_scans, "coarse scans");
        assert_eq!(after.residency_probes, before.residency_probes, "probes");
        // A real change resumes normal maintenance.
        wm.enqueue([sub(4, 0, 9, 10, 20.0)]);
        let _ = wm.best_timestep(now, 0.3, &none);
        let resumed = wm.stats();
        assert!(resumed.eq1_recomputes > after.eq1_recomputes);
        assert!(resumed.coarse_scans > after.coarse_scans);
    }

    /// A changed `now` or α is a different question: the coarse memo must
    /// miss (and rescan), not serve the stale answer.
    #[test]
    fn coarse_memo_keys_on_now_and_alpha() {
        let mut wm = WorkloadManager::new(params());
        wm.enqueue([sub(1, 0, 0, 10, 0.0), sub(2, 1, 1, 400, 900.0)]);
        let none = FixedResidency::none();
        // At α=0 (pure contention) ts 1 wins on utility; at α=1 with a late
        // `now`, ts 0's age dominates.
        assert_eq!(wm.best_timestep(1_000.0, 0.0, &none), Some(1));
        assert_eq!(wm.best_timestep(10_000.0, 1.0, &none), Some(0));
        let scans = wm.stats().coarse_scans;
        assert!(scans >= 2, "distinct questions must rescan: {scans}");
    }

    /// Dispatch maintenance is O(Δ), not O(queue): 50 steady-state
    /// dispatches (best atom, take, re-enqueue, snapshot) do the same work
    /// at 10k and 100k queued sub-queries. The 256 hot atoms at timestep 0
    /// always win; the cold backlog over 30 later timesteps is never read.
    #[test]
    fn dispatch_work_is_independent_of_queue_depth() {
        let none = FixedResidency::none();
        let work = [10_000u64, 100_000].map(|depth| {
            let mut wm = WorkloadManager::new(MetricParams::paper_testbed());
            for i in 0..256 {
                wm.enqueue([sub(i + 1, 0, i, 5_000, i as f64)]);
            }
            for i in 0..depth - 256 {
                let at = 1_000.0 + (i % 997) as f64;
                wm.enqueue([sub(1_000 + i, 1 + (i % 30) as u32, i / 30, 10, at)]);
            }
            let _ = wm.utility_snapshot(&none);
            let before = wm.stats();
            for i in 0..50 {
                let now = 10_000.0 + i as f64;
                let (atom, _) = wm.best_atom(now, 0.3, &none).unwrap();
                assert_eq!(atom.timestep, 0, "a hot atom wins");
                take(&mut wm, &atom);
                wm.enqueue([sub(10_000_000 + i, 0, atom.morton.0, 5_000, now)]);
                let _ = wm.utility_snapshot(&none);
            }
            let after = wm.stats();
            QueueStats {
                eq1_recomputes: after.eq1_recomputes - before.eq1_recomputes,
                ts_refolds: after.ts_refolds - before.ts_refolds,
                residency_probes: after.residency_probes - before.residency_probes,
                coarse_scans: after.coarse_scans - before.coarse_scans,
            }
        });
        assert_eq!(work[0], work[1], "work grew with queue depth");
        assert_eq!(
            work[0],
            QueueStats {
                eq1_recomputes: 50,
                ts_refolds: 50,
                residency_probes: 0,
                coarse_scans: 0,
            }
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::take;
    use super::*;
    use crate::policy::test_support::FixedResidency;
    use jaws_cache::UtilityOracle;
    use jaws_morton::MortonKey;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap, HashSet};

    proptest! {
        /// Conservation: every enqueued sub-query is returned by exactly one
        /// take_atom, completions fire exactly once per query, and counters
        /// never go negative.
        #[test]
        fn enqueue_take_conservation(
            subs in proptest::collection::vec(
                (1u64..20, 0u32..4, 0u64..16, 1u32..50), 1..120),
        ) {
            let mut wm = WorkloadManager::new(MetricParams::paper_testbed());
            let mut expected_per_query: HashMap<QueryId, usize> = HashMap::new();
            for (i, &(q, t, m, c)) in subs.iter().enumerate() {
                wm.enqueue([SubQuery {
                    query: q,
                    atom: AtomId::new(t, MortonKey(m)),
                    positions: c,
                    enqueued_ms: i as f64,
                }]);
                *expected_per_query.entry(q).or_default() += 1;
            }
            prop_assert_eq!(wm.pending_subqueries(), subs.len());
            let none = FixedResidency::none();
            let mut taken = 0usize;
            let mut completed: Vec<QueryId> = Vec::new();
            while !wm.is_empty() {
                let atoms = wm.aged_utilities(1e6, 0.3, &none);
                prop_assert!(!atoms.is_empty());
                let (atom, _) = atoms[0];
                let (batch, done) = take(&mut wm, &atom);
                prop_assert!(batch.subqueries > 0);
                taken += batch.subqueries as usize;
                completed.extend(done);
            }
            prop_assert_eq!(taken, subs.len());
            completed.sort_unstable();
            let mut expect: Vec<QueryId> = expected_per_query.keys().copied().collect();
            expect.sort_unstable();
            prop_assert_eq!(completed, expect, "each query completes exactly once");
        }

        /// Eq. 1 monotonicity: more pending positions never lower the metric,
        /// and residency never lowers it either.
        #[test]
        fn metric_monotonicity(w1 in 1u32..10_000, extra in 1u32..10_000) {
            let params = MetricParams::paper_testbed();
            let atom = AtomId::new(0, MortonKey(5));
            let mut a = WorkloadManager::new(params);
            a.enqueue([SubQuery { query: 1, atom, positions: w1, enqueued_ms: 0.0 }]);
            let mut b = WorkloadManager::new(params);
            b.enqueue([SubQuery { query: 1, atom, positions: w1 + extra, enqueued_ms: 0.0 }]);
            prop_assert!(
                b.workload_throughput(&atom, false) >= a.workload_throughput(&atom, false)
            );
            prop_assert!(
                a.workload_throughput(&atom, true) >= a.workload_throughput(&atom, false)
            );
        }

        /// When every pending atom ties on utility and age, atom selection
        /// must not depend on enqueue order — only on the documented
        /// tie-break (ascending AtomId). Draining two managers fed the same
        /// atoms in different orders must visit atoms in the identical
        /// (sorted) sequence.
        #[test]
        fn equal_utility_selection_is_enqueue_order_invariant(
            set in proptest::collection::btree_set((0u32..3, 0u64..12), 2..10),
            shuffle_seed in 0u64..1_000_000,
        ) {
            // Distinct atoms with identical positions and enqueue times tie
            // exactly on both Eq. 2 terms. Shuffle with a seeded, replayable
            // Fisher–Yates (the proptest shim has no prop_shuffle).
            use rand::{RngCore, SeedableRng};
            let base: Vec<(u32, u64)> = set.into_iter().collect();
            let mut shuffled = base.clone();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(shuffle_seed);
            for i in (1..shuffled.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            let none = FixedResidency::none();
            let drain = |order: &[(u32, u64)]| {
                let mut wm = WorkloadManager::new(MetricParams::paper_testbed());
                for (i, &(t, m)) in order.iter().enumerate() {
                    wm.enqueue([SubQuery {
                        query: i as u64 + 1,
                        atom: AtomId::new(t, MortonKey(m)),
                        positions: 40,
                        enqueued_ms: 0.0,
                    }]);
                }
                let mut visited = Vec::new();
                while let Some((atom, _)) = wm.best_atom(1000.0, 0.5, &none) {
                    visited.push(atom);
                    take(&mut wm, &atom);
                }
                visited
            };
            let a = drain(&base);
            let b = drain(&shuffled);
            prop_assert_eq!(&a, &b, "drain order depended on enqueue order");
            // With a global score tie, the documented total order degenerates
            // to plain ascending AtomId.
            let mut sorted = a.clone();
            sorted.sort_unstable();
            prop_assert_eq!(a, sorted, "tie-break is not ascending AtomId");
        }

        /// Aged utilities stay within [0, 1] after normalization for any α.
        #[test]
        fn aged_utilities_are_normalized(
            alpha in 0.0f64..=1.0,
            subs in proptest::collection::vec((1u64..9, 0u32..3, 0u64..8, 1u32..100), 1..40),
        ) {
            let mut wm = WorkloadManager::new(MetricParams::paper_testbed());
            for (i, &(q, t, m, c)) in subs.iter().enumerate() {
                wm.enqueue([SubQuery {
                    query: q,
                    atom: AtomId::new(t, MortonKey(m)),
                    positions: c,
                    enqueued_ms: i as f64 * 10.0,
                }]);
            }
            let none = FixedResidency::none();
            for (_, u) in wm.aged_utilities(1e5, alpha, &none) {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&u), "utility {u}");
            }
        }
    }

    /// A mutable residency source with full change tracking, standing in for
    /// the buffer pool. `keeps_log = false` answers every change query as a
    /// truncated log, so each epoch move takes the full re-probe path and
    /// both integration paths get exercised.
    struct FlipResidency {
        resident: HashSet<AtomId>,
        log: Vec<(AtomId, bool)>,
        keeps_log: bool,
    }

    impl FlipResidency {
        fn new(keeps_log: bool) -> Self {
            FlipResidency {
                resident: HashSet::new(),
                log: Vec::new(),
                keeps_log,
            }
        }

        fn flip(&mut self, atom: AtomId) {
            let now_resident = if self.resident.remove(&atom) {
                false
            } else {
                self.resident.insert(atom);
                true
            };
            self.log.push((atom, now_resident));
        }
    }

    impl Residency for FlipResidency {
        fn is_resident(&self, atom: &AtomId) -> bool {
            self.resident.contains(atom)
        }

        fn residency_epoch(&self) -> u64 {
            self.log.len() as u64
        }

        fn residency_changes_since(&self, since: u64, visit: &mut dyn FnMut(AtomId, bool)) -> bool {
            if !self.keeps_log {
                return false;
            }
            for &(atom, resident) in &self.log[since as usize..] {
                visit(atom, resident);
            }
            true
        }
    }

    /// Bitwise comparison of f64 maps/vecs: the maintained views must agree
    /// with the full-scan [`reference`] oracle to the last ulp, not approximately.
    fn assert_equiv(
        wm: &mut WorkloadManager,
        res: &dyn Residency,
        now_ms: f64,
        alpha: f64,
        probes: &[AtomId],
    ) {
        let mut oracle = reference::aged_utilities(wm, now_ms, alpha, res);
        oracle.sort_by_key(|&(a, _)| a);
        let incremental = wm.aged_utilities(now_ms, alpha, res);
        assert_eq!(oracle.len(), incremental.len());
        for (r, i) in oracle.iter().zip(&incremental) {
            assert_eq!(r.0, i.0);
            assert_eq!(r.1.to_bits(), i.1.to_bits(), "aged utility of {}", r.0);
        }
        let ref_means = reference::timestep_means(wm, res);
        let inc_means = wm.timestep_means(res);
        assert_eq!(ref_means.len(), inc_means.len());
        for (ts, m) in &ref_means {
            assert_eq!(m.to_bits(), inc_means[ts].to_bits(), "mean of ts {ts}");
        }
        let ref_snap = reference::utility_snapshot(wm, res);
        let inc_snap = wm.utility_snapshot(res);
        for a in oracle.iter().map(|&(a, _)| a).chain(probes.iter().copied()) {
            let r = ref_snap.rank(&a);
            let i = inc_snap.rank(&a);
            assert_eq!(r.atom_utility.to_bits(), i.atom_utility.to_bits(), "{a}");
            assert_eq!(r.timestep_mean.to_bits(), i.timestep_mean.to_bits(), "{a}");
        }
    }

    /// An atom taken and re-enqueued inside one integration window, whose
    /// residency then flips away and back before the next read: the slab
    /// carries the taken slot's residency over to the fresh slot, so the
    /// counters and the generation move exactly as for an atom that never
    /// left its queue — and every view still matches the oracle.
    #[test]
    fn take_reenqueue_flip_in_one_window_keeps_counters() {
        for keeps_log in [true, false] {
            let mut wm = WorkloadManager::new(MetricParams {
                atom_read_ms: 100.0,
                position_compute_ms: 1.0,
                atoms_per_timestep: 16,
            });
            let mut res = FlipResidency::new(keeps_log);
            let a = AtomId::new(0, MortonKey(1));
            let b = AtomId::new(0, MortonKey(2));
            let sub = |query, atom, positions, at| SubQuery {
                query,
                atom,
                positions,
                enqueued_ms: at,
            };
            wm.enqueue([sub(1, a, 10, 0.0), sub(2, b, 30, 5.0)]);
            res.flip(a);
            let _ = wm.aged_utilities(100.0, 0.4, &res);
            wm.check_slabs(Some(&res));
            let (s0, g0) = (wm.stats(), wm.generation());

            // One window: take, re-enqueue, flip away and back.
            let (_, done) = take(&mut wm, &a);
            assert_eq!(done, vec![1]);
            wm.enqueue([sub(3, a, 20, 150.0)]);
            wm.check_slabs(None);
            res.flip(a);
            res.flip(a);
            let _ = wm.aged_utilities(200.0, 0.4, &res);
            wm.check_slabs(Some(&res));

            let (s1, g1) = (wm.stats(), wm.generation());
            let d = QueueStats {
                eq1_recomputes: s1.eq1_recomputes - s0.eq1_recomputes,
                ts_refolds: s1.ts_refolds - s0.ts_refolds,
                residency_probes: s1.residency_probes - s0.residency_probes,
                coarse_scans: s1.coarse_scans - s0.coarse_scans,
            };
            // Logged: both flips apply, only the first dirties (and bumps the
            // generation). The re-probe sees the carried residency unchanged,
            // so it flips nothing.
            let expect = QueueStats {
                eq1_recomputes: 1,
                ts_refolds: 1,
                residency_probes: if keeps_log { 0 } else { 2 },
                coarse_scans: 0,
            };
            assert_eq!(d, expect, "keeps_log={keeps_log}");
            let bumps = if keeps_log { 3 } else { 2 };
            assert_eq!(g1 - g0, bumps, "generation, keeps_log={keeps_log}");
            assert_equiv(&mut wm, &res, 200.0, 0.4, &[a, b]);
        }
    }

    proptest! {
        /// The clamped-age sorted-prefix index agrees with the exact
        /// per-atom fold (within float re-association error), and
        /// best_timestep stays idempotent, for workloads whose enqueue times
        /// straddle `now` — the degenerate case that used to pay an O(n)
        /// fold on every call.
        #[test]
        fn clamped_age_index_matches_exact_fold(
            subs in proptest::collection::vec(
                (0u32..4, 0u64..8, 1u32..100, 0u32..2_000), 1..40),
            now in 0.0f64..1_500.0,
            alpha in 0.0f64..=1.0,
        ) {
            let mut wm = WorkloadManager::new(MetricParams::paper_testbed());
            for (i, &(t, m, c, at)) in subs.iter().enumerate() {
                wm.enqueue([SubQuery {
                    query: i as QueryId + 1,
                    atom: AtomId::new(t, MortonKey(m)),
                    positions: c,
                    enqueued_ms: at as f64,
                }]);
            }
            let none = FixedResidency::none();
            let first = wm.best_timestep(now, alpha, &none);
            prop_assert_eq!(first, wm.best_timestep(now, alpha, &none));
            for t in 0..4u32 {
                let atoms = wm.atoms_in_timestep(t);
                if atoms.is_empty() {
                    continue;
                }
                wm.ensure_age_index(t);
                let exact: f64 = atoms.iter().map(|a| wm.age(a, now)).sum();
                let fast = wm.clamped_age_sum(t, now);
                prop_assert!(
                    (fast - exact).abs() <= 1e-9 * exact.abs().max(1.0),
                    "ts {}: fast {} vs exact {}", t, fast, exact
                );
            }
        }
    }

    proptest! {
        /// Interleaved enqueue / take_atom / residency-flip / clock-advance
        /// sequences: the manager's utilities, timestep
        /// means and URC snapshot match the full-scan [`reference`] oracle
        /// bit for bit after every step — whether residency changes arrive
        /// through the change log or through the full re-probe.
        /// The oracle reads the same slots it checks, so the queues
        /// themselves are checked against an independent shadow model: the
        /// pending atoms, every atom's ΣW and age, and for each take the
        /// queued ids in arrival order, the ΣW and count it returns and the
        /// queries it completes.
        #[test]
        fn queues_match_reference_under_interleaving(
            keeps_log in 0u32..2,
            alpha in 0.0f64..=1.0,
            ops in proptest::collection::vec(
                // (kind, ts, morton, positions): kind 0-4 enqueue (biased),
                // 5-6 take the best atom (6 re-enqueues on it), 7-8 flip residency, 9 flip a pending atom
                // specifically, 10-11 advance the clock with no state change.
                (0u32..12, 0u32..4, 0u64..12, 1u32..200), 1..60),
        ) {
            let mut wm = WorkloadManager::new(MetricParams {
                atom_read_ms: 100.0,
                position_compute_ms: 1.0,
                atoms_per_timestep: 16,
            });
            let mut res = FlipResidency::new(keeps_log == 1);
            let probes = [AtomId::new(90, MortonKey(0)), AtomId::new(0, MortonKey(999))];
            let mut shadow: BTreeMap<AtomId, Vec<SubQuery>> = BTreeMap::new();
            let mut next_query: QueryId = 1;
            let mut clock_bump = 0.0f64;
            for (i, &(kind, ts, m, positions)) in ops.iter().enumerate() {
                let now_ms = (i as f64 + 1.0) * 50.0 + clock_bump;
                let atom = AtomId::new(ts, MortonKey(m));
                // The atom a new sub-query arrives on this step, if any.
                let mut arrival = None;
                match kind {
                    0..=4 => arrival = Some(atom),
                    5 | 6 => {
                        // Take the current best atom, like a scheduler would.
                        // Kind 6 re-enqueues on the taken atom in the same
                        // window.
                        if let Some((best, _)) = wm.best_atom(now_ms, alpha, &res) {
                            let expect = shadow.remove(&best).expect("best atom is pending");
                            let ids: Vec<QueryId> = expect.iter().map(|s| s.query).collect();
                            prop_assert_eq!(wm.queued_ids(&best), ids, "queue of {}", best);
                            let (batch, done) = take(&mut wm, &best);
                            let positions: u64 = expect.iter().map(|s| s.positions as u64).sum();
                            prop_assert_eq!(batch.positions, positions, "ΣW of {}", best);
                            prop_assert_eq!(batch.subqueries as usize, expect.len(), "count of {}", best);
                            let mut expect_done: Vec<QueryId> = Vec::new();
                            for s in &expect {
                                let elsewhere = shadow.values().flatten().any(|o| o.query == s.query);
                                if !elsewhere && !expect_done.contains(&s.query) {
                                    expect_done.push(s.query);
                                }
                            }
                            prop_assert_eq!(&done, &expect_done, "completions of {}", best);
                            if kind == 6 {
                                arrival = Some(best);
                            }
                        }
                    }
                    7 | 8 => res.flip(atom),
                    9 => {
                        if let Some(&a) = wm.atoms_in_timestep(ts).first() {
                            res.flip(a);
                        }
                    }
                    _ => clock_bump += 500.0,
                }
                if let Some(atom) = arrival {
                    let sub = SubQuery {
                        query: next_query,
                        atom,
                        positions,
                        enqueued_ms: now_ms - (positions as f64 % 37.0),
                    };
                    wm.enqueue([sub]);
                    shadow.entry(atom).or_default().push(sub);
                    next_query += 1;
                }
                let pending: Vec<AtomId> = shadow.keys().copied().collect();
                prop_assert_eq!(wm.pending_atom_ids(), pending);
                for (a, subs) in &shadow {
                    let positions: u64 = subs.iter().map(|s| s.positions as u64).sum();
                    prop_assert_eq!(wm.atom_positions(a), positions, "ΣW of {}", a);
                    let oldest = subs.iter().map(|s| s.enqueued_ms).fold(f64::INFINITY, f64::min);
                    let age = (now_ms - oldest).max(0.0);
                    prop_assert_eq!(wm.age(a, now_ms).to_bits(), age.to_bits(), "age of {}", a);
                }
                wm.check_slabs(None);
                assert_equiv(&mut wm, &res, now_ms, alpha, &probes);
                wm.check_slabs(Some(&res));
            }
        }

        /// Every take returns the ΣW and sub-query count of exactly what was
        /// enqueued on its atom since the atom last drained (or since the
        /// last `clear`), with the queued ids in arrival order and the
        /// queries it completes, while id chunks cycle through the arena's
        /// free list: the arena never holds more chunks than the queues
        /// needed at once since the last `clear`.
        #[test]
        fn take_summaries_match_enqueued_work_across_buffer_reuse(
            ops in proptest::collection::vec(
                // (kind, ts, morton, positions): kind 0-2 enqueue a new
                // query, 3-4 extend the previous query to this atom, 5-8
                // take this atom if pending, 9 clear.
                (0u32..10, 0u32..2, 0u64..5, 1u32..100), 1..150),
        ) {
            let mut wm = WorkloadManager::new(MetricParams::paper_testbed());
            let mut shadow: BTreeMap<AtomId, Vec<SubQuery>> = BTreeMap::new();
            let mut query: QueryId = 0;
            let mut high_water = 0;
            for (i, &(kind, ts, m, positions)) in ops.iter().enumerate() {
                let atom = AtomId::new(ts, MortonKey(m));
                match kind {
                    0..=4 => {
                        if kind <= 2 || query == 0 {
                            query += 1;
                        }
                        let sub = SubQuery { query, atom, positions, enqueued_ms: i as f64 };
                        wm.enqueue([sub]);
                        shadow.entry(atom).or_default().push(sub);
                    }
                    5..=8 => {
                        let Some(expect) = shadow.remove(&atom) else {
                            continue;
                        };
                        let ids: Vec<QueryId> = expect.iter().map(|s| s.query).collect();
                        prop_assert_eq!(wm.queued_ids(&atom), ids.clone(), "queue of {}", atom);
                        let (batch, done) = take(&mut wm, &atom);
                        let positions: u64 = expect.iter().map(|s| s.positions as u64).sum();
                        prop_assert_eq!(batch.atom, atom);
                        prop_assert_eq!(batch.positions, positions, "ΣW of {}", atom);
                        prop_assert_eq!(batch.subqueries as usize, expect.len(), "count of {}", atom);
                        let mut expect_done: Vec<QueryId> = Vec::new();
                        for q in ids {
                            let elsewhere = shadow.values().flatten().any(|o| o.query == q);
                            if !elsewhere && !expect_done.contains(&q) {
                                expect_done.push(q);
                            }
                        }
                        prop_assert_eq!(done, expect_done, "completions of {}", atom);
                    }
                    _ => {
                        wm.clear();
                        shadow.clear();
                        prop_assert!(wm.is_empty());
                        high_water = 0;
                    }
                }
                let pending = shadow.values().map(Vec::len).sum::<usize>();
                let chunks: usize = shadow.values().map(|q| chunks_for(q.len() as u32)).sum();
                high_water = high_water.max(chunks);
                prop_assert_eq!(wm.pending_subqueries(), pending);
                prop_assert_eq!(wm.ids.chunks.len(), high_water, "arena grew past the high-water mark");
                wm.check_slabs(None);
            }
        }

        /// The incremental coarse/fine decomposition agrees with the
        /// reference: the per-timestep atom lists partition aged_utilities,
        /// and best_atom is the reference argmax.
        #[test]
        fn incremental_two_level_agrees_with_reference(
            alpha in 0.0f64..=1.0,
            subs in proptest::collection::vec((0u32..5, 0u64..10, 1u32..300), 1..50),
        ) {
            let mut wm = WorkloadManager::new(MetricParams {
                atom_read_ms: 80.0,
                position_compute_ms: 0.05,
                atoms_per_timestep: 16,
            });
            for (i, &(ts, m, positions)) in subs.iter().enumerate() {
                wm.enqueue([SubQuery {
                    query: i as QueryId + 1,
                    atom: AtomId::new(ts, MortonKey(m)),
                    positions,
                    enqueued_ms: i as f64 * 3.0,
                }]);
            }
            let none = FixedResidency::none();
            let now_ms = 1e4;
            let oracle = reference::aged_utilities(&wm, now_ms, alpha, &none);
            let by_atom: HashMap<AtomId, u64> =
                oracle.iter().map(|&(a, u)| (a, u.to_bits())).collect();
            let mut seen = 0usize;
            let mut in_ts = Vec::new();
            for ts in 0..5u32 {
                wm.timestep_aged_utilities(ts, now_ms, alpha, &none, &mut in_ts);
                for &(a, u) in &in_ts {
                    prop_assert_eq!(by_atom[&a], u.to_bits());
                    seen += 1;
                }
            }
            prop_assert_eq!(seen, by_atom.len(), "timestep lists partition the atoms");
            let ref_best = oracle
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
                .unwrap();
            let fast = wm.best_atom(now_ms, alpha, &none).unwrap();
            prop_assert_eq!(fast.0, ref_best.0);
            prop_assert_eq!(fast.1.to_bits(), ref_best.1.to_bits());
        }
    }
}
