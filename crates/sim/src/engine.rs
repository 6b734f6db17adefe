//! The discrete-event core behind [`crate::ClusterExecutor`], the one route
//! into a replay.
//!
//! Every deployment shape is a cluster: a single server is a cluster of one
//! node owning the one Morton slab (§V-C runs one JAWS instance per slab).
//! This module owns all of the replay:
//!
//! * [`Routing`] splits the atom grid into `nodes ≥ 1` contiguous Morton
//!   slabs, optionally under the hot-atom replica overlay
//!   ([`crate::replication`]); a query fans out into per-node parts under
//!   packed part ids, and node 0's part ids *are* the trace query ids;
//! * `LiveRouting` (crate-internal) overlays the static route with node
//!   liveness: a scripted crash ([`crate::FailurePlan`]) marks a node dead
//!   and re-routes its slab to a survivor (clamped, chained across repeated
//!   failures);
//! * `Engine` (crate-internal) is the one client model, with one method per
//!   event kind: it replays job arrivals, paces batched queries, drives
//!   ordered think-time chains, declares each job to the nodes its
//!   projection touches (at its arrival, or at t = 0 for jobs declared up
//!   front), enforces the cross-node completion barrier
//!   (outstanding-part counts), charges batch service times, spends idle
//!   capacity on trajectory prefetches, injects scripted node failures
//!   (crash re-dispatch, straggler slowdowns), and truncates at the
//!   simulated-time cap — against N ≥ 1 [`NodePipeline`]s.
//!
//! The engine owns the clock: pipelines never see time except through the
//! `now_ms` arguments the engine passes in. Dispatch is serial: each event
//! is followed by one round over the live pipelines in ascending node order,
//! so event ids, reports and JSONL traces are a function of the seeded
//! inputs only. Every engine-side map that is iterated is a `BTreeMap` or
//! `BTreeSet`, so iteration order follows the keys; the per-query table,
//! the declared-id sets and the ledgers' position maps are only looked up
//! by id, so they are a [`FastMap`] or a [`FastSet`], which iterate only in
//! sorted order.
//!
//! ## Outstanding-part ledger
//!
//! Under a failure plan or the replica overlay, each node keeps one ledger:
//! every part delivered to it and not yet completed, by part id (footprint
//! included). It is the one record of what a node holds. Replica routing
//! reads a node's load as the length of its ledger, and a crash
//! re-dispatches the dead node's ledger to the survivor, in ascending
//! part-id order, and moves the parts with it. A plain replay keeps no
//! ledger.
//!
//! ## Buffer reuse
//!
//! The replay's bookkeeping allocates in proportion to the most work it
//! holds at once, not to the queries it replays. A footprint is a view of
//! a shared buffer (`jaws_workload::Footprint`), so copies of a query share
//! its atoms: a part holding all of its query's atoms shares the query's
//! buffer. The other parts' footprints come from one pool of buffers,
//! binned by length, and return to it once nothing else holds them: right
//! after delivery in a plain replay, when the part completes under a
//! ledger. A job's projection onto a node lays its queries' atoms out in
//! one buffer. A completed batch goes back to its node's scheduler, which builds the
//! next batch in its buffers.
//!
//! ## Failure semantics
//!
//! A crash at time `T` is one deterministic transaction inside the event
//! loop: the node is marked dead, every later event addressed to it (stale
//! `BatchDone`, `PrefetchDone`, `IdleCheck`) is dropped on pop, its slab
//! redirects to the survivor, and every part it held — queued in its
//! scheduler *or* in its in-flight batch — is re-enqueued through the
//! survivor's scheduler under its original packed part id (so the
//! completion barrier and the response log stay keyed by trace query ids).
//! Re-dispatched and newly-routed work is first *declared* to the survivor
//! as a remnant job projection so job-aware gating knows the incoming ids;
//! the work then competes in the survivor's utility ranking like any other
//! arrival — recovery never jumps the queue.
//!
//! ## Declarations
//!
//! Declarations describe jobs only: each job's projection at its arrival
//! (or at t = 0 for jobs declared up front) and crash remnants. A part the
//! replica overlay diverts to a node outside its job's projection reaches
//! that node undeclared, as a one-off query: no job-mate there can gate it,
//! so the node's scheduler schedules it at once (`Scheduler::job_declared`).

use crate::failure::{FailureEvent, FailurePlan};
use crate::node::NodePipeline;
use crate::replication::{ReplicaAction, ReplicaDirectory, ReplicationConfig, ReplicationSummary};
use crate::report::RunTotals;
use crate::SimConfig;
use jaws_arena::Lanes;
use jaws_morton::{FastMap, FastSet, MortonKey};
use jaws_obs::ObsSink;
use jaws_workload::{AtomBuffer, Footprint, Job, JobKind, Query, QueryId, Trace};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Bits of a packed part id that carry the original query id. The remaining
/// high bits hold the node index, so node 0's part ids equal the trace query
/// ids and parts of one query on different nodes never collide.
pub const PART_QUERY_BITS: u32 = 48;

/// Mask selecting the original-query-id bits of a packed part id.
pub const PART_QUERY_MASK: u64 = (1 << PART_QUERY_BITS) - 1;

/// Highest node index a part id can encode in its `64 − PART_QUERY_BITS`
/// tag bits.
pub const MAX_NODE_INDEX: u32 = (1 << (64 - PART_QUERY_BITS)) - 1;

/// Packs a node index into the high bits of a part id.
pub fn part_id(query: QueryId, node: u32) -> QueryId {
    debug_assert!(
        query <= PART_QUERY_MASK,
        "query id {query} exceeds the {PART_QUERY_BITS}-bit part budget"
    );
    debug_assert!(
        node <= MAX_NODE_INDEX,
        "node {node} exceeds the packed-field maximum {MAX_NODE_INDEX}"
    );
    ((node as u64) << PART_QUERY_BITS) | query
}

/// Recovers the original query id from a part id.
pub fn orig_id(part: QueryId) -> QueryId {
    part & PART_QUERY_MASK
}

/// Recovers the node index from a part id.
pub fn part_node(part: QueryId) -> u32 {
    (part >> PART_QUERY_BITS) as u32
}

/// Remnant job declarations (crash re-dispatch) tag the synthetic job id with
/// the 1-based crash ordinal in these high bits, so a job whose parts are
/// re-dispatched by several successive crashes gets a distinct declaration id
/// each time and never collides with trace job ids.
const REMNANT_JOB_BITS: u32 = 48;

/// Re-poll interval of a node that is idle but holds gated work, so the
/// starvation valve can fire even when no other event is due.
const IDLE_RECHECK_MS: f64 = 500.0;

/// How submitted queries reach the node pipelines: the §V-C partition of the
/// atom grid into contiguous Morton slabs of `slab_size` atoms, one per
/// node. Each query fans out into per-node part queries (packed ids) and
/// completes only when every part has. One node owns the one slab, and its
/// parts are the queries themselves. Built by [`Routing::new`], which keeps
/// `nodes ≥ 1` and the slab size consistent with it.
#[derive(Debug, Clone, Copy)]
pub struct Routing {
    /// Morton keys per timestep: the key range the slabs partition.
    atoms_per_timestep: u64,
    /// Atoms per node slab (`ceil(atoms-per-timestep / nodes)`). When the
    /// node count does not divide the atoms per timestep, every node but
    /// the last owns a full slab and the last owns the short remainder.
    pub(crate) slab_size: u64,
    /// Number of nodes (≥ 1); keys past the last full slab are clamped onto
    /// the final node so the short remainder slab is still owned.
    pub(crate) nodes: u32,
    /// Hot-atom replica overlay: when enabled, the engine keeps a per-key
    /// access histogram and routes each footprint atom to the least-loaded
    /// live replica, falling back to the slab owner. Disabled, the engine
    /// allocates no replication state at all.
    pub(crate) replication: ReplicationConfig,
}

impl Routing {
    /// Ceil-sized slabs of `atoms_per_timestep` keys over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the part-id packing budget
    /// ([`MAX_NODE_INDEX`]).
    pub fn new(atoms_per_timestep: u64, nodes: u32, replication: ReplicationConfig) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert!(
            nodes - 1 <= MAX_NODE_INDEX,
            "nodes ({nodes}) exceed the part-id packing budget ({} max)",
            MAX_NODE_INDEX + 1
        );
        Routing {
            atoms_per_timestep,
            slab_size: atoms_per_timestep.div_ceil(nodes as u64),
            nodes,
            replication,
        }
    }

    /// The node owning a Morton key under the *static* partition (no failure
    /// redirects applied — the engine's `LiveRouting` overlay holds its
    /// own failure-aware view).
    pub fn node_of(&self, m: MortonKey) -> u32 {
        ((m.raw() / self.slab_size) as u32).min(self.nodes - 1)
    }

    /// Morton keys per timestep that [`Self::node_of`] routes to `node`: a
    /// full slab, the short remainder on the last node, or none for a node
    /// whose slab starts past the key range.
    pub(crate) fn owned_atoms(&self, node: u32) -> u64 {
        // Ceil-sized slabs reach past the key range, so the last node's
        // slab ends at the range's end too.
        let start = (node as u64 * self.slab_size).min(self.atoms_per_timestep);
        (start + self.slab_size).min(self.atoms_per_timestep) - start
    }
}

/// The engine's routing view: the static [`Routing`] plus node liveness. A
/// crash redirects the dead node's slab onto its survivor (and compresses any
/// chain of earlier redirects that pointed at the dead node), so `node_of`
/// always answers with a live node.
struct LiveRouting {
    base: Routing,
    /// Per static owner: the live node currently responsible for its slab.
    redirect: Vec<u32>,
    /// Per node: false once a scripted crash killed it.
    alive: Vec<bool>,
}

impl LiveRouting {
    fn new(base: Routing) -> Self {
        LiveRouting {
            base,
            redirect: (0..base.nodes).collect(),
            alive: vec![true; base.nodes as usize],
        }
    }

    /// The live node owning a Morton key.
    fn node_of(&self, m: MortonKey) -> u32 {
        self.redirect[self.base.node_of(m) as usize]
    }

    /// True when node 0 serves every slab, so a job's node-0 projection is
    /// the job itself. O(nodes): it reads `redirect`, never a footprint.
    fn node0_owns_all(&self) -> bool {
        self.redirect.iter().all(|&r| r == 0)
    }

    /// Kills `node`, redirecting every slab it was responsible for onto the
    /// survivor. `designated` names the survivor; `None` (or a designated
    /// node that is itself dead / the crashing node after chain resolution)
    /// falls back to the lowest-indexed live node. Returns the survivor.
    ///
    /// # Panics
    ///
    /// Panics if no node would remain alive (validated up front by
    /// [`FailurePlan::validate`], re-checked here as an invariant).
    fn crash(&mut self, node: u32, designated: Option<u32>) -> u32 {
        self.alive[node as usize] = false;
        #[expect(
            clippy::expect_used,
            reason = "invariant: FailurePlan::validate rejects plans that crash every node, \
                      so a live node always remains"
        )]
        let fallback = || {
            self.alive
                .iter()
                .position(|&a| a)
                .expect("a crash must leave at least one node alive") as u32
        };
        let surv = match designated {
            Some(s) => {
                let resolved = self.redirect[s as usize];
                if self.alive[resolved as usize] {
                    resolved
                } else {
                    fallback()
                }
            }
            None => fallback(),
        };
        for r in &mut self.redirect {
            if *r == node {
                *r = surv;
            }
        }
        surv
    }

    /// Projects `queries` onto one node, in order: each query's part id
    /// and the footprint atoms the node owns go to `emit` with the query's
    /// index, and a query the node owns none of is skipped. A filtered
    /// canonical footprint is still canonical (sorted, merged, no zero
    /// counts), so a filtered run is a part's footprint as is. The runs are
    /// gathered in `atoms` (left empty) and copied into one exact-sized
    /// buffer that every projected footprint views: declarations keep their
    /// projections for the job's lifetime, and one buffer costs one
    /// allocation whatever the number of queries.
    fn project_queries<'q>(
        &self,
        queries: impl Iterator<Item = (usize, &'q Query)> + Clone,
        node: u32,
        atoms: &mut Vec<(MortonKey, u32)>,
        mut emit: impl FnMut(usize, Query),
    ) {
        let owned = |a: &&(MortonKey, u32)| self.node_of(a.0) == node;
        debug_assert!(atoms.is_empty(), "projection scratch left dirty");
        for (_, q) in queries.clone() {
            atoms.extend(q.footprint.atoms().iter().filter(owned));
        }
        if atoms.is_empty() {
            return;
        }
        let buf: AtomBuffer = Arc::from(atoms.as_slice());
        atoms.clear();
        let mut start = 0;
        for (i, q) in queries {
            let n = q.footprint.atoms().iter().filter(owned).count();
            if n == 0 {
                continue;
            }
            let part = Query {
                id: part_id(q.id, node),
                user: q.user,
                op: q.op,
                timestep: q.timestep,
                footprint: Footprint::view(Arc::clone(&buf), start..start + n),
            };
            emit(i, part);
            start += n;
        }
    }

    /// Projects a job onto one node for declaration: its queries are
    /// projected by [`Self::project_queries`], preserving order. `None` when
    /// the node owns nothing of the job. When node 0 owns every slab its
    /// projection is the job itself, borrowed. The projected queries are
    /// staged in `staged` (left empty) and moved from there into the job's
    /// `Arc`, so a projection costs two allocations: that `Arc` and the
    /// atom buffer.
    fn project_job<'j>(
        &self,
        job: &'j Job,
        node: u32,
        staged: &mut Vec<Query>,
        atoms: &mut Vec<(MortonKey, u32)>,
    ) -> Option<Cow<'j, Job>> {
        if node == 0 && self.node0_owns_all() {
            return Some(Cow::Borrowed(job));
        }
        debug_assert!(staged.is_empty(), "projection scratch left dirty");
        self.project_queries(job.queries.iter().enumerate(), node, atoms, |_, q| {
            staged.push(q);
        });
        if staged.is_empty() {
            return None;
        }
        Some(Cow::Owned(Job {
            id: job.id,
            user: job.user,
            kind: job.kind,
            campaign: job.campaign,
            queries: staged.drain(..).collect(),
            arrival_ms: job.arrival_ms,
            think_ms: job.think_ms,
        }))
    }
}

/// Typed engine events.
#[derive(Debug)]
enum Event {
    /// A trace job reached its arrival time.
    JobArrival(usize),
    /// Query `(job index, query index)` is submitted by the client model.
    QuerySubmit(usize, usize),
    /// A node finished the batch it holds in service.
    BatchDone(u32),
    /// A node's speculative read finished.
    PrefetchDone(u32),
    /// A node's idle re-poll fired (starvation-valve wake-up).
    IdleCheck(u32),
    /// Scripted failure event `i` of the run's [`FailurePlan`] fired.
    Failure(usize),
}

/// Cumulative push count of every [`EventQueue`] in the process. Updated only
/// from the (serial) engine event loop; read by the bench bins so event-queue
/// traffic is a measured quantity. Never feeds a scheduling decision.
static EV_PUSHES: AtomicU64 = AtomicU64::new(0);

/// Cumulative pop count, mirroring [`EV_PUSHES`].
static EV_POPS: AtomicU64 = AtomicU64::new(0);

/// Process-wide event-queue operation counters (pushes, pops) since start or
/// the last [`reset_queue_ops`]. Observability for the bench bins only — the
/// counts are themselves deterministic (the replay pushes and pops the exact
/// same event sequence at any thread count), so they may appear unmasked in
/// bench reports.
pub fn queue_ops() -> (u64, u64) {
    (
        EV_PUSHES.load(AtomicOrdering::Relaxed),
        EV_POPS.load(AtomicOrdering::Relaxed),
    )
}

/// Resets the process-wide event-queue counters to zero.
pub fn reset_queue_ops() {
    EV_PUSHES.store(0, AtomicOrdering::Relaxed);
    EV_POPS.store(0, AtomicOrdering::Relaxed);
}

/// A pending event stored inline in the heap. The insertion id breaks time
/// ties first-pushed-first-popped.
struct Pending {
    at_ms: f64,
    id: u64,
    ev: Event,
}

impl Ord for Pending {
    /// `(f64::total_cmp, insertion id)`, reversed: `BinaryHeap` is a
    /// max-heap, and the queue pops the earliest event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at_ms
            .total_cmp(&self.at_ms)
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// The event queue: a binary min-heap of inline `(time, insertion id,
/// payload)` entries under the `(f64::total_cmp, insertion id)` total order.
/// Insertion ids are unique, so the pop sequence is a function of the push
/// sequence alone.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Pending>,
    next_event: u64,
}

impl EventQueue {
    fn push(&mut self, at_ms: f64, ev: Event) {
        let id = self.next_event;
        self.next_event += 1;
        self.heap.push(Pending { at_ms, id, ev });
        EV_PUSHES.fetch_add(1, AtomicOrdering::Relaxed);
    }

    fn pop(&mut self) -> Option<(f64, Event)> {
        let Pending { at_ms, ev, .. } = self.heap.pop()?;
        EV_POPS.fetch_add(1, AtomicOrdering::Relaxed);
        Some((at_ms, ev))
    }
}

/// Everything a run produced that the report layer needs.
pub(crate) struct EngineOutcome {
    /// Totals feeding [`crate::report`] assembly, the completion log
    /// included.
    pub totals: RunTotals,
    /// Per node: false once a scripted crash killed it.
    pub alive: Vec<bool>,
    /// Time of the first scripted failure that actually fired, if any.
    pub first_failure_ms: Option<f64>,
    /// Replica-overlay summary; `None` unless replication was enabled.
    pub replication: Option<ReplicationSummary>,
}

/// Part footprint buffers the replay has finished with, binned by length.
/// A part of `n` atoms is written into a buffer from the lowest non-empty
/// bin at or above `n` — the tightest fit — and views its first `n`
/// entries; only when no bin fits is a buffer allocated, sized exactly. A
/// bitset of the non-empty bins finds that bin a word at a time. A buffer
/// comes back only once nothing else holds it, so a pooled buffer is always
/// written in place; once the replay has as many buffers of each size out
/// as it ever needs at once, building a part allocates nothing.
#[derive(Default)]
struct FootprintPool {
    bins: Vec<Vec<AtomBuffer>>,
    /// Bit `b` is set iff `bins[b]` is non-empty.
    stocked: Vec<u64>,
}

impl FootprintPool {
    /// A footprint of `atoms`, a canonical run.
    fn footprint(&mut self, atoms: &[(MortonKey, u32)]) -> Footprint {
        let n = atoms.len();
        if let Some(bin) = self.first_stocked(n) {
            let shelf = &mut self.bins[bin];
            if let Some(mut buf) = shelf.pop() {
                if shelf.is_empty() {
                    self.stocked[bin / 64] &= !(1 << (bin % 64));
                }
                if let Some(slots) = Arc::get_mut(&mut buf) {
                    slots[..n].copy_from_slice(atoms);
                    return Footprint::view(buf, 0..n);
                }
            }
        }
        Footprint::view(Arc::from(atoms), 0..n)
    }

    /// The lowest non-empty bin at or above `from`.
    fn first_stocked(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.stocked.get(word)? & (!0u64 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.stocked.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Puts `fp`'s buffer in the bin of its length if nothing else holds
    /// it; a shared buffer (a trace query's, or one a scheduler still
    /// holds) is let go as is.
    fn give(&mut self, fp: Footprint) {
        let mut buf = fp.into_buffer();
        if buf.is_empty() || Arc::get_mut(&mut buf).is_none() {
            return;
        }
        let bin = buf.len();
        if self.bins.len() <= bin {
            self.bins.resize_with(bin + 1, Vec::new);
            self.stocked.resize(bin / 64 + 1, 0);
        }
        self.bins[bin].push(buf);
        self.stocked[bin / 64] |= 1 << (bin % 64);
    }
}

/// One node's outstanding-part ledger (module docs): the parts in a `Vec`
/// and each one's position in a lookup-only map, so a delivery or a
/// completion allocates nothing once both have grown to the most parts the
/// node ever held at once. A crash drains it in ascending part-id order.
#[derive(Default)]
struct Ledger {
    parts: Vec<Query>,
    at: FastMap<QueryId, usize>,
}

impl Ledger {
    /// Parts outstanding: the node's load under replica routing.
    fn len(&self) -> usize {
        self.parts.len()
    }

    fn insert(&mut self, part: Query) {
        let prev = self.at.insert(part.id, self.parts.len());
        debug_assert!(prev.is_none(), "part {} ledgered twice", part.id);
        self.parts.push(part);
    }

    fn remove(&mut self, part: QueryId) -> Option<Query> {
        let i = self.at.remove(&part)?;
        let removed = self.parts.swap_remove(i);
        if let Some(moved) = self.parts.get(i) {
            self.at.insert(moved.id, i);
        }
        Some(removed)
    }

    /// Takes every part, in ascending part-id order.
    fn drain_sorted(&mut self) -> Vec<Query> {
        self.at.clear();
        let mut parts = std::mem::take(&mut self.parts);
        parts.sort_unstable_by_key(|p| p.id);
        parts
    }
}

/// Reusable per-submit scratch for the engine's fan-out path. One query's
/// footprint is scattered into per-node lanes; a lane that holds the whole
/// footprint makes a part that shares the query's buffer, and any other
/// lane is copied into a pooled buffer that becomes the part's footprint.
/// The lanes keep their own buffers. A plain replay returns each part's
/// buffer to the pool after delivery; under a failure plan or the replica
/// overlay the part moves into its node's ledger with its buffer, which
/// returns to the pool when the part completes. So a warmed-up submit
/// allocates nothing.
struct EngineScratch {
    /// Per-node `(morton, count)` buckets for the footprint scatter.
    lanes: Lanes<(MortonKey, u32)>,
    /// Replica overlay: which nodes statically own atoms of the current
    /// query (withdrawal bookkeeping). Reset per submit.
    owner_flag: Vec<bool>,
    /// Replica overlay: promote/demote/route transitions of the current
    /// query. Cleared per submit.
    actions: Vec<ReplicaAction>,
    /// Footprint buffers of parts.
    pool: FootprintPool,
    /// A job projection's queries, staged before they move into its `Arc`.
    projected: Vec<Query>,
    /// A projection's atoms, gathered before they move into its buffer.
    projected_atoms: Vec<(MortonKey, u32)>,
}

impl EngineScratch {
    fn new(nodes: usize) -> Self {
        EngineScratch {
            lanes: Lanes::new(nodes),
            owner_flag: vec![false; nodes],
            actions: Vec::new(),
            pool: FootprintPool::default(),
            projected: Vec::new(),
            projected_atoms: Vec::new(),
        }
    }
}

/// Panics unless `trace` fits the nodes' shared database geometry: no more
/// timesteps than the database holds, and the same atom grid. The engine
/// checks it once, before any event fires.
fn check_trace(trace: &Trace, db: &jaws_turbdb::DbConfig) {
    assert!(
        trace.timesteps <= db.timesteps,
        "trace spans {} timesteps, beyond the database's {}",
        trace.timesteps,
        db.timesteps
    );
    assert_eq!(
        trace.atoms_per_side,
        db.atoms_per_side(),
        "trace atom grid does not match the database"
    );
}

/// Panics unless the jobs declared up front name every trace query exactly
/// once and nothing else, naming the first foreign, repeated or missing id:
/// a part no declared job holds would run as a one-off query, never gated.
fn check_declared(jobs: &[Job], trace: &Trace, per_query: &FastMap<QueryId, QueryState>) {
    let mut seen = FastSet::default();
    for q in jobs.iter().flat_map(|j| j.queries.iter()) {
        let known = per_query.contains_key(&q.id);
        assert!(known, "declared query {} is not in the trace", q.id);
        assert!(seen.insert(q.id), "query {} is declared twice", q.id);
    }
    for q in trace.jobs.iter().flat_map(|j| j.queries.iter()) {
        let held = seen.contains(&q.id);
        assert!(held, "trace query {} is in no declared job", q.id);
    }
}

/// The run state of one trace query.
struct QueryState {
    /// Index of the query's job in the trace.
    job: usize,
    /// Index of the query within its job.
    index: usize,
    /// Simulated submission time; `None` until the client submits it.
    submit_ms: Option<f64>,
    /// Completion barrier: parts submitted and not yet completed.
    outstanding: u32,
}

/// One replay of a trace against N ≥ 1 node pipelines: the run's state, and
/// one method per [`Event`] kind.
pub(crate) struct Engine<'a> {
    pipelines: &'a mut [NodePipeline],
    trace: &'a Trace,
    failures: &'a FailurePlan,
    /// Receives the engine-level lifecycle events (job arrival, query
    /// submission, part routing, completion, failures, end-of-run counters);
    /// per-node events are emitted by the pipelines through their own sinks.
    sink: &'a ObsSink,
    /// Whether each trace job is declared to the schedulers at its arrival
    /// (false when [`crate::ClusterExecutor::declare_jobs`] named the jobs to
    /// declare at t = 0 instead).
    declare_on_arrival: bool,
    live: LiveRouting,
    /// Per trace query id: where it sits in the trace, when it was
    /// submitted and how many of its parts are still out. Only looked up.
    per_query: FastMap<QueryId, QueryState>,
    totals: RunTotals,
    remaining_per_job: Vec<usize>,
    now_ms: f64,
    queue: EventQueue,
    first_failure_ms: Option<f64>,
    /// Per node: part ids its scheduler has been told about — job
    /// projections and crash remnants, minus withdrawn and completed ids (a
    /// completed part's id is never asked about again). Empty unless a
    /// failure plan or the replica overlay needs the membership answers.
    /// Only looked up.
    declared: Vec<FastSet<QueryId>>,
    /// Per node: the outstanding-part ledger (module docs) — every part
    /// delivered to it and not yet completed, in-flight batch parts
    /// included, by part id. Empty under the same condition as `declared`.
    ledger: Vec<Ledger>,
    /// Per trace job: whether its arrival event has fired. Empty unless a
    /// failure plan is in force.
    arrived: Vec<bool>,
    /// The replica overlay's histogram, replica table and transition
    /// counters; `None` unless replication is enabled.
    replicas: Option<ReplicaDirectory>,
    scratch: EngineScratch,
}

impl<'a> Engine<'a> {
    /// Replays `trace` against `pipelines` under `routing` until the trace
    /// drains or the simulated-time cap fires.
    ///
    /// `declared` replaces the per-arrival job declarations with these jobs,
    /// declared at t = 0 through the same per-node projection. `failures`
    /// scripts node crashes and slowdowns (validated against the node count
    /// by the caller).
    ///
    /// # Panics
    ///
    /// Panics if the trace does not fit the database geometry, if a query id
    /// exceeds the [`PART_QUERY_BITS`] budget, if the pipeline count differs
    /// from `routing.nodes`, or if `declared` does not name every trace
    /// query exactly once and nothing else.
    pub(crate) fn run(
        pipelines: &'a mut [NodePipeline],
        routing: Routing,
        cfg: &'a SimConfig,
        trace: &'a Trace,
        declared: Option<&[Job]>,
        failures: &'a FailurePlan,
        sink: &'a ObsSink,
    ) -> EngineOutcome {
        let nodes = pipelines.len();
        assert_eq!(nodes, routing.nodes as usize, "one pipeline per node");
        // `ClusterExecutor::from_nodes` asserts one geometry for every node.
        check_trace(trace, pipelines[0].db().config());
        let mut per_query = FastMap::with_capacity(trace.query_count());
        for (ji, job) in trace.jobs.iter().enumerate() {
            for (qi, q) in job.queries.iter().enumerate() {
                assert!(
                    q.id <= PART_QUERY_MASK,
                    "query id {} exceeds the {PART_QUERY_BITS}-bit part budget",
                    q.id
                );
                let state = QueryState {
                    job: ji,
                    index: qi,
                    submit_ms: None,
                    outstanding: 0,
                };
                assert!(
                    per_query.insert(q.id, state).is_none(),
                    "query id {} appears twice in the trace",
                    q.id
                );
            }
        }
        if let Some(jobs) = declared {
            check_declared(jobs, trace, &per_query);
        }
        let first_arrival = trace.jobs.first().map_or(0.0, |j| j.arrival_ms);
        let replication = routing.replication;
        let ledgered = !failures.is_empty() || replication.enabled;
        let mut e = Engine {
            trace,
            failures,
            sink,
            declare_on_arrival: declared.is_none(),
            live: LiveRouting::new(routing),
            per_query,
            totals: RunTotals {
                response_log: Vec::with_capacity(trace.query_count()),
                jobs_completed: 0,
                first_arrival,
                last_completion: first_arrival,
                truncated: false,
            },
            remaining_per_job: trace.jobs.iter().map(|j| j.queries.len()).collect(),
            now_ms: 0.0,
            queue: EventQueue::default(),
            first_failure_ms: None,
            // Failure and replication bookkeeping is allocated only when in
            // force, so a plain replay pays nothing (event ids included: an
            // empty plan pushes no events).
            declared: if ledgered {
                vec![FastSet::default(); nodes]
            } else {
                Vec::new()
            },
            ledger: if ledgered {
                (0..nodes).map(|_| Ledger::default()).collect()
            } else {
                Vec::new()
            },
            arrived: if failures.is_empty() {
                Vec::new()
            } else {
                vec![false; trace.jobs.len()]
            },
            replicas: replication
                .enabled
                .then(|| ReplicaDirectory::new(replication)),
            // Reusable fan-out scratch: allocated once per run, cleared per
            // event — the per-event hot path allocates nothing after warm-up.
            scratch: EngineScratch::new(nodes),
            pipelines,
        };
        for job in declared.into_iter().flatten() {
            e.declare(job);
        }
        for (ji, job) in trace.jobs.iter().enumerate() {
            e.queue.push(job.arrival_ms, Event::JobArrival(ji));
        }
        for (i, ev) in failures.events().iter().enumerate() {
            e.queue.push(ev.at_ms(), Event::Failure(i));
        }
        while let Some((at, ev)) = e.queue.pop() {
            if at > cfg.max_sim_ms {
                e.totals.truncated = true;
                break;
            }
            e.now_ms = e.now_ms.max(at);
            match ev {
                Event::JobArrival(ji) => e.job_arrival(ji),
                Event::QuerySubmit(ji, qi) => {
                    let observe = trace.jobs[ji].kind == JobKind::Ordered;
                    e.submit(ji, qi, observe);
                }
                Event::BatchDone(node) => {
                    if !e.live.alive[node as usize] {
                        // The node died mid-batch: its completion never
                        // happens and these parts were re-dispatched at
                        // crash time. Nothing changed, so no dispatch round.
                        continue;
                    }
                    e.batch_done(node);
                }
                Event::PrefetchDone(node) => {
                    if e.live.alive[node as usize] {
                        e.pipelines[node as usize].set_idle();
                    }
                }
                Event::IdleCheck(node) => {
                    if e.live.alive[node as usize] {
                        e.pipelines[node as usize].clear_idle_check();
                    }
                }
                Event::Failure(i) => e.failure(i),
            }
            e.dispatch_round();
        }
        e.finish()
    }

    /// A trace job arrived: declare its projection to every live node (unless
    /// the jobs were declared up front), then start its client loop.
    fn job_arrival(&mut self, ji: usize) {
        let (trace, now_ms) = (self.trace, self.now_ms);
        let job = &trace.jobs[ji];
        if let Some(arrived) = self.arrived.get_mut(ji) {
            *arrived = true;
        }
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::JobArrival {
                    job: job.id,
                    kind: match job.kind {
                        JobKind::Ordered => "ordered".to_string(),
                        JobKind::Batched => "batched".to_string(),
                    },
                    queries: job.queries.len() as u32,
                },
            );
        }
        if self.declare_on_arrival {
            self.declare(job);
        }
        match job.kind {
            JobKind::Batched => {
                // The client loop streams order-independent queries at its
                // pacing cadence.
                for qi in 0..job.queries.len() {
                    self.queue.push(
                        now_ms + qi as f64 * job.think_ms,
                        Event::QuerySubmit(ji, qi),
                    );
                }
            }
            // The chain head is submitted in place (the predictor only
            // observes from the second query on).
            JobKind::Ordered => self.submit(ji, 0, false),
        }
    }

    /// Declares `job` to every live node: each is told its projection of
    /// the job, and a node owning none of it is told nothing.
    fn declare(&mut self, job: &Job) {
        for (node, p) in self.pipelines.iter_mut().enumerate() {
            if !self.live.alive[node] {
                continue;
            }
            let projected = self.live.project_job(
                job,
                node as u32,
                &mut self.scratch.projected,
                &mut self.scratch.projected_atoms,
            );
            if let Some(pj) = projected {
                if let Some(d) = self.declared.get_mut(node) {
                    d.extend(pj.queries.iter().map(|q| q.id));
                }
                p.job_declared(pj.as_ref(), self.now_ms);
            }
        }
    }

    /// Submits query (ji, qi): records the submission time and fans the query
    /// out to its owning pipelines; `observe` feeds ordered follow-ups to the
    /// trajectory predictors.
    fn submit(&mut self, ji: usize, qi: usize, observe: bool) {
        let (trace, now_ms) = (self.trace, self.now_ms);
        let job = &trace.jobs[ji];
        let q = &job.queries[qi];
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::QuerySubmit {
                    query: q.id,
                    job: job.id,
                    timestep: q.timestep,
                    atoms: q.footprint.atom_count() as u32,
                    positions: q.positions(),
                },
            );
        }
        // No part completes inside this call, so the barrier can be armed
        // after the fan-out.
        let parts = self.fan_out(q, job, observe);
        #[expect(
            clippy::expect_used,
            reason = "invariant: `run` registered every trace query"
        )]
        let state = self.per_query.get_mut(&q.id).expect("trace query");
        assert!(state.submit_ms.is_none(), "query {} submitted twice", q.id);
        state.submit_ms = Some(now_ms);
        state.outstanding = parts;
    }

    /// Splits `q` into per-node parts and delivers them in ascending node
    /// order; returns the number of parts delivered. Each footprint atom goes
    /// to the live owner of its slab. Under the replica overlay the atom is
    /// first recorded in the access histogram, the promotion/demotion
    /// transitions the refreshed window triggers are applied, and the atom
    /// goes to the least-loaded live candidate (slab owner or replica)
    /// instead. Under the overlay, a statically-owning node whose every atom
    /// diverted away holds a declared part id that will never arrive;
    /// job-aware gating would stall its partners until the gate timeout, so
    /// the id is withdrawn (`Scheduler::query_withdrawn` via the pipeline)
    /// before any part is delivered. A part diverted to a node outside its
    /// job's projection arrives there as a one-off query (module docs).
    ///
    /// Delivering a part emits its routing record, feeds it to the node's
    /// trajectory predictor (for ordered follow-ups), makes it available to
    /// the node's scheduler and then moves it into the node's ledger, if the
    /// node keeps one. The scatter reuses the scratch lanes. A part that
    /// holds every atom of `q` shares `q`'s footprint; any other part's
    /// footprint is a pooled buffer that goes back to the pool right after
    /// delivery, or at completion when the node's ledger keeps the part
    /// ([`Self::batch_done`]).
    fn fan_out(&mut self, q: &Query, job: &Job, observe: bool) -> u32 {
        let now_ms = self.now_ms;
        self.scratch.actions.clear();
        self.scratch.owner_flag.fill(false);
        for &(m, c) in q.footprint.atoms() {
            let owner = self.live.node_of(m);
            self.scratch.owner_flag[owner as usize] = true;
            let target = match &mut self.replicas {
                None => owner,
                Some(dir) => {
                    let ledger = &self.ledger;
                    dir.route_atom(
                        m,
                        owner,
                        now_ms,
                        &self.live.alive,
                        |n| ledger[n as usize].len() as u64,
                        &mut self.scratch.actions,
                    )
                }
            };
            self.scratch.lanes.push(target as usize, (m, c));
        }
        // Replica transitions and diversions, in decision order (none
        // without the overlay).
        if self.sink.enabled() {
            for a in &self.scratch.actions {
                let ev = match *a {
                    ReplicaAction::Promoted {
                        morton,
                        node,
                        window_accesses,
                    } => jaws_obs::Event::ReplicaPromoted {
                        morton: morton.raw(),
                        node,
                        window_accesses,
                    },
                    ReplicaAction::Demoted { morton, node } => jaws_obs::Event::ReplicaDropped {
                        morton: morton.raw(),
                        node,
                        crashed: false,
                    },
                    ReplicaAction::Routed {
                        morton,
                        owner,
                        replica,
                    } => jaws_obs::Event::ReplicaRouted {
                        query: q.id,
                        morton: morton.raw(),
                        owner,
                        replica,
                    },
                };
                self.sink.emit(now_ms, ev);
            }
        }
        if self.replicas.is_some() {
            // Withdrawals before deliveries, so gating state is settled when
            // the diverted parts arrive.
            for (node, pipeline) in self.pipelines.iter_mut().enumerate() {
                if !self.scratch.owner_flag[node] || self.scratch.lanes.lane_len(node) > 0 {
                    continue;
                }
                let pid = part_id(q.id, node as u32);
                if self.declared[node].remove(&pid) {
                    pipeline.query_withdrawn(pid, now_ms);
                }
            }
        }
        // Build and deliver the parts in ascending node order.
        let mut delivered = 0;
        for node in 0..self.pipelines.len() {
            if self.scratch.lanes.lane_len(node) == 0 {
                continue;
            }
            let scratch = &mut self.scratch;
            // A lane holds its node's atoms in footprint order, so it is
            // already canonical; one holding every atom is the footprint.
            let lane = scratch.lanes.take_lane(node);
            let footprint = if lane.len() == q.footprint.atom_count() {
                q.footprint.clone()
            } else {
                scratch.pool.footprint(&lane)
            };
            scratch.lanes.restore(node, lane);
            let part = Query {
                id: part_id(q.id, node as u32),
                user: q.user,
                op: q.op,
                timestep: q.timestep,
                footprint,
            };
            if self.sink.enabled() {
                self.sink.emit(
                    now_ms,
                    jaws_obs::Event::PartRouted {
                        query: q.id,
                        part: part.id,
                        node: node as u32,
                        atoms: part.footprint.atom_count() as u32,
                    },
                );
            }
            let p = &mut self.pipelines[node];
            if observe {
                p.observe(job.id, &part);
            }
            p.query_available(&part, now_ms);
            match self.ledger.get_mut(node) {
                Some(ledger) => ledger.insert(part),
                None => self.scratch.pool.give(part.footprint),
            }
            delivered += 1;
        }
        delivered
    }

    /// A node finished its batch in service: complete its parts, and every
    /// query whose last part this was, then hand the batch back to the
    /// node's scheduler for reuse.
    fn batch_done(&mut self, node: u32) {
        let (trace, now_ms) = (self.trace, self.now_ms);
        let n = node as usize;
        self.pipelines[n].set_idle();
        #[expect(
            clippy::expect_used,
            reason = "invariant: a node has one BatchDone pending per charged batch, \
                      and only its own BatchDone takes the batch back"
        )]
        let batch = self.pipelines[n]
            .take_batch()
            .expect("a completing node holds its batch");
        for &pid in &batch.completing_queries {
            let qid = orig_id(pid);
            #[expect(
                clippy::expect_used,
                reason = "invariant: schedulers only complete parts the engine handed \
                          them, all of trace queries"
            )]
            let state = self
                .per_query
                .get_mut(&qid)
                .expect("completed a trace query");
            #[expect(
                clippy::expect_used,
                reason = "invariant: schedulers only complete queries previously handed \
                          to query_available"
            )]
            let submitted = state.submit_ms.expect("completed query was submitted");
            #[expect(
                clippy::panic,
                reason = "invariant: submit armed the barrier with one count per delivered part"
            )]
            let left = state
                .outstanding
                .checked_sub(1)
                .unwrap_or_else(|| panic!("query {qid} completed more parts than it has"));
            state.outstanding = left;
            let (ji, qi) = (state.job, state.index);
            let rt = now_ms - submitted;
            self.pipelines[n].complete_part(pid, rt, now_ms);
            if let Some(part) = self.ledger.get_mut(n).and_then(|l| l.remove(pid)) {
                self.scratch.pool.give(part.footprint);
            }
            if let Some(d) = self.declared.get_mut(n) {
                d.remove(&pid);
            }
            if left > 0 {
                continue;
            }
            // The whole query is done: record and advance the job.
            if self.sink.enabled() {
                self.sink.emit(
                    now_ms,
                    jaws_obs::Event::QueryComplete {
                        query: qid,
                        response_ms: rt,
                    },
                );
                self.sink.emit(
                    now_ms,
                    jaws_obs::Event::Histogram {
                        name: "engine.response_ms".to_string(),
                        sample: rt,
                    },
                );
            }
            self.totals.response_log.push((qid, rt));
            self.totals.last_completion = now_ms;
            let job = &trace.jobs[ji];
            self.remaining_per_job[ji] -= 1;
            if self.remaining_per_job[ji] == 0 {
                self.totals.jobs_completed += 1;
                // A finished job is never observed again.
                for (node, p) in self.pipelines.iter_mut().enumerate() {
                    if self.live.alive[node] {
                        p.job_done(job.id);
                    }
                }
            }
            if job.kind == JobKind::Ordered && qi + 1 < job.queries.len() {
                self.queue
                    .push(now_ms + job.think_ms, Event::QuerySubmit(ji, qi + 1));
            }
        }
        self.pipelines[n].recycle_batch(batch);
    }

    /// Scripted failure event `i` fired.
    fn failure(&mut self, i: usize) {
        let now_ms = self.now_ms;
        self.first_failure_ms.get_or_insert(now_ms);
        match self.failures.events()[i] {
            FailureEvent::Slowdown { node, factor, .. } => {
                if self.live.alive[node as usize] {
                    self.pipelines[node as usize].set_service_multiplier(factor);
                    if self.sink.enabled() {
                        self.sink
                            .emit(now_ms, jaws_obs::Event::NodeSlowdown { node, factor });
                    }
                }
            }
            FailureEvent::Crash { node, survivor, .. } => {
                // FailurePlan::validate rejects plans that crash the same node
                // twice, so this assert cannot fire.
                assert!(self.live.alive[node as usize], "node {node} crashed twice");
                self.crash_node(node, survivor);
            }
        }
    }

    /// Handles one scripted crash: kills the node in the routing overlay,
    /// then re-dispatches everything it held through the survivor — first
    /// declaring *remnant job* projections so the survivor's job-aware gating
    /// knows the incoming ids, then re-enqueueing the dead node's ledger in
    /// ascending part-id order. Future queries of already-declared jobs
    /// (arrived ones, or all of them when jobs were declared up front) whose
    /// atoms now route to the survivor under a part id it was never told
    /// about are declared too, so their later submission finds a known id.
    fn crash_node(&mut self, node: u32, designated: Option<u32>) {
        let (trace, now_ms, sink) = (self.trace, self.now_ms, self.sink);
        let surv = self.live.crash(node, designated);
        // Nodes never crash twice, so the dead count is the 1-based crash
        // ordinal that tags remnant job ids.
        let crashes = self.live.alive.iter().filter(|&&a| !a).count() as u64;
        let moved = self.ledger[node as usize].drain_sorted();
        self.pipelines[node as usize].record_redispatch(moved.len() as u64);
        if sink.enabled() {
            sink.emit(
                now_ms,
                jaws_obs::Event::NodeFailed {
                    node,
                    survivor: surv,
                    redispatched: moved.len() as u64,
                },
            );
        }
        if let Some(dir) = &mut self.replicas {
            // The dead node's replicas leave the routing table; its slab
            // itself re-chains through `LiveRouting` exactly as without
            // replication.
            for m in dir.drop_node(node) {
                if sink.enabled() {
                    sink.emit(
                        now_ms,
                        jaws_obs::Event::ReplicaDropped {
                            morton: m.raw(),
                            node,
                            crashed: true,
                        },
                    );
                }
            }
        }

        // Remnant declarations, grouped per trace job in ascending job index;
        // within a job, queries stay in sequence order (ties on the same
        // query — several re-dispatched parts of one query — break by part
        // id).
        let mut remnants: BTreeMap<usize, Vec<(usize, Query)>> = BTreeMap::new();
        for part in &moved {
            let QueryState {
                job: ji, index: qi, ..
            } = self.per_query[&orig_id(part.id)];
            remnants.entry(ji).or_default().push((qi, part.clone()));
        }
        let declared = &mut self.declared[surv as usize];
        let per_query = &self.per_query;
        for (ji, job) in trace.jobs.iter().enumerate() {
            if self.declare_on_arrival && !self.arrived[ji] {
                // Unarrived jobs project through the post-crash routing at
                // their arrival; nothing to declare early. Jobs declared up
                // front are never projected again, so every one of them
                // needs its remnant now.
                continue;
            }
            // Future queries only (a submitted one is queued or complete),
            // and only those the survivor's own projection did not cover;
            // they share one buffer per remnant job.
            let future = job.queries.iter().enumerate().filter(|(_, q)| {
                per_query[&q.id].submit_ms.is_none() && !declared.contains(&part_id(q.id, surv))
            });
            self.live.project_queries(
                future,
                surv,
                &mut self.scratch.projected_atoms,
                |qi, part| remnants.entry(ji).or_default().push((qi, part)),
            );
        }
        let survivor = &mut self.pipelines[surv as usize];
        for (ji, mut parts) in remnants {
            parts.sort_by_key(|(qi, part)| (*qi, part.id));
            let job = &trace.jobs[ji];
            debug_assert!(
                job.id < (1 << REMNANT_JOB_BITS),
                "trace job id exceeds the remnant tag budget"
            );
            let remnant = Job {
                // Tagged with the crash ordinal: distinct from the trace id
                // and from remnants of earlier crashes.
                id: (crashes << REMNANT_JOB_BITS) | job.id,
                user: job.user,
                kind: job.kind,
                campaign: job.campaign,
                queries: parts.into_iter().map(|(_, q)| q).collect(),
                arrival_ms: job.arrival_ms,
                think_ms: job.think_ms,
            };
            declared.extend(remnant.queries.iter().map(|q| q.id));
            survivor.job_declared(&remnant, now_ms);
        }

        // Re-enqueue the dead node's ledger through the survivor's scheduler:
        // recovered work re-enters the utility ranking, it does not jump the
        // queue. The parts move to the survivor's ledger with the work.
        let ledger = &mut self.ledger[surv as usize];
        for part in moved {
            if sink.enabled() {
                sink.emit(
                    now_ms,
                    jaws_obs::Event::PartRedispatched {
                        part: part.id,
                        from: node,
                        to: surv,
                    },
                );
            }
            survivor.query_available(&part, now_ms);
            ledger.insert(part);
        }
    }

    /// Conservation of an untruncated run: every trace query was submitted
    /// and completed exactly once. Submission is checked when it happens, a
    /// surplus completion fails the barrier's decrement, and a query logs its
    /// response when its last part completes; so once every barrier is down
    /// and the log holds one entry per trace query, each query holds one.
    ///
    /// # Panics
    ///
    /// Panics naming the first query, in trace order, that was never
    /// submitted or still has parts out.
    fn check_conservation(&self) {
        for q in self.trace.jobs.iter().flat_map(|j| j.queries.iter()) {
            let state = &self.per_query[&q.id];
            assert!(
                state.submit_ms.is_some(),
                "query {} was never submitted, yet the run drained untruncated",
                q.id
            );
            assert!(
                state.outstanding == 0,
                "query {} never completed: {} of its parts were lost",
                q.id,
                state.outstanding
            );
        }
        assert_eq!(
            self.totals.response_log.len(),
            self.trace.query_count(),
            "the response log must hold one entry per trace query"
        );
    }

    /// One dispatch round over the live pipelines, in ascending node order:
    /// a free node starts its next batch if work is schedulable; otherwise
    /// it spends the idle capacity on a speculative read, or asks for an
    /// idle re-poll if gated work exists. Dead nodes are skipped.
    fn dispatch_round(&mut self) {
        let now_ms = self.now_ms;
        for (node, p) in self.pipelines.iter_mut().enumerate() {
            if !self.live.alive[node] || p.is_busy() {
                continue;
            }
            let node = node as u32;
            if let Some(batch) = p.next_batch(now_ms) {
                debug_assert!(!batch.is_empty(), "scheduler produced an empty batch");
                let service_ms = p.charge_batch(batch, now_ms);
                self.queue.push(now_ms + service_ms, Event::BatchDone(node));
            } else if let Some(io_ms) = p.try_prefetch(now_ms) {
                // Nothing schedulable: the trajectory predictor had a
                // speculative read for the idle capacity.
                self.queue.push(now_ms + io_ms, Event::PrefetchDone(node));
            } else if p.wants_idle_check() {
                // Gated work exists: poll again soon so the starvation valve
                // can fire even with no other events.
                self.queue
                    .push(now_ms + IDLE_RECHECK_MS, Event::IdleCheck(node));
            }
        }
    }

    /// Closes the run: checks that an untruncated run completed every query,
    /// retires what a truncated run left queued, emits the end-of-run
    /// counters and hands the outcome to the report layer.
    fn finish(self) -> EngineOutcome {
        let now_ms = self.now_ms;
        if !self.totals.truncated {
            self.check_conservation();
        }
        if self.totals.truncated {
            // Queries still queued will never complete; let schedulers that
            // keep per-query bookkeeping (QoS deadlines) retire it instead of
            // leaking it.
            for (node, p) in self.pipelines.iter_mut().enumerate() {
                if self.live.alive[node] {
                    p.retire_pending(now_ms);
                }
            }
        }
        if self.sink.enabled() {
            self.sink.emit(
                now_ms,
                jaws_obs::Event::Counter {
                    name: "engine.queries_completed".to_string(),
                    value: self.totals.response_log.len() as u64,
                },
            );
            self.sink.emit(
                now_ms,
                jaws_obs::Event::Counter {
                    name: "engine.jobs_completed".to_string(),
                    value: self.totals.jobs_completed,
                },
            );
        }
        EngineOutcome {
            totals: self.totals,
            alive: self.live.alive,
            first_failure_ms: self.first_failure_ms,
            replication: self.replicas.map(|dir| dir.summary()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The original heap key: f64 event times under a total order. Kept as
    /// the test oracle for the event queue's pop order.
    #[derive(Debug, PartialEq)]
    struct Key(f64, u64);

    impl Eq for Key {}

    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    /// The original implementation, verbatim: a min-heap of `(time,
    /// insertion id)` keys with payloads in a side map. Pop order is the
    /// specification the event queue must reproduce bit-for-bit.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(Key, u64)>>,
        events: BTreeMap<u64, Event>,
        next_event: u64,
    }

    impl HeapOracle {
        fn push(&mut self, at_ms: f64, ev: Event) {
            let id = self.next_event;
            self.next_event += 1;
            self.events.insert(id, ev);
            self.heap.push(Reverse((Key(at_ms, id), id)));
        }

        fn pop(&mut self) -> Option<(f64, Event)> {
            let Reverse((Key(at, _), id)) = self.heap.pop()?;
            let ev = self.events.remove(&id).expect("event payload");
            Some((at, ev))
        }
    }

    /// Tags pops so sequences can be compared: (time bits, payload tag).
    fn tag(popped: Option<(f64, Event)>) -> Option<(u64, u32)> {
        popped.map(|(at, ev)| match ev {
            Event::IdleCheck(n) => (at.to_bits(), n),
            other => panic!("test events are IdleCheck only, got {other:?}"),
        })
    }

    #[test]
    fn event_queue_pops_nothing_when_empty() {
        let mut q = EventQueue::default();
        assert!(q.pop().is_none());
        q.push(5.0, Event::IdleCheck(0));
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
    }

    #[test]
    fn event_queue_orders_by_time_then_insertion_id() {
        let mut q = EventQueue::default();
        q.push(3.25, Event::IdleCheck(0));
        q.push(1.5, Event::IdleCheck(1));
        q.push(1.5, Event::IdleCheck(2));
        q.push(0.75, Event::IdleCheck(3));
        let order: Vec<u32> = std::iter::from_fn(|| tag(q.pop()).map(|(_, n)| n)).collect();
        assert_eq!(order, vec![3, 1, 2, 0], "ties pop first-pushed-first");
    }

    #[test]
    fn event_queue_interleaves_pushes_between_pops() {
        // The engine's shape: new events land at or after the popped time,
        // including exactly at it.
        let mut q = EventQueue::default();
        let mut oracle = HeapOracle::default();
        for (i, t) in [10.0, 4.5, 4.5, 2_000.0, 9_999.5].iter().enumerate() {
            q.push(*t, Event::IdleCheck(i as u32));
            oracle.push(*t, Event::IdleCheck(i as u32));
        }
        let mut next = 100u32;
        while let Some((at, ev)) = oracle.pop() {
            assert_eq!(tag(Some((at, ev))), tag(q.pop()));
            if next < 106 {
                // Re-arm two follow-ups relative to the popped time.
                for dt in [0.0, 750.25] {
                    q.push(at + dt, Event::IdleCheck(next));
                    oracle.push(at + dt, Event::IdleCheck(next));
                    next += 1;
                }
            }
        }
        assert!(q.pop().is_none());
    }

    proptest! {
        /// Pop order equals the original binary heap's over random event
        /// sequences — quantized times force same-timestamp ties, the far
        /// multiplier spreads times over a wide range, and pops interleave
        /// with pushes.
        #[test]
        fn event_queue_matches_heap_oracle(
            ops in proptest::collection::vec((0u8..2, 0u16..200, 0u8..2), 1..200)
        ) {
            let mut q = EventQueue::default();
            let mut oracle = HeapOracle::default();
            let mut n = 0u32;
            for (is_pop, t_raw, far) in ops {
                let (is_pop, far) = (is_pop == 1, far == 1);
                if is_pop {
                    prop_assert_eq!(tag(q.pop()), tag(oracle.pop()));
                } else {
                    let t = if far {
                        t_raw as f64 * 97.5
                    } else {
                        (t_raw % 24) as f64 * 0.5
                    };
                    q.push(t, Event::IdleCheck(n));
                    oracle.push(t, Event::IdleCheck(n));
                    n += 1;
                }
            }
            loop {
                let (a, b) = (tag(q.pop()), tag(oracle.pop()));
                let done = b.is_none();
                prop_assert_eq!(a, b);
                if done {
                    break;
                }
            }
        }
    }

    #[test]
    fn part_ids_round_trip() {
        for q in [1u64, 42, 1 << 40, PART_QUERY_MASK] {
            for node in [0u32, 3, 15, MAX_NODE_INDEX] {
                let pid = part_id(q, node);
                assert_eq!(orig_id(pid), q);
                assert_eq!(part_node(pid), node);
            }
        }
        assert_ne!(part_id(7, 0), part_id(7, 1), "parts distinct across nodes");
        assert_eq!(part_id(7, 0), 7, "node 0's part ids are the trace ids");
    }

    /// A one-query job whose footprint spans keys 0 and 63.
    fn spanning_job() -> Job {
        Job {
            id: 1,
            user: 0,
            kind: JobKind::Batched,
            campaign: 1,
            queries: Arc::from([Query {
                id: 9,
                user: 0,
                op: jaws_workload::QueryOp::Velocity,
                timestep: 0,
                footprint: Footprint::from_pairs([(MortonKey(0), 5u32), (MortonKey(63), 7)]),
            }]),
            arrival_ms: 0.0,
            think_ms: 0.0,
        }
    }

    #[test]
    fn one_node_slab_routing_is_the_identity() {
        let r = Routing::new(64, 1, ReplicationConfig::disabled());
        assert_eq!(r.node_of(MortonKey(0)), 0);
        assert_eq!(r.node_of(MortonKey(63)), 0);
        assert_eq!(orig_id(part_id(42, 0)), 42);
        let live = LiveRouting::new(r);
        let job = spanning_job();
        let (mut staged, mut atoms) = (Vec::new(), Vec::new());
        assert!(
            matches!(live.project_job(&job, 0, &mut staged, &mut atoms), Some(Cow::Borrowed(j)) if std::ptr::eq(j, &job)),
            "one node's projection is the job itself"
        );
    }

    #[test]
    fn node_0_borrows_the_job_once_it_owns_every_slab() {
        let mut live = LiveRouting::new(Routing::new(64, 2, ReplicationConfig::disabled()));
        let job = spanning_job();
        let (mut staged, mut atoms) = (Vec::new(), Vec::new());
        match live.project_job(&job, 0, &mut staged, &mut atoms) {
            Some(Cow::Owned(p)) => {
                assert_eq!(p.queries[0].footprint.atoms(), [(MortonKey(0), 5)]);
                assert!(
                    staged.is_empty() && atoms.is_empty(),
                    "staged queries and atoms moved into the projection"
                );
            }
            other => panic!("node 0 owns half the grid, got {other:?}"),
        }
        live.crash(1, Some(0));
        assert!(matches!(
            live.project_job(&job, 0, &mut staged, &mut atoms),
            Some(Cow::Borrowed(_))
        ));
    }

    fn query(id: QueryId, atoms: &[(u64, u32)]) -> Query {
        Query {
            id,
            user: 0,
            op: jaws_workload::QueryOp::Velocity,
            timestep: 0,
            footprint: Footprint::from_pairs(atoms.iter().map(|&(m, c)| (MortonKey(m), c))),
        }
    }

    fn buffer_ptr(fp: &Footprint) -> *const (MortonKey, u32) {
        Arc::as_ptr(fp.buffer()).cast()
    }

    #[test]
    fn a_projection_views_one_buffer_per_node() {
        let live = LiveRouting::new(Routing::new(64, 2, ReplicationConfig::disabled()));
        let job = Job {
            queries: Arc::from([
                query(1, &[(0, 1), (40, 2)]),
                query(2, &[(5, 1), (10, 4)]),
                query(3, &[(50, 3)]),
            ]),
            ..spanning_job()
        };
        let (mut staged, mut atoms) = (Vec::new(), Vec::new());
        let expected = [
            vec![(1, vec![(0, 1)]), (2, vec![(5, 1), (10, 4)])],
            vec![
                (part_id(1, 1), vec![(40, 2)]),
                (part_id(3, 1), vec![(50, 3)]),
            ],
        ];
        for (node, want) in expected.into_iter().enumerate() {
            let Some(Cow::Owned(p)) = live.project_job(&job, node as u32, &mut staged, &mut atoms)
            else {
                panic!("node {node} owns part of the job");
            };
            let got: Vec<(QueryId, Vec<(u64, u32)>)> = p
                .queries
                .iter()
                .map(|q| {
                    let atoms = q.footprint.atoms().iter().map(|&(m, c)| (m.raw(), c));
                    (q.id, atoms.collect())
                })
                .collect();
            assert_eq!(got, want, "node {node}'s projection");
            let buf = p.queries[0].footprint.buffer();
            assert!(
                p.queries
                    .iter()
                    .all(|q| Arc::ptr_eq(q.footprint.buffer(), buf)),
                "node {node}: every projected query views one buffer"
            );
            let projected: usize = want.iter().map(|(_, a)| a.len()).sum();
            assert_eq!(
                buf.len(),
                projected,
                "node {node}: the buffer is exact-sized"
            );
        }
    }

    #[test]
    fn footprint_pool_hands_out_only_buffers_that_fit() {
        let run = |n: u64| -> Vec<(MortonKey, u32)> { (0..n).map(|m| (MortonKey(m), 1)).collect() };
        let mut pool = FootprintPool::default();
        let small = pool.footprint(&run(3));
        assert_eq!(small.buffer().len(), 3, "fresh buffers are sized exactly");
        let big = pool.footprint(&run(9));
        let (small_ptr, big_ptr) = (buffer_ptr(&small), buffer_ptr(&big));
        pool.give(small);
        pool.give(big);
        let again = pool.footprint(&run(4));
        assert_eq!(buffer_ptr(&again), big_ptr, "a 3-slot buffer cannot hold 4");
        assert_eq!(
            again.atoms(),
            run(4),
            "a pooled buffer views what it was given"
        );
        pool.give(again);
        let tight = pool.footprint(&run(2));
        assert_eq!(buffer_ptr(&tight), small_ptr, "the tightest fit first");
        let exact = pool.footprint(&run(9));
        assert_eq!(buffer_ptr(&exact), big_ptr, "an exact fit is reused");
        assert_eq!(
            pool.footprint(&run(5)).buffer().len(),
            5,
            "an empty pool allocates"
        );
        // Bins past the first bitset word.
        let wide = pool.footprint(&run(130));
        let wide_ptr = buffer_ptr(&wide);
        pool.give(wide);
        let found = pool.footprint(&run(70));
        assert_eq!(buffer_ptr(&found), wide_ptr, "found two words up");
        assert_eq!(
            pool.footprint(&run(131)).buffer().len(),
            131,
            "nothing holds 131"
        );
        // A buffer comes back only once nobody else holds it.
        let held = found.clone();
        pool.give(found);
        assert!(
            pool.first_stocked(0).is_none(),
            "a shared buffer is not pooled"
        );
        pool.give(held);
        assert_eq!(pool.first_stocked(0), Some(130), "the last holder pools it");
        assert_eq!(buffer_ptr(&pool.footprint(&run(1))), wide_ptr);
    }

    #[test]
    fn slab_routing_assigns_contiguous_ranges() {
        let r = Routing::new(64, 4, ReplicationConfig::disabled());
        assert_eq!(r.node_of(MortonKey(0)), 0);
        assert_eq!(r.node_of(MortonKey(15)), 0);
        assert_eq!(r.node_of(MortonKey(16)), 1);
        assert_eq!(r.node_of(MortonKey(63)), 3);
    }

    #[test]
    fn slab_routing_clamps_the_short_remainder_onto_the_last_node() {
        // 64 atoms over 3 nodes: ceil slabs of 22 → nodes own 22/22/20.
        let r = Routing::new(64, 3, ReplicationConfig::disabled());
        assert_eq!(r.slab_size, 22);
        assert_eq!(r.node_of(MortonKey(21)), 0);
        assert_eq!(r.node_of(MortonKey(22)), 1);
        assert_eq!(r.node_of(MortonKey(43)), 1);
        assert_eq!(r.node_of(MortonKey(44)), 2);
        assert_eq!(r.node_of(MortonKey(63)), 2);
        // More nodes than slabs ever fill: everything clamps in range.
        let r = Routing::new(2, 2, ReplicationConfig::disabled());
        assert_eq!(r.node_of(MortonKey(500)), 1);
    }

    #[test]
    fn owned_atoms_count_the_keys_node_of_routes() {
        // Node counts that do not divide the key range, down to slabs that
        // run out before the last node.
        for (per_ts, nodes) in [
            (64, 3),
            (64, 9),
            (64, 15),
            (27, 4),
            (100, 7),
            (8, 16),
            (1, 2),
        ] {
            let r = Routing::new(per_ts, nodes, ReplicationConfig::disabled());
            let mut counts = vec![0u64; nodes as usize];
            for m in 0..per_ts {
                counts[r.node_of(MortonKey(m)) as usize] += 1;
            }
            let owned: Vec<u64> = (0..nodes).map(|n| r.owned_atoms(n)).collect();
            assert_eq!(owned, counts, "{per_ts} keys over {nodes} nodes");
        }
    }

    #[test]
    fn live_routing_redirects_a_dead_slab_to_the_survivor() {
        let mut live = LiveRouting::new(Routing::new(64, 4, ReplicationConfig::disabled()));
        assert_eq!(live.node_of(MortonKey(20)), 1);
        let surv = live.crash(1, Some(3));
        assert_eq!(surv, 3);
        assert_eq!(live.node_of(MortonKey(20)), 3, "slab 1 must move to 3");
        assert_eq!(live.node_of(MortonKey(0)), 0, "other slabs untouched");
        assert!(!live.alive[1]);
    }

    #[test]
    fn live_routing_chains_redirects_across_repeated_crashes() {
        let mut live = LiveRouting::new(Routing::new(64, 4, ReplicationConfig::disabled()));
        live.crash(1, Some(2));
        // Node 2 now owns slabs 1 and 2; when it dies both must land on the
        // next survivor (designated dead ⇒ lowest live fallback).
        let surv = live.crash(2, Some(1));
        assert_eq!(
            surv, 0,
            "dead designated survivor falls back to lowest live"
        );
        assert_eq!(live.node_of(MortonKey(20)), 0);
        assert_eq!(live.node_of(MortonKey(40)), 0);
        assert_eq!(live.node_of(MortonKey(60)), 3);
    }
}
