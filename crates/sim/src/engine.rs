//! The discrete-event core behind [`crate::Executor`] and
//! [`crate::ClusterExecutor`].
//!
//! One route serves every deployment shape: a single server is a cluster of
//! one node owning the one Morton slab (§V-C runs one JAWS instance per
//! slab). This module owns all of the replay:
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
//!   ordered think-time chains, enforces the cross-node completion barrier
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
//! `BTreeSet`, so iteration order follows the keys; the per-query table and
//! the failure plan's part definitions are only looked up by id, so they are
//! [`FastMap`]s (lint rule D001 would flag any iteration over them).
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

use crate::failure::{FailureEvent, FailurePlan};
use crate::node::NodePipeline;
use crate::replication::{ReplicaAction, ReplicaDirectory, ReplicationConfig, ReplicationSummary};
use crate::report::RunTotals;
use crate::SimConfig;
use jaws_arena::Lanes;
use jaws_morton::{FastMap, MortonKey};
use jaws_obs::ObsSink;
use jaws_workload::{Footprint, Job, JobKind, Query, QueryId, Trace};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

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

/// Just-in-time replica declarations (a diverted part arriving at a node the
/// job was never projected onto) use synthetic single-query job ids in their
/// own namespace: the top bit set over a run-monotone ordinal. Remnant ids
/// tag crash ordinals into bits 48.. and crash counts are bounded by the node
/// count (far below 2¹⁵), so the namespaces never collide.
const REPLICA_DECL_BIT: u64 = 1 << 63;

/// How submitted queries reach the node pipelines: the §V-C partition of the
/// atom grid into contiguous Morton slabs of `slab_size` atoms, one per
/// node. Each query fans out into per-node part queries (packed ids) and
/// completes only when every part has. One node owns the one slab, and its
/// parts are the queries themselves. Built by [`Routing::new`], which keeps
/// `nodes ≥ 1` and the slab size consistent with it.
#[derive(Debug, Clone, Copy)]
pub struct Routing {
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
    /// Panics if `nodes` is zero.
    pub fn new(atoms_per_timestep: u64, nodes: u32, replication: ReplicationConfig) -> Self {
        assert!(nodes >= 1, "need at least one node");
        Routing {
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
        let fallback = || {
            self.alive
                .iter()
                .position(|&a| a)
                // lint: invariant — FailurePlan::validate rejects plans that
                // crash every node, so a live node always remains
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

    /// Projects a job onto one node for declaration: each query keeps only
    /// the footprint atoms the node owns (under its part id); queries with
    /// empty projections are dropped, preserving order. `None` when the node
    /// owns nothing of the job. When node 0 owns every slab its projection
    /// is the job itself, borrowed.
    fn project_job<'j>(&self, job: &'j Job, node: u32) -> Option<Cow<'j, Job>> {
        if node == 0 && self.node0_owns_all() {
            return Some(Cow::Borrowed(job));
        }
        let queries: Vec<Query> = job
            .queries
            .iter()
            .filter_map(|q| {
                let atoms: Vec<(MortonKey, u32)> = q
                    .footprint
                    .atoms
                    .iter()
                    .copied()
                    .filter(|&(m, _)| self.node_of(m) == node)
                    .collect();
                if atoms.is_empty() {
                    return None;
                }
                Some(Query {
                    id: part_id(q.id, node),
                    user: q.user,
                    op: q.op,
                    timestep: q.timestep,
                    footprint: Footprint::from_pairs(atoms),
                })
            })
            .collect();
        if queries.is_empty() {
            return None;
        }
        Some(Cow::Owned(Job {
            id: job.id,
            user: job.user,
            kind: job.kind,
            campaign: job.campaign,
            queries,
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
    /// A node finished a batch: (node, completed part ids).
    BatchDone(u32, Vec<QueryId>),
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
    // lint: hotpath
    fn push(&mut self, at_ms: f64, ev: Event) {
        let id = self.next_event;
        self.next_event += 1;
        self.heap.push(Pending { at_ms, id, ev });
        EV_PUSHES.fetch_add(1, AtomicOrdering::Relaxed);
    }

    // lint: hotpath
    fn pop(&mut self) -> Option<(f64, Event)> {
        let Pending { at_ms, ev, .. } = self.heap.pop()?;
        EV_POPS.fetch_add(1, AtomicOrdering::Relaxed);
        Some((at_ms, ev))
    }
}

/// Per-node failure outcome of one run, consumed by the cluster report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeStatus {
    /// True once a scripted crash killed the node.
    pub failed: bool,
    /// Parts re-dispatched *off* this node when it crashed (in-flight plus
    /// queued at crash time).
    pub redispatched_parts: u64,
    /// Service-time multiplier in force at the end of the run (1.0 = never
    /// degraded).
    pub slowdown: f64,
}

impl Default for NodeStatus {
    fn default() -> Self {
        NodeStatus {
            failed: false,
            redispatched_parts: 0,
            slowdown: 1.0,
        }
    }
}

/// Everything a run produced that the report layer needs, plus the per-query
/// completion log in completion order.
pub(crate) struct EngineOutcome {
    /// Totals feeding [`crate::report`] assembly.
    pub totals: RunTotals,
    /// `(trace query id, response ms)` in completion order.
    pub response_log: Vec<(QueryId, f64)>,
    /// Per-node failure outcomes (all-default when the plan was empty).
    pub node_status: Vec<NodeStatus>,
    /// Time of the first scripted failure that actually fired, if any.
    pub first_failure_ms: Option<f64>,
    /// Replica-overlay summary; `None` unless replication was enabled.
    pub replication: Option<ReplicationSummary>,
}

/// Bookkeeping that exists only while a non-empty [`FailurePlan`] is in
/// force; a plain replay allocates none of it and takes the exact pre-failure
/// code paths.
struct FailureState {
    /// Per node: part ids submitted to it and not yet completed (in-flight
    /// batch parts included — their `BatchDone` hasn't fired yet).
    pending: Vec<BTreeSet<QueryId>>,
    /// Every outstanding part as submitted (footprint included), so a crash
    /// can re-enqueue it verbatim through the survivor.
    defs: FastMap<QueryId, Query>,
    /// Per trace job: whether its arrival event has fired.
    arrived: Vec<bool>,
    /// Crashes handled so far (1-based ordinal tags remnant job ids).
    crashes: u64,
}

/// Bookkeeping that exists only under an enabled replica overlay;
/// static-slab replays allocate none of it and take the exact
/// pre-replication code paths.
struct ReplicationState {
    /// Histogram, replica table and transition counters.
    dir: ReplicaDirectory,
    /// Per node: parts submitted and not yet completed — the integer load
    /// signal that replica placement and routing minimize over.
    node_load: Vec<u64>,
    /// Monotone ordinal for just-in-time declaration job ids.
    decls: u64,
}

/// Reusable per-submit scratch for the engine's fan-out path. One query's
/// footprint is scattered into per-node lanes, built into part queries, and
/// the lane buffers are recovered after delivery — so a warmed-up submit
/// allocates nothing on the static-slab route and only the per-part `Query`
/// clones demanded by declarations under the replica overlay.
struct EngineScratch {
    /// Per-node `(morton, count)` buckets for the footprint scatter.
    lanes: Lanes<(MortonKey, u32)>,
    /// Replica overlay: which nodes statically own atoms of the current
    /// query (withdrawal bookkeeping). Reset per submit.
    owner_flag: Vec<bool>,
    /// Replica overlay: promote/demote/route transitions of the current
    /// query. Cleared per submit.
    actions: Vec<ReplicaAction>,
    /// Replica overlay: built parts awaiting delivery — the trace event
    /// order requires every just-in-time declaration to precede the first
    /// delivery, so parts are staged here between the two passes.
    parts: Vec<(u32, Query)>,
}

impl EngineScratch {
    fn new(nodes: usize) -> Self {
        EngineScratch {
            lanes: Lanes::new(nodes),
            owner_flag: vec![false; nodes],
            actions: Vec::new(),
            parts: Vec::new(),
        }
    }
}

/// Panics unless `trace` fits a node's database geometry: no more timesteps
/// than the database holds, and the same atom grid. The engine checks every
/// node once, before any event fires, for both executors.
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
    cfg: &'a SimConfig,
    trace: &'a Trace,
    failures: &'a FailurePlan,
    /// Receives the engine-level lifecycle events (job arrival, query
    /// submission, part routing, completion, failures, end-of-run counters);
    /// per-node events are emitted by the pipelines through their own sinks.
    sink: &'a ObsSink,
    /// Whether each trace job is declared to the schedulers at its arrival
    /// (false after [`crate::Executor::declare_jobs`] declared up front).
    declare_on_arrival: bool,
    live: LiveRouting,
    /// Per trace query id: where it sits in the trace, when it was
    /// submitted and how many of its parts are still out. Only looked up.
    per_query: FastMap<QueryId, QueryState>,
    totals: RunTotals,
    response_log: Vec<(QueryId, f64)>,
    remaining_per_job: Vec<usize>,
    now_ms: f64,
    queue: EventQueue,
    node_status: Vec<NodeStatus>,
    first_failure_ms: Option<f64>,
    /// Per node: part ids its scheduler has been told about — arrival
    /// projections, crash remnants and just-in-time replica declarations,
    /// minus withdrawn ids. Empty unless a failure plan or the replica
    /// overlay needs the membership answers.
    declared: Vec<BTreeSet<QueryId>>,
    fstate: Option<FailureState>,
    rstate: Option<ReplicationState>,
    scratch: EngineScratch,
}

impl<'a> Engine<'a> {
    /// Replays `trace` against `pipelines` under `routing` until the trace
    /// drains or the simulated-time cap fires.
    ///
    /// `failures` scripts node crashes and slowdowns (validated against the
    /// node count by the caller).
    ///
    /// # Panics
    ///
    /// Panics if the trace does not fit the database geometry, if a query id
    /// exceeds the [`PART_QUERY_BITS`] budget, or if the pipeline count
    /// differs from `routing.nodes`.
    pub(crate) fn run(
        pipelines: &'a mut [NodePipeline],
        routing: Routing,
        cfg: &'a SimConfig,
        trace: &'a Trace,
        declare_on_arrival: bool,
        failures: &'a FailurePlan,
        sink: &'a ObsSink,
    ) -> EngineOutcome {
        let nodes = pipelines.len();
        assert_eq!(nodes, routing.nodes as usize, "one pipeline per node");
        for p in pipelines.iter() {
            check_trace(trace, p.db().config());
        }
        let mut per_query =
            FastMap::with_capacity_and_hasher(trace.query_count(), Default::default());
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
        let first_arrival = trace.jobs.first().map_or(0.0, |j| j.arrival_ms);
        let replication = routing.replication;
        let mut e = Engine {
            cfg,
            trace,
            failures,
            sink,
            declare_on_arrival,
            live: LiveRouting::new(routing),
            per_query,
            totals: RunTotals {
                responses: Vec::with_capacity(trace.query_count()),
                jobs_completed: 0,
                first_arrival,
                last_completion: first_arrival,
                truncated: false,
            },
            response_log: Vec::new(),
            remaining_per_job: trace.jobs.iter().map(|j| j.queries.len()).collect(),
            now_ms: 0.0,
            queue: EventQueue::default(),
            node_status: vec![NodeStatus::default(); nodes],
            first_failure_ms: None,
            // Failure and replication bookkeeping is allocated only when in
            // force, so a plain replay pays nothing (event ids included: an
            // empty plan pushes no events).
            declared: if failures.is_empty() && !replication.enabled {
                Vec::new()
            } else {
                vec![BTreeSet::new(); nodes]
            },
            fstate: (!failures.is_empty()).then(|| FailureState {
                pending: vec![BTreeSet::new(); nodes],
                defs: FastMap::default(),
                arrived: vec![false; trace.jobs.len()],
                crashes: 0,
            }),
            rstate: replication.enabled.then(|| ReplicationState {
                dir: ReplicaDirectory::new(replication),
                node_load: vec![0; nodes],
                decls: 0,
            }),
            // Reusable fan-out scratch: allocated once per run, cleared per
            // event — the per-event hot path allocates nothing after warm-up.
            scratch: EngineScratch::new(nodes),
            pipelines,
        };
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
                Event::BatchDone(node, parts) => {
                    if !e.live.alive[node as usize] {
                        // The node died mid-batch: its completion never
                        // happens and these parts were re-dispatched at
                        // crash time. Nothing changed, so no dispatch round.
                        continue;
                    }
                    e.batch_done(node, parts);
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
    /// declarations were overridden), then start its client loop.
    fn job_arrival(&mut self, ji: usize) {
        let (trace, now_ms) = (self.trace, self.now_ms);
        let job = &trace.jobs[ji];
        if let Some(fs) = &mut self.fstate {
            fs.arrived[ji] = true;
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
            for (node, p) in self.pipelines.iter_mut().enumerate() {
                if !self.live.alive[node] {
                    continue;
                }
                if let Some(pj) = self.live.project_job(job, node as u32) {
                    if let Some(d) = self.declared.get_mut(node) {
                        d.extend(pj.queries.iter().map(|q| q.id));
                    }
                    p.job_declared(pj.as_ref(), now_ms);
                }
            }
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

    /// Submits query (ji, qi): records the submission time and fans the query
    /// out to its owning pipelines; `observe` feeds ordered follow-ups to the
    /// trajectory predictors. The static fan-out scatters into the reusable
    /// scratch lanes and recovers each part's footprint buffer after
    /// delivery, so a warmed-up submit performs no allocation.
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
                    atoms: q.footprint.atoms.len() as u32,
                    positions: q.positions(),
                },
            );
        }
        // No part completes inside this call, so the barrier can be armed
        // after the fan-out.
        let parts = if self.rstate.is_some() {
            self.replicated_fan_out(q, job, observe)
        } else {
            for &(m, c) in &q.footprint.atoms {
                self.scratch
                    .lanes
                    .push(self.live.node_of(m) as usize, (m, c));
            }
            let mut parts = 0;
            for node in 0..self.scratch.lanes.len() {
                if self.scratch.lanes.lane_len(node) == 0 {
                    continue;
                }
                parts += 1;
                let atoms = self.scratch.lanes.take_lane(node);
                let mut part = Query {
                    id: part_id(q.id, node as u32),
                    user: q.user,
                    op: q.op,
                    timestep: q.timestep,
                    footprint: Footprint::from_pairs_in_place(atoms),
                };
                self.deliver_part(node as u32, &part, q.id, observe, job.id);
                self.scratch
                    .lanes
                    .restore(node, std::mem::take(&mut part.footprint.atoms));
            }
            parts
        };
        // lint: invariant — `run` registered every trace query
        let state = self.per_query.get_mut(&q.id).expect("trace query");
        assert!(state.submit_ms.is_none(), "query {} submitted twice", q.id);
        state.submit_ms = Some(now_ms);
        state.outstanding = parts;
    }

    /// Hands one part query to its owning pipeline: emits the routing record,
    /// registers failure-plan and replica-load bookkeeping, feeds the
    /// trajectory predictor (for ordered follow-ups) and makes the part
    /// available to the node's scheduler.
    fn deliver_part(&mut self, node: u32, part: &Query, query: QueryId, observe: bool, job: u64) {
        if self.sink.enabled() {
            self.sink.emit(
                self.now_ms,
                jaws_obs::Event::PartRouted {
                    query,
                    part: part.id,
                    node,
                    atoms: part.footprint.atoms.len() as u32,
                },
            );
        }
        if let Some(fs) = &mut self.fstate {
            fs.pending[node as usize].insert(part.id);
            fs.defs.insert(part.id, part.clone());
        }
        if let Some(rs) = &mut self.rstate {
            rs.node_load[node as usize] += 1;
        }
        let p = &mut self.pipelines[node as usize];
        if observe {
            p.observe(job, part);
        }
        p.query_available(part, self.now_ms);
    }

    /// Computes the per-node parts of `q` under the replica overlay: records
    /// each footprint atom in the access histogram, applies the
    /// promotion/demotion transitions the refreshed windows trigger, routes
    /// every atom to the least-loaded live candidate (slab owner or replica),
    /// and regroups the atoms into per-target parts. Two
    /// declaration-consistency duties ride along, in deterministic order:
    ///
    /// * **withdrawals** — a statically-owning node whose every atom diverted
    ///   away holds a declared part id that will never arrive; job-aware
    ///   gating would stall its partners until the gate timeout, so the id is
    ///   withdrawn (`Scheduler::query_withdrawn` via the pipeline);
    /// * **just-in-time declarations** — a replica host outside the job's
    ///   static projection has never heard of the incoming part id (JAWS₂
    ///   gating requires every available query to be declared), so a
    ///   synthetic single-query job (id namespace [`REPLICA_DECL_BIT`])
    ///   declares it first. Single-query jobs never form gating alignments,
    ///   so the declaration cannot distort schedule quality.
    ///
    /// Returns the number of parts delivered.
    fn replicated_fan_out(&mut self, q: &Query, job: &Job, observe: bool) -> u32 {
        let now_ms = self.now_ms;
        // lint: invariant — submit routes here only while the overlay is on
        let rs = self.rstate.as_mut().expect("replica overlay state");
        self.scratch.actions.clear();
        self.scratch.owner_flag.iter_mut().for_each(|f| *f = false);
        for &(m, c) in &q.footprint.atoms {
            let owner = self.live.node_of(m);
            self.scratch.owner_flag[owner as usize] = true;
            let target = rs.dir.route_atom(
                m,
                owner,
                now_ms,
                &self.live.alive,
                &rs.node_load,
                &mut self.scratch.actions,
            );
            self.scratch.lanes.push(target as usize, (m, c));
        }
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
        // Withdrawals before deliveries, so gating state is settled when the
        // diverted parts arrive.
        for (node, pipeline) in self.pipelines.iter_mut().enumerate() {
            if !self.scratch.owner_flag[node] || self.scratch.lanes.lane_len(node) > 0 {
                continue;
            }
            let pid = part_id(q.id, node as u32);
            if self.declared[node].remove(&pid) {
                pipeline.query_withdrawn(pid, now_ms);
            }
        }
        // Build the parts and run every just-in-time declaration first
        // (ascending node order) — the trace byte-stream pins declarations
        // ahead of the first delivery.
        debug_assert!(self.scratch.parts.is_empty(), "parts scratch left dirty");
        for (node, pipeline) in self.pipelines.iter_mut().enumerate() {
            if self.scratch.lanes.lane_len(node) == 0 {
                continue;
            }
            let atoms = self.scratch.lanes.take_lane(node);
            let part = Query {
                id: part_id(q.id, node as u32),
                user: q.user,
                op: q.op,
                timestep: q.timestep,
                footprint: Footprint::from_pairs_in_place(atoms),
            };
            if self.declared[node].insert(part.id) {
                rs.decls += 1;
                let decl = Job {
                    id: REPLICA_DECL_BIT | rs.decls,
                    user: job.user,
                    kind: job.kind,
                    campaign: job.campaign,
                    queries: vec![part.clone()],
                    arrival_ms: job.arrival_ms,
                    think_ms: job.think_ms,
                };
                pipeline.job_declared(&decl, now_ms);
            }
            self.scratch.parts.push((node as u32, part));
        }
        let delivered = self.scratch.parts.len() as u32;
        // Deliveries in ascending node order; each part's footprint buffer
        // goes back to its lane once the pipeline has taken what it needs.
        let mut parts = std::mem::take(&mut self.scratch.parts);
        for (node, part) in &mut parts {
            self.deliver_part(*node, part, q.id, observe, job.id);
            self.scratch
                .lanes
                .restore(*node as usize, std::mem::take(&mut part.footprint.atoms));
        }
        parts.clear();
        self.scratch.parts = parts;
        delivered
    }

    /// A node finished a batch: complete its parts, and every query whose
    /// last part this was.
    fn batch_done(&mut self, node: u32, completed_parts: Vec<QueryId>) {
        let (trace, now_ms) = (self.trace, self.now_ms);
        let n = node as usize;
        self.pipelines[n].set_idle();
        for pid in completed_parts {
            let qid = orig_id(pid);
            // lint: invariant — schedulers only complete parts the engine
            // handed them, all of trace queries
            let state = self
                .per_query
                .get_mut(&qid)
                .expect("completed a trace query");
            // lint: invariant — schedulers only complete queries previously
            // handed to query_available
            let submitted = state.submit_ms.expect("completed query was submitted");
            // lint: invariant — submit armed the barrier with one count per
            // delivered part
            state.outstanding = state
                .outstanding
                .checked_sub(1)
                .unwrap_or_else(|| panic!("query {qid} completed more parts than it has"));
            let (left, ji, qi) = (state.outstanding, state.job, state.index);
            let rt = now_ms - submitted;
            self.pipelines[n].complete_part(pid, rt, now_ms);
            if let Some(fs) = &mut self.fstate {
                fs.pending[n].remove(&pid);
                fs.defs.remove(&pid);
            }
            if let Some(rs) = &mut self.rstate {
                rs.node_load[n] = rs.node_load[n].saturating_sub(1);
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
            self.totals.responses.push(rt);
            self.response_log.push((qid, rt));
            self.totals.last_completion = now_ms;
            let job = &trace.jobs[ji];
            self.remaining_per_job[ji] -= 1;
            if self.remaining_per_job[ji] == 0 {
                self.totals.jobs_completed += 1;
            }
            if job.kind == JobKind::Ordered && qi + 1 < job.queries.len() {
                self.queue
                    .push(now_ms + job.think_ms, Event::QuerySubmit(ji, qi + 1));
            }
        }
    }

    /// Scripted failure event `i` fired.
    fn failure(&mut self, i: usize) {
        let now_ms = self.now_ms;
        self.first_failure_ms.get_or_insert(now_ms);
        match self.failures.events()[i] {
            FailureEvent::Slowdown { node, factor, .. } => {
                if self.live.alive[node as usize] {
                    self.pipelines[node as usize].set_service_multiplier(factor);
                    self.node_status[node as usize].slowdown = factor;
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
    /// knows the incoming ids, then re-enqueueing the pending parts in
    /// ascending part-id order. Future queries of already-arrived jobs whose
    /// atoms now route to the survivor under a part id it was never told
    /// about are declared too, so their later submission finds a known id.
    fn crash_node(&mut self, node: u32, designated: Option<u32>) {
        let (trace, now_ms, sink) = (self.trace, self.now_ms, self.sink);
        // lint: invariant — a crash event exists only in a non-empty plan,
        // and fstate is Some whenever the plan is non-empty
        let fs = self.fstate.as_mut().expect("failure state exists");
        let surv = self.live.crash(node, designated);
        fs.crashes += 1;
        let moved = std::mem::take(&mut fs.pending[node as usize]);
        self.node_status[node as usize].failed = true;
        self.node_status[node as usize].redispatched_parts = moved.len() as u64;
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
        if let Some(rs) = &mut self.rstate {
            // The dead node's replicas leave the routing table (its slab
            // itself re-chains through `LiveRouting` exactly as without
            // replication), and the load it carried moves to the survivor
            // along with the parts.
            for m in rs.dir.drop_node(node) {
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
            let moved_load = std::mem::take(&mut rs.node_load[node as usize]);
            debug_assert_eq!(moved_load, moved.len() as u64, "load tracks pending");
            rs.node_load[surv as usize] += moved_load;
        }

        // Remnant declarations, grouped per trace job in ascending job index;
        // within a job, queries stay in sequence order (ties on the same
        // query — several re-dispatched parts of one query — break by part
        // id).
        let mut remnants: BTreeMap<usize, Vec<(usize, QueryId, Query)>> = BTreeMap::new();
        for &pid in &moved {
            let QueryState {
                job: ji, index: qi, ..
            } = self.per_query[&orig_id(pid)];
            // lint: invariant — every pending part stored its definition at
            // submission time
            let def = fs.defs.get(&pid).expect("pending part has a definition");
            remnants.entry(ji).or_default().push((qi, pid, def.clone()));
        }
        let declared = &mut self.declared[surv as usize];
        for (ji, job) in trace.jobs.iter().enumerate() {
            if !fs.arrived[ji] {
                // Unarrived jobs project through the post-crash routing at
                // their arrival; nothing to declare early.
                continue;
            }
            for (qi, q) in job.queries.iter().enumerate() {
                if self.per_query[&q.id].submit_ms.is_some() {
                    continue; // submitted (or already complete): not a future query
                }
                let atoms: Vec<(MortonKey, u32)> = q
                    .footprint
                    .atoms
                    .iter()
                    .copied()
                    .filter(|&(m, _)| self.live.node_of(m) == surv)
                    .collect();
                if atoms.is_empty() {
                    continue;
                }
                let pid = part_id(q.id, surv);
                if declared.contains(&pid) {
                    continue; // the survivor's own projection already covers it
                }
                remnants.entry(ji).or_default().push((
                    qi,
                    pid,
                    Query {
                        id: pid,
                        user: q.user,
                        op: q.op,
                        timestep: q.timestep,
                        footprint: Footprint::from_pairs(atoms),
                    },
                ));
            }
        }
        let survivor = &mut self.pipelines[surv as usize];
        for (ji, mut parts) in remnants {
            parts.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            let job = &trace.jobs[ji];
            debug_assert!(
                job.id < (1 << REMNANT_JOB_BITS),
                "trace job id exceeds the remnant tag budget"
            );
            let remnant = Job {
                // Tagged with the crash ordinal: distinct from the trace id
                // and from remnants of earlier crashes.
                id: (fs.crashes << REMNANT_JOB_BITS) | job.id,
                user: job.user,
                kind: job.kind,
                campaign: job.campaign,
                queries: parts.into_iter().map(|(_, _, q)| q).collect(),
                arrival_ms: job.arrival_ms,
                think_ms: job.think_ms,
            };
            declared.extend(remnant.queries.iter().map(|q| q.id));
            survivor.job_declared(&remnant, now_ms);
        }

        // Re-enqueue the dead node's pending parts through the survivor's
        // scheduler: recovered work re-enters the utility ranking, it does
        // not jump the queue.
        for &pid in &moved {
            // lint: invariant — every pending part stored its definition at
            // submission time
            let def = fs.defs.get(&pid).expect("pending part has a definition");
            if sink.enabled() {
                sink.emit(
                    now_ms,
                    jaws_obs::Event::PartRedispatched {
                        part: pid,
                        from: node,
                        to: surv,
                    },
                );
            }
            fs.pending[surv as usize].insert(pid);
            survivor.query_available(def, now_ms);
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
        for q in self.trace.jobs.iter().flat_map(|j| &j.queries) {
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
            self.response_log.len(),
            self.trace.query_count(),
            "the response log must hold one entry per trace query"
        );
    }

    /// One dispatch round over the live pipelines, in ascending node order:
    /// a free node starts its next batch if work is schedulable; otherwise
    /// it spends the idle capacity on a speculative read, or asks for an
    /// idle re-poll if gated work exists. Dead nodes are skipped.
    // lint: hotpath
    fn dispatch_round(&mut self) {
        let now_ms = self.now_ms;
        for (node, p) in self.pipelines.iter_mut().enumerate() {
            if !self.live.alive[node] || p.is_busy() {
                continue;
            }
            let node = node as u32;
            if let Some(batch) = p.next_batch(now_ms) {
                debug_assert!(!batch.is_empty(), "scheduler produced an empty batch");
                let service_ms = p.charge_batch(&batch, now_ms);
                self.queue.push(
                    now_ms + service_ms,
                    Event::BatchDone(node, batch.completing_queries),
                );
            } else if let Some(io_ms) = p.try_prefetch(now_ms) {
                // Nothing schedulable: the trajectory predictor had a
                // speculative read for the idle capacity.
                self.queue.push(now_ms + io_ms, Event::PrefetchDone(node));
            } else if p.wants_idle_check() {
                // Gated work exists: poll again soon so the starvation valve
                // can fire even with no other events.
                self.queue
                    .push(now_ms + self.cfg.idle_recheck_ms, Event::IdleCheck(node));
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
                    value: self.totals.responses.len() as u64,
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
            response_log: self.response_log,
            node_status: self.node_status,
            first_failure_ms: self.first_failure_ms,
            replication: self.rstate.map(|rs| rs.dir.summary()),
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
            queries: vec![Query {
                id: 9,
                user: 0,
                op: jaws_workload::QueryOp::Velocity,
                timestep: 0,
                footprint: Footprint::from_pairs([(MortonKey(0), 5u32), (MortonKey(63), 7)]),
            }],
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
        assert!(
            matches!(live.project_job(&job, 0), Some(Cow::Borrowed(j)) if std::ptr::eq(j, &job)),
            "one node's projection is the job itself"
        );
    }

    #[test]
    fn node_0_borrows_the_job_once_it_owns_every_slab() {
        let mut live = LiveRouting::new(Routing::new(64, 2, ReplicationConfig::disabled()));
        let job = spanning_job();
        match live.project_job(&job, 0) {
            Some(Cow::Owned(p)) => assert_eq!(p.queries[0].footprint.atoms.len(), 1),
            other => panic!("node 0 owns half the grid, got {other:?}"),
        }
        live.crash(1, Some(0));
        assert!(matches!(live.project_job(&job, 0), Some(Cow::Borrowed(_))));
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
