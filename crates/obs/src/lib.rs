//! Deterministic, simulated-time structured tracing and metrics (`jaws-obs`).
//!
//! Every component of the reproduction — engine, node pipelines, schedulers,
//! the buffer-cache-backed database — can emit typed [`Event`]s through an
//! [`ObsSink`]. Three invariants make the traces usable as a debugging and
//! regression substrate rather than best-effort logging:
//!
//! 1. **Simulated time only.** Records are stamped exclusively with the
//!    engine's `now_ms`; this crate contains no wall-clock or entropy source
//!    (jaws-lint rule D002 applies to it like any other crate). Two runs with
//!    the same seed therefore produce byte-identical JSONL traces — asserted
//!    by `crates/sim/tests/determinism.rs`.
//! 2. **Zero paid-when-disabled overhead.** The default sink is null: its
//!    [`ObsSink::enabled`] check is an `Option` test, and every emission site
//!    in the stack guards event *construction* behind it, so a run with no
//!    recorder wired does no allocation and produces bit-identical reports.
//! 3. **One emitting thread per replay.** Recorders are `Arc<Mutex<_>>`-shared
//!    (`Recorder: Send`) so a sink can be built once and handed to every
//!    component, or to replays running on other threads (`sweep`). Within a
//!    replay the engine dispatches serially, so every record is emitted in
//!    the engine's event order on one thread — byte-identical JSONL at any
//!    `jaws-par` worker count, and no `jaws-par` closure may emit (lint rule
//!    T001).
//!
//! The schema (serialized as one JSON object per line, events externally
//! tagged by variant name) is documented on [`Event`]; `trace_explain` in `crates/bench`
//! turns a JSONL trace into per-query latency breakdowns and per-batch
//! "why chosen" explanations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// What the gating graph decided for a query when it became available (or was
/// forcibly released later by the gate timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GateAction {
    /// Query is job-aware-gated: held back so ordered siblings can align.
    Held,
    /// Query (its own or a sibling's arrival) released it into the workload.
    Released,
    /// The gate timeout expired and the query was released unaligned.
    ForceReleased,
}

/// One scheduling choice inside a [`Event::BatchSelected`] record: an atom and
/// the utility terms that ranked it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtomChoice {
    /// Morton key of the chosen atom within the batch timestep.
    pub morton: u64,
    /// Eq. 1 workload throughput term (benefit/cost, residency-aware).
    pub eq1: f64,
    /// Eq. 2 age-biased utility the batch ranking actually sorted on.
    pub aged: f64,
}

/// A structured trace event covering the full query lifecycle.
///
/// Serialized externally tagged (`{"AtomRead": {...}}`) so a JSONL trace is
/// self-describing line by line. All identifiers are the engine's own: query
/// ids are trace query ids, part ids are the packed `node << 48 | query`
/// sub-query ids of the routing layer (node 0's part ids are the query ids),
/// and atoms are `(timestep, morton)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A job (ordered/batched/single client session) arrived at the engine.
    JobArrival {
        /// Trace job id.
        job: u64,
        /// Job kind name (`ordered`, `batched`, ...).
        kind: String,
        /// Number of queries the job will submit.
        queries: u32,
    },
    /// A query was submitted to the engine (its response clock starts here).
    QuerySubmit {
        /// Trace query id.
        query: u64,
        /// Owning trace job id.
        job: u64,
        /// Timestep the query touches.
        timestep: u32,
        /// Number of atoms in its footprint.
        atoms: u32,
        /// Number of sample positions it evaluates.
        positions: u64,
    },
    /// A query part (sub-query) was routed to a node's slab.
    PartRouted {
        /// Original trace query id.
        query: u64,
        /// Packed part id (`engine::part_id`).
        part: u64,
        /// Destination node index.
        node: u32,
        /// Atoms of the footprint owned by that node.
        atoms: u32,
    },
    /// The gating graph ruled on a query.
    GateDecision {
        /// Query (part) id the decision applies to.
        query: u64,
        /// What was decided.
        action: GateAction,
    },
    /// The scheduler picked a batch; records the Eq. 1 / Eq. 2 terms behind
    /// the choice.
    BatchSelected {
        /// Timestep the batch reads.
        timestep: u32,
        /// Age-bias α in force at selection time.
        alpha: f64,
        /// Per-timestep mean aged utility used as the admission threshold.
        threshold: f64,
        /// The chosen atoms with their utility terms, in execution order.
        atoms: Vec<AtomChoice>,
    },
    /// A deadline-driven (QoS) scheduler assigned a query its deadline.
    DeadlineAssigned {
        /// Query (part) id.
        query: u64,
        /// Estimated service time used to stretch the deadline.
        estimate_ms: f64,
        /// Absolute simulated-time deadline.
        deadline_ms: f64,
    },
    /// A node pipeline executed a batch.
    BatchExecuted {
        /// Part ids whose last atom group completed in this batch.
        parts: Vec<u64>,
        /// Number of atom groups in the batch.
        atom_groups: u32,
        /// Total charged service time (dispatch + I/O + compute).
        service_ms: f64,
        /// I/O component of the service time (cold reads + stencil shells).
        io_ms: f64,
    },
    /// The database served one atom read.
    AtomRead {
        /// Atom timestep.
        timestep: u32,
        /// Atom Morton key.
        morton: u64,
        /// Whether it was a buffer-cache hit.
        hit: bool,
        /// Charged I/O time (0 on a hit).
        io_ms: f64,
    },
    /// The prefetcher issued a speculative read.
    PrefetchIssued {
        /// Predicted atom timestep.
        timestep: u32,
        /// Predicted atom Morton key.
        morton: u64,
    },
    /// The buffer cache evicted an atom; records its URC rank at eviction.
    CacheEvict {
        /// Evicted atom timestep.
        timestep: u32,
        /// Evicted atom Morton key.
        morton: u64,
        /// Mean utility of the atom's timestep at eviction (URC major key).
        timestep_mean: f64,
        /// The atom's own Eq. 1 utility at eviction (URC minor key).
        atom_utility: f64,
    },
    /// A cluster node died under a scripted `jaws_sim::FailurePlan` crash;
    /// its slab was re-routed and its pending parts re-dispatched.
    NodeFailed {
        /// The node that died.
        node: u32,
        /// The node that inherited its Morton slab.
        survivor: u32,
        /// Number of in-flight/queued parts re-dispatched off the dead node.
        redispatched: u64,
    },
    /// One sub-query part was re-enqueued through a survivor's scheduler
    /// after its owner crashed. `trace_explain` uses these to attribute
    /// recovery latency: the part's service restarts from scratch on `to`.
    PartRedispatched {
        /// The packed part id (unchanged across the re-dispatch, so its
        /// original query id still folds out via `engine::orig_id`).
        part: u64,
        /// The node that died holding the part.
        from: u32,
        /// The survivor now scheduling it.
        to: u32,
    },
    /// A node's charged service times are multiplied from this point on (a
    /// scripted straggler).
    NodeSlowdown {
        /// The straggling node.
        node: u32,
        /// The service-time multiplier now in force.
        factor: f64,
    },
    /// Dynamic placement promoted a hot Morton key: a replica of its atoms
    /// now serves queries alongside the static slab owner.
    ReplicaPromoted {
        /// The hot Morton key.
        morton: u64,
        /// The least-loaded live node chosen to host the replica.
        node: u32,
        /// Accesses inside the sliding window that crossed the threshold.
        window_accesses: u32,
    },
    /// A replica left the routing table — demoted because the access
    /// histogram drifted, or dropped because its host node crashed.
    ReplicaDropped {
        /// The Morton key that was replicated.
        morton: u64,
        /// The node that hosted the replica.
        node: u32,
        /// True when a scripted crash (not histogram drift) dropped it.
        crashed: bool,
    },
    /// Dynamic placement diverted a footprint atom of a submitted query from
    /// its slab owner to a less-loaded replica.
    ReplicaRouted {
        /// Original trace query id.
        query: u64,
        /// The diverted Morton key.
        morton: u64,
        /// The static slab owner that would have served it.
        owner: u32,
        /// The replica node actually chosen.
        replica: u32,
    },
    /// The adaptive controller closed a run and (possibly) moved α.
    AlphaAdjusted {
        /// α after the adjustment.
        alpha: f64,
        /// Mean response time of the closed run.
        mean_response_ms: f64,
        /// Throughput sample of the closed run.
        throughput_qps: f64,
    },
    /// A query's last part completed; its response time is final.
    QueryComplete {
        /// Original trace query id.
        query: u64,
        /// Submission-to-completion response time.
        response_ms: f64,
    },
    /// A named monotonic counter snapshot.
    Counter {
        /// Counter name (dotted, e.g. `engine.jobs_completed`).
        name: String,
        /// Counter value.
        value: u64,
    },
    /// One sample of a named distribution.
    Histogram {
        /// Histogram name.
        name: String,
        /// The sample.
        sample: f64,
    },
}

/// A timestamped, optionally node-tagged [`Event`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Simulated engine time of the event, in milliseconds.
    pub t_ms: f64,
    /// Node index for per-node components in a cluster run; `None`
    /// (serialized `null`) for engine-level events and single-node runs.
    pub node: Option<u32>,
    /// The event payload.
    pub event: Event,
}

/// Consumes [`Record`]s. Implementations must not read wall clocks or any
/// other nondeterministic source — a recorder is part of the simulation's
/// deterministic closure. `Send` is required so sinks can be carried across
/// threads (invariant 3 of the module docs).
pub trait Recorder: Send {
    /// Whether this recorder wants events at all. Emission sites skip event
    /// construction entirely when this is false, so a disabled recorder costs
    /// one branch per site.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one record. Called only when [`Recorder::enabled`] is true.
    fn record(&mut self, rec: &Record);
}

/// A recorder that drops everything and reports itself disabled, so emission
/// sites skip event construction. Wiring it must leave reports bit-identical
/// to not wiring anything (asserted in `crates/sim/tests/determinism.rs`).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _rec: &Record) {}
}

/// Keeps the last `capacity` records in memory — a flight recorder for tests
/// and interactive debugging.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    buf: VecDeque<Record>,
}

impl RingRecorder {
    /// Creates a ring holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.buf.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, rec: &Record) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(rec.clone());
    }
}

/// Serializes every record as one JSON line into an in-memory buffer. The
/// caller decides what to do with [`JsonlRecorder::contents`] (write a file,
/// diff against a second run, feed `trace_explain`); the recorder itself
/// performs no I/O so it stays deterministic and sandbox-free.
#[derive(Debug, Default)]
pub struct JsonlRecorder {
    out: String,
}

impl JsonlRecorder {
    /// Creates an empty JSONL buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The JSONL accumulated so far (one record per line, `\n`-terminated).
    pub fn contents(&self) -> &str {
        &self.out
    }

    /// Takes the buffer, leaving the recorder empty.
    pub fn take(&mut self) -> String {
        std::mem::take(&mut self.out)
    }
}

impl Recorder for JsonlRecorder {
    fn record(&mut self, rec: &Record) {
        // Record contains only plain structs/enums of serializable
        // primitives; serde_json cannot fail on them.
        let line = serde_json::to_string(rec).expect("Record serialization is infallible");
        self.out.push_str(&line);
        self.out.push('\n');
    }
}

/// A cheap, cloneable handle to a shared [`Recorder`], tagged with an
/// optional node index. This is what gets threaded through the stack:
/// components store an `ObsSink` (null by default) and call
/// [`ObsSink::emit`] at decision points, guarding any non-trivial event
/// construction behind [`ObsSink::enabled`].
#[derive(Clone, Default)]
pub struct ObsSink {
    inner: Option<Arc<Mutex<dyn Recorder>>>,
    node: Option<u32>,
}

impl fmt::Debug for ObsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsSink")
            .field("wired", &self.inner.is_some())
            .field("node", &self.node)
            .finish()
    }
}

impl ObsSink {
    /// A sink with no recorder: `enabled()` is false, `emit` is a no-op.
    pub fn null() -> Self {
        Self::default()
    }

    /// Wraps a shared recorder.
    pub fn new(recorder: Arc<Mutex<dyn Recorder>>) -> Self {
        Self {
            inner: Some(recorder),
            node: None,
        }
    }

    /// A copy of this sink whose records carry `node` — used by the cluster
    /// executor to tag each pipeline's events.
    pub fn with_node(&self, node: u32) -> Self {
        Self {
            inner: self.inner.clone(),
            node: Some(node),
        }
    }

    /// Whether events will actually be kept. Emission sites use this to skip
    /// constructing events (cloning part lists, ranking snapshots) entirely.
    pub fn enabled(&self) -> bool {
        match &self.inner {
            // lint: invariant — a panicked recorder poisons the lock; no
            // recovery keeps the trace complete, so propagate the panic
            Some(r) => r.lock().expect("recorder lock poisoned").enabled(),
            None => false,
        }
    }

    /// Records `event` at simulated time `t_ms` if a recorder is wired and
    /// enabled.
    pub fn emit(&self, t_ms: f64, event: Event) {
        if let Some(r) = &self.inner {
            // lint: invariant — a panicked recorder poisons the lock; no
            // recovery keeps the trace complete, so propagate the panic
            let mut r = r.lock().expect("recorder lock poisoned");
            if r.enabled() {
                r.record(&Record {
                    t_ms,
                    node: self.node,
                    event,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_ms: f64) -> Event {
        Event::AtomRead {
            timestep: 3,
            morton: 42,
            hit: t_ms > 0.0,
            io_ms: 1.5,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = ObsSink::null();
        assert!(!sink.enabled());
        sink.emit(1.0, sample(1.0)); // must not panic
    }

    #[test]
    fn null_recorder_reports_disabled_through_sink() {
        let sink = ObsSink::new(Arc::new(Mutex::new(NullRecorder)));
        assert!(!sink.enabled());
        sink.emit(1.0, sample(1.0));
    }

    #[test]
    fn ring_recorder_keeps_last_capacity_records() {
        let ring = Arc::new(Mutex::new(RingRecorder::new(2)));
        let sink = ObsSink::new(ring.clone());
        assert!(sink.enabled());
        for t in 0..5 {
            sink.emit(t as f64, sample(t as f64));
        }
        // lint: invariant — single-threaded test: a poisoned lock means an
        // earlier assertion already failed
        let ring = ring.lock().expect("ring recorder lock");
        assert_eq!(ring.len(), 2);
        let kept: Vec<f64> = ring.records().map(|r| r.t_ms).collect();
        assert_eq!(kept, vec![3.0, 4.0]);
    }

    #[test]
    fn jsonl_recorder_emits_tagged_lines_with_node() {
        let rec = Arc::new(Mutex::new(JsonlRecorder::new()));
        let sink = ObsSink::new(rec.clone()).with_node(7);
        sink.emit(12.5, sample(12.5));
        // lint: invariant — single-threaded test: a poisoned lock means an
        // earlier assertion already failed
        let out = rec
            .lock()
            .expect("jsonl recorder lock")
            .contents()
            .to_string();
        assert_eq!(out.lines().count(), 1);
        assert!(out.contains("\"AtomRead\""), "{out}");
        assert!(out.contains("\"node\":7"), "{out}");
        assert!(out.contains("\"t_ms\":12.5"), "{out}");
    }

    #[test]
    fn jsonl_records_round_trip() {
        let rec = Record {
            t_ms: 1.0,
            node: None,
            event: Event::BatchSelected {
                timestep: 2,
                alpha: 0.5,
                threshold: 0.25,
                atoms: vec![AtomChoice {
                    morton: 9,
                    eq1: 0.1,
                    aged: 0.2,
                }],
            },
        };
        let line = serde_json::to_string(&rec).unwrap();
        assert!(line.contains("\"node\":null"), "{line}");
        let back: Record = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn with_node_does_not_tag_the_original() {
        let rec = Arc::new(Mutex::new(RingRecorder::new(8)));
        let base = ObsSink::new(rec.clone());
        let tagged = base.with_node(3);
        base.emit(0.0, sample(0.0));
        tagged.emit(1.0, sample(1.0));
        // lint: invariant — single-threaded test: a poisoned lock means an
        // earlier assertion already failed
        let rec = rec.lock().expect("ring recorder lock");
        let nodes: Vec<Option<u32>> = rec.records().map(|r| r.node).collect();
        assert_eq!(nodes, vec![None, Some(3)]);
    }

    #[test]
    fn recorders_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ObsSink>();
        assert_send::<JsonlRecorder>();
        assert_send::<RingRecorder>();
        assert_send::<NullRecorder>();
    }
}
