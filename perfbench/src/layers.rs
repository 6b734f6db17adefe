//! Timing decorators around the public layer traits.
//!
//! [`SchedProbe`] wraps the `Box<dyn Scheduler>` handed to `Executor::new`
//! and [`CacheProbe`] the `ReplacementPolicy<AtomId>` handed to
//! `TurbDb::open`. Both forward every call unchanged and add the wall time of
//! the substantive calls to a shared tally the benchmark reads after the
//! replay. They never touch simulated state, so a probed replay must produce
//! the same masked report as a plain one — the benchmark checks that on every
//! traced run.

use jaws_cache::{ReplacementPolicy, UtilityOracle};
use jaws_morton::AtomId;
use jaws_scheduler::{Batch, Residency, Scheduler, SchedulerStats, UtilitySnapshot};
use jaws_workload::{Job, Query, QueryId};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Wall time spent inside one scheduler, by entry point.
#[derive(Debug, Default)]
pub struct SchedTimes {
    pub job_declared_ns: u64,
    pub query_available_ns: u64,
    pub utility_snapshot_ns: u64,
    pub on_query_complete_ns: u64,
    /// `query_withdrawn` and `retire_pending`.
    pub other_ns: u64,
    /// One sample per `next_batch` call.
    pub next_batch_ns: Vec<u64>,
    /// `next_batch` calls that returned a batch.
    pub next_batch_some: u64,
}

impl SchedTimes {
    pub fn busy_ns(&self) -> u64 {
        self.job_declared_ns
            + self.query_available_ns
            + self.utility_snapshot_ns
            + self.on_query_complete_ns
            + self.other_ns
            + self.next_batch_ns.iter().sum::<u64>()
    }
}

/// Wall time spent inside one replacement policy.
#[derive(Debug, Default)]
pub struct CacheTimes {
    /// `on_hit`, `on_insert`, `on_remove` and `end_run`.
    pub bookkeeping_ns: u64,
    /// One sample per `choose_victim` call.
    pub choose_victim_ns: Vec<u64>,
}

impl CacheTimes {
    pub fn busy_ns(&self) -> u64 {
        self.bookkeeping_ns + self.choose_victim_ns.iter().sum::<u64>()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("probe tally poisoned by a panicking replay")
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A scheduler that times every substantive call into the one it wraps.
pub struct SchedProbe {
    inner: Box<dyn Scheduler>,
    times: Arc<Mutex<SchedTimes>>,
}

impl SchedProbe {
    pub fn wrap(inner: Box<dyn Scheduler>) -> (Box<dyn Scheduler>, Arc<Mutex<SchedTimes>>) {
        let times = Arc::new(Mutex::new(SchedTimes::default()));
        let probe = SchedProbe {
            inner,
            times: Arc::clone(&times),
        };
        (Box::new(probe), times)
    }
}

impl Scheduler for SchedProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn job_declared(&mut self, job: &Job, now_ms: f64) {
        let t0 = Instant::now();
        self.inner.job_declared(job, now_ms);
        lock(&self.times).job_declared_ns += elapsed_ns(t0);
    }

    fn query_available(&mut self, query: &Query, now_ms: f64) {
        let t0 = Instant::now();
        self.inner.query_available(query, now_ms);
        lock(&self.times).query_available_ns += elapsed_ns(t0);
    }

    fn next_batch(&mut self, now_ms: f64, residency: &dyn Residency) -> Option<Batch> {
        let t0 = Instant::now();
        let batch = self.inner.next_batch(now_ms, residency);
        let ns = elapsed_ns(t0);
        let mut times = lock(&self.times);
        times.next_batch_ns.push(ns);
        times.next_batch_some += u64::from(batch.is_some());
        batch
    }

    fn on_query_complete(&mut self, query: QueryId, response_ms: f64, now_ms: f64) {
        let t0 = Instant::now();
        self.inner.on_query_complete(query, response_ms, now_ms);
        lock(&self.times).on_query_complete_ns += elapsed_ns(t0);
    }

    fn query_withdrawn(&mut self, query: QueryId, now_ms: f64) {
        let t0 = Instant::now();
        self.inner.query_withdrawn(query, now_ms);
        lock(&self.times).other_ns += elapsed_ns(t0);
    }

    fn retire_pending(&mut self, now_ms: f64) {
        let t0 = Instant::now();
        self.inner.retire_pending(now_ms);
        lock(&self.times).other_ns += elapsed_ns(t0);
    }

    fn has_pending(&self) -> bool {
        self.inner.has_pending()
    }

    fn take_run_boundary(&mut self) -> bool {
        self.inner.take_run_boundary()
    }

    fn alpha(&self) -> f64 {
        self.inner.alpha()
    }

    fn utility_snapshot(&mut self, residency: &dyn Residency) -> UtilitySnapshot {
        let t0 = Instant::now();
        let snapshot = self.inner.utility_snapshot(residency);
        lock(&self.times).utility_snapshot_ns += elapsed_ns(t0);
        snapshot
    }

    fn set_recorder(&mut self, sink: jaws_obs::ObsSink) {
        self.inner.set_recorder(sink);
    }

    fn stats(&self) -> SchedulerStats {
        self.inner.stats()
    }
}

/// A replacement policy that times every call into the one it wraps.
pub struct CacheProbe {
    inner: Box<dyn ReplacementPolicy<AtomId>>,
    times: Arc<Mutex<CacheTimes>>,
}

impl CacheProbe {
    pub fn wrap(
        inner: Box<dyn ReplacementPolicy<AtomId>>,
    ) -> (Box<dyn ReplacementPolicy<AtomId>>, Arc<Mutex<CacheTimes>>) {
        let times = Arc::new(Mutex::new(CacheTimes::default()));
        let probe = CacheProbe {
            inner,
            times: Arc::clone(&times),
        };
        (Box::new(probe), times)
    }

    fn bookkeeping(&mut self, f: impl FnOnce(&mut dyn ReplacementPolicy<AtomId>)) {
        let t0 = Instant::now();
        f(self.inner.as_mut());
        lock(&self.times).bookkeeping_ns += elapsed_ns(t0);
    }
}

impl ReplacementPolicy<AtomId> for CacheProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_hit(&mut self, key: &AtomId) {
        self.bookkeeping(|p| p.on_hit(key));
    }

    fn on_insert(&mut self, key: AtomId) {
        self.bookkeeping(|p| p.on_insert(key));
    }

    fn on_remove(&mut self, key: &AtomId) {
        self.bookkeeping(|p| p.on_remove(key));
    }

    fn choose_victim(&mut self, oracle: &dyn UtilityOracle<AtomId>) -> Option<AtomId> {
        let t0 = Instant::now();
        let victim = self.inner.choose_victim(oracle);
        lock(&self.times).choose_victim_ns.push(elapsed_ns(t0));
        victim
    }

    fn end_run(&mut self) {
        self.bookkeeping(|p| p.end_run());
    }

    fn metadata_bytes(&self) -> usize {
        self.inner.metadata_bytes()
    }
}

/// A recording observability sink: it accepts every event, so every emission
/// site builds its event, and keeps only a count.
#[derive(Debug, Default)]
pub struct CountingRecorder {
    pub events: u64,
}

impl jaws_obs::Recorder for CountingRecorder {
    fn record(&mut self, _rec: &jaws_obs::Record) {
        self.events += 1;
    }
}
