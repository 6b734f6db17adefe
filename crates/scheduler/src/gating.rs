//! Gated execution: the job-aware precedence graph of §IV.
//!
//! Ordered jobs are sequences of queries with data dependencies. JAWS aligns
//! every pair of jobs with a Needleman–Wunsch dynamic program ([`align_jobs`])
//! and turns each aligned, data-sharing pair of queries into a *gating edge*:
//! the two queries must be co-scheduled so the shared atoms are read once.
//! Gating edges are transitive ("q inherits all gating edges incident to its
//! partner", Fig. 4 line 2), so edges form *gating groups* — sets of queries,
//! at most one per job, that enter the workload queues together.
//!
//! Query states follow the paper: **WAIT** (precedence/think-time constraints
//! unsatisfied), **READY** (only gating constraints remain), **QUEUE**
//! (schedulable), **DONE**. "JAWS can schedule a query qᵢ,ⱼ₊₁ only if
//! S(qᵢ,ⱼ) = DONE and every adjacent (via a gating edge) query is in the
//! READY state."
//!
//! ## Deadlock freedom
//!
//! The paper's Fig. 4 admission test uses *gating numbers* to refuse edges
//! that would deadlock the schedule. We implement the property those numbers
//! approximate directly: gating groups must form a DAG under the precedence
//! relation "some job executes a query of group A before a query of group B".
//! An edge whose admission would create a cycle is refused. This is strictly
//! safe: an acyclic group order can always be scheduled.
//!
//! The check is local. The DAG's edges run from each gated query's group to
//! the group of the next gated query in the same job. Every admitted state is
//! acyclic, and a refused merge is reverted to the exact prior state. Pruning
//! (a query completing, withdrawn or force-released, a group dissolving) only
//! removes reachability: `prev → g → next` becomes `prev → next`. A merge
//! into a fresh group `gid` adds edges only at `gid`, so any new cycle passes
//! through it. Admission therefore runs a DFS from `gid` and refuses iff the
//! DFS reaches `gid` again. Its cost is the part of the DAG reachable from
//! the merged group, not the number of jobs ever declared.
//!
//! ## Starvation valve
//!
//! A group only fires when every member is READY, and a member's job may be
//! arbitrarily slow (long think times). Following the spirit of §V-A's
//! starvation resistance, a READY query gated for longer than
//! [`GatingConfig::gate_timeout_ms`] is force-released: it leaves its group
//! and becomes schedulable alone, trading the missed sharing for bounded
//! delay. (The paper relies on alignment feasibility alone; the timeout is an
//! engineering addition documented in DESIGN.md.)
//!
//! ## Total order (determinism)
//!
//! Every decision in this module is made in a documented total order so runs
//! are bit-reproducible per seed (lint rule D001):
//!
//! * **Edge admission** (merge phase of [`GatingGraph::add_job`]): candidate
//!   alignments are processed in decreasing alignment size, ties broken by
//!   ascending partner `JobId`, and pairs within one alignment in job
//!   sequence order.
//! * **Force release** ([`GatingGraph::release_stale`]): stale queries are
//!   released in ascending `QueryId` order. Candidates come from an index of
//!   the READY queries, so a call costs the gated READY set, not the trace.
//! * **Group firing**: promoted queries come out in group-membership order,
//!   which is itself the deterministic admission order above. Every call
//!   that can promote appends to one caller-provided buffer, in that order.
//!
//! ## Retirement
//!
//! Once a job's last query is DONE, its `JobEntry` and every query entry
//! go: the graph's size follows the live jobs, not the trace. `job_order`
//! keeps only the last [`GatingConfig::max_align_jobs`] ordered ids, the
//! only ones alignment reads; a retired id among them is skipped exactly
//! like a finished job was (nothing pending to align against), so the
//! window's meaning is unchanged.
//!
//! Every iterated map or set is a `BTreeMap`/`BTreeSet` keyed by `JobId`/
//! `QueryId`/group id, so every iteration is ordered by construction. The
//! per-query entries are only ever looked up by id, so they live in a
//! [`FastMap`].

use crate::align::align_jobs;
use jaws_morton::FastMap;
use jaws_workload::{Job, JobId, JobKind, Query, QueryId};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Gating behaviour knobs.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GatingConfig {
    /// Maximum time a READY query may wait on gating partners before being
    /// force-released, ms.
    pub gate_timeout_ms: f64,
    /// Maximum number of existing jobs a new job is aligned against (most
    /// recently arrived first) — bounds the O(n²m²) dynamic-program phase.
    pub max_align_jobs: usize,
}

impl Default for GatingConfig {
    fn default() -> Self {
        GatingConfig {
            gate_timeout_ms: 180_000.0,
            max_align_jobs: 64,
        }
    }
}

/// The WAIT/READY/QUEUE/DONE lifecycle of §IV-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum QueryState {
    /// Precedence constraints (predecessor, think time) unsatisfied.
    Wait,
    /// Available, but gating partners are not all READY yet.
    Ready,
    /// All constraints satisfied — sub-queries sit in the workload queues.
    Queue,
    /// Completed.
    Done,
}

type GroupId = u64;

#[derive(Debug)]
struct QueryEntry {
    job: JobId,
    /// Index within the job's query sequence.
    index: usize,
    state: QueryState,
    ready_since_ms: f64,
    group: Option<GroupId>,
}

#[derive(Debug)]
struct JobEntry {
    /// The job's queries in precedence order (footprints retained for future
    /// alignments against newly arriving jobs).
    queries: Vec<Query>,
    /// Indices of queries that are not DONE yet (monotone front pointer).
    first_pending: usize,
}

/// The job-aware precedence/gating graph.
#[derive(Debug)]
pub struct GatingGraph {
    cfg: GatingConfig,
    jobs: BTreeMap<JobId, JobEntry>,
    /// Arrival order of the last `max_align_jobs` ordered jobs, retired ones
    /// included, for alignment candidate selection.
    job_order: VecDeque<JobId>,
    /// Per registered query: its job, position, lifecycle state and group.
    entries: FastMap<QueryId, QueryEntry>,
    /// The READY queries. An ungated query is promoted in the call that
    /// makes it READY, so between calls this holds only gated ones.
    ready: BTreeSet<QueryId>,
    groups: BTreeMap<GroupId, Vec<QueryId>>,
    next_group: GroupId,
    admitted_edges: u64,
    refused_edges: u64,
    forced_releases: u64,
}

impl GatingGraph {
    /// Creates an empty graph.
    pub fn new(cfg: GatingConfig) -> Self {
        GatingGraph {
            cfg,
            jobs: BTreeMap::new(),
            job_order: VecDeque::new(),
            entries: FastMap::default(),
            ready: BTreeSet::new(),
            groups: BTreeMap::new(),
            next_group: 0,
            admitted_edges: 0,
            refused_edges: 0,
            forced_releases: 0,
        }
    }

    /// Total gating edges admitted so far.
    pub fn admitted_edges(&self) -> u64 {
        self.admitted_edges
    }

    /// Edges refused by the deadlock / one-per-job checks.
    pub fn refused_edges(&self) -> u64 {
        self.refused_edges
    }

    /// Queries force-released by the starvation valve.
    pub fn forced_releases(&self) -> u64 {
        self.forced_releases
    }

    /// Queries the graph still tracks: every query of every job not yet
    /// fully DONE. A drained replay leaves zero.
    pub fn tracked_queries(&self) -> usize {
        self.entries.len()
    }

    /// Current state of a query ([`QueryState::Done`] if unknown/pruned).
    pub fn state(&self, q: QueryId) -> QueryState {
        self.entries.get(&q).map_or(QueryState::Done, |e| e.state)
    }

    /// The co-scheduling group of a query, if it is gated.
    pub fn group_members(&self, q: QueryId) -> Option<&[QueryId]> {
        let g = self.entries.get(&q)?.group?;
        self.groups.get(&g).map(Vec::as_slice)
    }

    /// Declares a new ordered job, aligning it against existing jobs and
    /// admitting gating edges greedily (largest alignments first, per the
    /// merge phase of §IV-B). Batched jobs and one-off queries register their
    /// queries but never gate. Returns the number of edges admitted.
    pub fn add_job(&mut self, job: &Job) -> usize {
        let entry = JobEntry {
            queries: job.queries.clone(),
            first_pending: 0,
        };
        for (i, q) in job.queries.iter().enumerate() {
            self.entries.insert(
                q.id,
                QueryEntry {
                    job: job.id,
                    index: i,
                    state: QueryState::Wait,
                    ready_since_ms: 0.0,
                    group: None,
                },
            );
        }
        self.jobs.insert(job.id, entry);
        if job.kind != JobKind::Ordered || job.queries.len() < 2 {
            return 0;
        }
        // Dynamic-program phase: align against the most recent ordered jobs.
        let mut alignments: Vec<(JobId, Vec<(usize, usize)>)> = Vec::new();
        for &other_id in self.job_order.iter().rev() {
            // Only align against the not-yet-done suffix: gating a completed
            // query is meaningless, and a retired job has none.
            let Some(other) = self.jobs.get(&other_id) else {
                continue;
            };
            let offset = other.first_pending;
            if offset >= other.queries.len() {
                continue;
            }
            let al = align_jobs(&job.queries, &other.queries[offset..]);
            if al.score > 0 {
                let pairs = al.pairs.into_iter().map(|(i, j)| (i, j + offset)).collect();
                alignments.push((other_id, pairs));
            }
        }
        self.job_order.push_back(job.id);
        if self.job_order.len() > self.cfg.max_align_jobs {
            self.job_order.pop_front();
        }
        // Merge phase: job pairs in decreasing alignment size.
        alignments.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        let mut admitted = 0;
        for (other_id, pairs) in alignments {
            for (new_idx, other_idx) in pairs {
                let new_q = self.jobs[&job.id].queries[new_idx].id;
                let other_q = self.jobs[&other_id].queries[other_idx].id;
                if self.admit_edge(new_q, other_q) {
                    admitted += 1;
                }
            }
        }
        admitted as usize
    }

    /// Admits a gating edge between `a` (new job) and `b` (existing job) if
    /// it cannot deadlock the schedule; see the module docs.
    fn admit_edge(&mut self, a: QueryId, b: QueryId) -> bool {
        let (ga, gb) = match (self.entries.get(&a), self.entries.get(&b)) {
            (Some(x), Some(y)) => {
                // Gating an already scheduled / completed query is pointless.
                if !matches!(x.state, QueryState::Wait | QueryState::Ready)
                    || !matches!(y.state, QueryState::Wait | QueryState::Ready)
                {
                    self.refused_edges += 1;
                    return false;
                }
                (x.group, y.group)
            }
            _ => return false,
        };
        if ga.is_some() && ga == gb {
            return false; // already co-grouped (transitivity)
        }
        // Determine the merged membership. Transitivity (Fig. 4 line 2):
        // joining b means joining b's whole group. Constraint: the merged
        // group may hold at most one query per job (two queries of one job in
        // a group could never be co-scheduled).
        let merged: Vec<QueryId> = self
            .members_or_self(ga, &a)
            .iter()
            .chain(self.members_or_self(gb, &b))
            .copied()
            .collect();
        let mut jobs_seen = BTreeSet::new();
        for q in &merged {
            if !jobs_seen.insert(self.entries[q].job) {
                self.refused_edges += 1;
                return false;
            }
        }
        // Tentatively apply, then verify no cycle runs through the merge.
        let gid = self.next_group;
        self.next_group += 1;
        for q in &merged {
            // lint: invariant — merged only holds ids from self.entries
            self.entries.get_mut(q).expect("tracked").group = Some(gid);
        }
        // lint: invariant — a query's group id always names a live group
        let old_a = ga.map(|g| (g, self.groups.remove(&g).expect("live group")));
        // lint: invariant — a query's group id always names a live group
        let old_b = gb.map(|g| (g, self.groups.remove(&g).expect("live group")));
        self.groups.insert(gid, merged);
        let cyclic = self.reaches_itself(gid);
        #[cfg(test)]
        assert_eq!(
            cyclic,
            !self.group_dag_is_acyclic(),
            "local cycle check disagrees with the global oracle"
        );
        if !cyclic {
            self.admitted_edges += 1;
            true
        } else {
            // Revert to the exact pre-merge state.
            self.groups.remove(&gid);
            for (old, lone) in [(old_a, a), (old_b, b)] {
                match old {
                    None => {
                        // lint: invariant — `lone` was looked up at entry
                        self.entries.get_mut(&lone).expect("tracked").group = None;
                    }
                    Some((g, members)) => {
                        for m in &members {
                            // lint: invariant — members came from self.entries
                            self.entries.get_mut(m).expect("tracked").group = Some(g);
                        }
                        self.groups.insert(g, members);
                    }
                }
            }
            self.refused_edges += 1;
            false
        }
    }

    /// The members of group `g`, or just `q` when it is ungated.
    fn members_or_self<'a>(&'a self, g: Option<GroupId>, q: &'a QueryId) -> &'a [QueryId] {
        g.map_or(std::slice::from_ref(q), |g| &self.groups[&g])
    }

    /// The precedence successor of `q`'s group along `q`'s own job: the
    /// group of the next gated query after `q`.
    fn next_group_after(&self, q: QueryId) -> Option<GroupId> {
        let e = &self.entries[&q];
        self.jobs[&e.job].queries[e.index + 1..]
            .iter()
            .find_map(|n| self.entries[&n.id].group)
    }

    /// True if a path of the group-precedence DAG leads from `gid` back to
    /// itself. A depth-first search over the groups reachable from `gid`.
    fn reaches_itself(&self, gid: GroupId) -> bool {
        let mut stack = vec![gid];
        let mut seen = BTreeSet::new();
        while let Some(g) = stack.pop() {
            for &m in &self.groups[&g] {
                match self.next_group_after(m) {
                    Some(next) if next == gid => return true,
                    Some(next) if seen.insert(next) => stack.push(next),
                    _ => {}
                }
            }
        }
        false
    }

    /// Global cycle check over the gating-group precedence DAG: rebuilds
    /// the DAG over every job and runs Kahn's algorithm. Retained as the
    /// test oracle for [`GatingGraph::reaches_itself`].
    #[cfg(test)]
    fn group_dag_is_acyclic(&self) -> bool {
        // Edges: for each job, consecutive gated queries g_prev -> g_next.
        let mut edges: BTreeMap<GroupId, BTreeSet<GroupId>> = BTreeMap::new();
        for job in self.jobs.values() {
            let mut prev: Option<GroupId> = None;
            for q in &job.queries[job.first_pending..] {
                if let Some(e) = self.entries.get(&q.id) {
                    if let Some(g) = e.group {
                        if let Some(p) = prev {
                            if p != g {
                                edges.entry(p).or_default().insert(g);
                            }
                        }
                        prev = Some(g);
                    }
                }
            }
        }
        // Kahn's algorithm over the groups that participate in edges.
        let mut indeg: BTreeMap<GroupId, usize> = BTreeMap::new();
        for (&from, tos) in &edges {
            indeg.entry(from).or_insert(0);
            for &to in tos {
                *indeg.entry(to).or_insert(0) += 1;
            }
        }
        let mut stack: Vec<GroupId> = indeg
            .iter()
            .filter(|&(_, &d)| d == 0)
            .map(|(&g, _)| g)
            .collect();
        let mut seen = 0usize;
        let total = indeg.len();
        while let Some(g) = stack.pop() {
            seen += 1;
            if let Some(tos) = edges.get(&g) {
                for &to in tos {
                    let d = indeg.get_mut(&to).expect("every edge target is counted");
                    *d -= 1;
                    if *d == 0 {
                        stack.push(to);
                    }
                }
            }
        }
        seen == total
    }

    /// Marks a query available (predecessor done, think time elapsed):
    /// WAIT → READY, then fires any group that became fully ready. Appends
    /// the queries newly promoted to QUEUE to `promoted`.
    pub fn query_available(&mut self, q: QueryId, now_ms: f64, promoted: &mut Vec<QueryId>) {
        // lint: invariant — callers only pass ids registered via add_job
        let e = self
            .entries
            .get_mut(&q)
            .expect("available query is tracked");
        debug_assert_eq!(e.state, QueryState::Wait, "double availability for {q}");
        e.state = QueryState::Ready;
        e.ready_since_ms = now_ms;
        self.ready.insert(q);
        self.try_fire(q, promoted);
    }

    /// Marks a query complete: QUEUE → DONE, prunes it from its group and the
    /// job front, retires the job once its last query is DONE, and fires any
    /// group unblocked by the pruning. Appends the queries newly promoted to
    /// QUEUE to `promoted`.
    pub fn query_done(&mut self, q: QueryId, promoted: &mut Vec<QueryId>) {
        let Some(e) = self.entries.get_mut(&q) else {
            return;
        };
        e.state = QueryState::Done;
        self.ready.remove(&q);
        let job = e.job;
        let group = e.group.take();
        // Advance the job's pending front (prunes completed queries from
        // future alignments and DAG checks). A job with nothing pending is
        // retired: none of its queries is READY or in a group any more.
        if let Some(j) = self.jobs.get_mut(&job) {
            while j.first_pending < j.queries.len()
                && self
                    .entries
                    .get(&j.queries[j.first_pending].id)
                    .is_none_or(|e| e.state == QueryState::Done)
            {
                j.first_pending += 1;
            }
            if j.first_pending == j.queries.len() {
                for done in &j.queries {
                    self.entries.remove(&done.id);
                }
                self.jobs.remove(&job);
            }
        }
        if let Some(g) = group {
            if let Some(members) = self.groups.get_mut(&g) {
                members.retain(|&m| m != q);
                if members.len() <= 1 {
                    for m in self.groups.remove(&g).into_iter().flatten() {
                        // lint: invariant — group members are tracked queries
                        let e = self.entries.get_mut(&m).expect("tracked");
                        e.group = None;
                        if e.state == QueryState::Ready {
                            promote(&mut self.entries, &mut self.ready, m, promoted);
                        }
                    }
                } else if let Some(&m) = members.first() {
                    self.try_fire(m, promoted);
                }
            }
        }
    }

    /// Promotes a READY query (and, if gated, its whole ready group) to QUEUE
    /// when all gating constraints hold, appending them to `promoted`.
    fn try_fire(&mut self, q: QueryId, promoted: &mut Vec<QueryId>) {
        let Some(e) = self.entries.get(&q) else {
            return;
        };
        if e.state != QueryState::Ready {
            return;
        }
        match e.group {
            None => promote(&mut self.entries, &mut self.ready, q, promoted),
            Some(g) => {
                // lint: invariant — a query's group id always names a live group
                let members = self.groups.get(&g).expect("member's group exists");
                let all_ready = members.iter().all(|m| {
                    matches!(
                        self.entries[m].state,
                        QueryState::Ready | QueryState::Queue | QueryState::Done
                    )
                });
                if !all_ready {
                    return;
                }
                // Promoting one member changes only that member's state, so
                // testing each state as the walk reaches it selects the same
                // members, in the same order, as a filter before the walk.
                for &m in members {
                    if self.entries[&m].state == QueryState::Ready {
                        promote(&mut self.entries, &mut self.ready, m, promoted);
                    }
                }
            }
        }
    }

    /// Force-releases READY queries gated for longer than the timeout.
    /// Appends the queries promoted to QUEUE (the released query itself plus
    /// any group mates its departure unblocked) to `promoted`.
    ///
    /// Only READY queries are visited, in ascending `QueryId` order (see the
    /// module docs on determinism) — `self.ready` is a `BTreeSet`.
    pub fn release_stale(&mut self, now_ms: f64, promoted: &mut Vec<QueryId>) {
        let stale: Vec<QueryId> = self
            .ready
            .iter()
            .copied()
            .filter(|q| {
                let e = &self.entries[q];
                e.state == QueryState::Ready
                    && e.group.is_some()
                    && now_ms - e.ready_since_ms > self.cfg.gate_timeout_ms
            })
            .collect();
        for q in stale {
            if self.entries[&q].state != QueryState::Ready {
                continue; // already promoted by an earlier release this round
            }
            self.forced_releases += 1;
            // lint: invariant — `stale` ids were collected from self.ready
            let g = self.entries.get_mut(&q).expect("tracked").group.take();
            if let Some(g) = g {
                if let Some(members) = self.groups.get_mut(&g) {
                    members.retain(|&m| m != q);
                    let first = members.first().copied();
                    if members.len() <= 1 {
                        for m in self.groups.remove(&g).into_iter().flatten() {
                            // lint: invariant — group members are tracked queries
                            self.entries.get_mut(&m).expect("tracked").group = None;
                        }
                    }
                    if let Some(m) = first {
                        self.try_fire(m, promoted);
                    }
                }
            }
            promote(&mut self.entries, &mut self.ready, q, promoted);
        }
    }
}

/// READY → QUEUE for one query, appended to `promoted`. Takes the two
/// collections it updates rather than the graph, so a caller can walk a
/// group's member list while promoting its members.
fn promote(
    entries: &mut FastMap<QueryId, QueryEntry>,
    ready: &mut BTreeSet<QueryId>,
    q: QueryId,
    promoted: &mut Vec<QueryId>,
) {
    // lint: invariant — promote is only called with tracked READY queries
    let e = entries.get_mut(&q).expect("tracked");
    debug_assert_eq!(e.state, QueryState::Ready);
    e.state = QueryState::Queue;
    ready.remove(&q);
    promoted.push(q);
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaws_morton::MortonKey;
    use jaws_workload::{Footprint, QueryOp};
    use std::collections::HashMap;

    /// Builds a query with id `id` touching region `r` at timestep `ts`.
    fn q(id: u64, ts: u32, r: u64) -> Query {
        Query {
            id,
            user: 0,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            footprint: Footprint::from_pairs([(MortonKey(r), 10u32)]),
        }
    }

    /// Ordered job from (timestep, region) specs with query ids
    /// `base*100 + i`.
    fn job(base: u64, spec: &[(u32, u64)]) -> Job {
        Job {
            id: base,
            user: base as u32,
            kind: JobKind::Ordered,
            campaign: base,
            queries: spec
                .iter()
                .enumerate()
                .map(|(i, &(ts, r))| q(base * 100 + i as u64, ts, r))
                .collect(),
            arrival_ms: 0.0,
            think_ms: 0.0,
        }
    }

    fn graph() -> GatingGraph {
        GatingGraph::new(GatingConfig::default())
    }

    /// [`GatingGraph::query_available`] into a fresh buffer.
    fn avail(g: &mut GatingGraph, q: QueryId, now_ms: f64) -> Vec<QueryId> {
        let mut promoted = Vec::new();
        g.query_available(q, now_ms, &mut promoted);
        promoted
    }

    /// [`GatingGraph::query_done`] into a fresh buffer.
    fn complete(g: &mut GatingGraph, q: QueryId) -> Vec<QueryId> {
        let mut promoted = Vec::new();
        g.query_done(q, &mut promoted);
        promoted
    }

    /// [`GatingGraph::release_stale`] into a fresh buffer.
    fn stale(g: &mut GatingGraph, now_ms: f64) -> Vec<QueryId> {
        let mut promoted = Vec::new();
        g.release_stale(now_ms, &mut promoted);
        promoted
    }

    #[test]
    fn ungated_query_queues_immediately_on_availability() {
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1), (1, 2)]));
        assert_eq!(g.state(100), QueryState::Wait);
        let fired = avail(&mut g, 100, 0.0);
        assert_eq!(fired, vec![100]);
        assert_eq!(g.state(100), QueryState::Queue);
        assert_eq!(g.state(101), QueryState::Wait);
    }

    #[test]
    fn aligned_jobs_get_gating_edges() {
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1), (1, 3), (2, 4)]));
        let admitted = g.add_job(&job(2, &[(0, 1), (1, 3), (2, 4)]));
        assert_eq!(admitted, 3);
        assert_eq!(g.admitted_edges(), 3);
        // Queries sharing R1 are co-grouped.
        let members = g.group_members(100).expect("gated");
        assert!(members.contains(&100) && members.contains(&200));
    }

    #[test]
    fn gated_queries_fire_together() {
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1), (1, 3)]));
        g.add_job(&job(2, &[(0, 1), (1, 3)]));
        // First query of job 1 ready: partner not ready yet, so it holds.
        let fired = avail(&mut g, 100, 0.0);
        assert!(fired.is_empty(), "waits for its gating partner");
        assert_eq!(g.state(100), QueryState::Ready);
        // Partner arrives: both fire together (co-scheduling on R1).
        let mut fired = avail(&mut g, 200, 1.0);
        fired.sort_unstable();
        assert_eq!(fired, vec![100, 200]);
        assert_eq!(g.state(100), QueryState::Queue);
        assert_eq!(g.state(200), QueryState::Queue);
    }

    #[test]
    fn fig2_three_job_coscheduling() {
        // The paper's Fig. 2: J1 = R1 R3 R4, J2 = R2 R3 R4, J3 = R1 R3(R4…).
        // JAWS delays J2/J3 so R3 and R4 are each read once.
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1), (1, 3), (2, 4)]));
        g.add_job(&job(2, &[(0, 2), (1, 3), (2, 4)]));
        g.add_job(&job(3, &[(0, 1), (1, 3), (2, 4)]));
        // R1 gating: jobs 1 and 3 (first queries). Job 2's R2 is ungated.
        let f1 = avail(&mut g, 100, 0.0);
        assert!(f1.is_empty());
        let f2 = avail(&mut g, 200, 0.0);
        assert_eq!(f2, vec![200], "R2 has no partner: runs immediately");
        let mut f3 = avail(&mut g, 300, 0.0);
        f3.sort_unstable();
        assert_eq!(f3, vec![100, 300], "R1 pair fires together");
        // Complete the first wave; the R3 group is j1q2 + j2q2 + j3q2.
        complete(&mut g, 200);
        complete(&mut g, 100);
        complete(&mut g, 300);
        let m = g
            .group_members(101)
            .expect("R3 gated across all three jobs");
        assert_eq!(m.len(), 3, "transitivity merged all three R3 queries");
        // R3 queries become available one by one; only the last arrival fires
        // the whole group.
        assert!(avail(&mut g, 101, 1.0).is_empty());
        assert!(avail(&mut g, 201, 1.0).is_empty());
        let mut f = avail(&mut g, 301, 1.0);
        f.sort_unstable();
        assert_eq!(f, vec![101, 201, 301]);
    }

    #[test]
    fn crossing_alignments_cannot_deadlock() {
        // J1 visits A then B; J2 visits B then A. Gating both pairs would
        // deadlock (each waits for the other's later query). The NW alignment
        // itself is monotone, so at most one pair aligns — and the DAG check
        // guards the transitive case.
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1), (1, 2)]));
        g.add_job(&job(2, &[(1, 2), (0, 1)]));
        assert!(g.admitted_edges() <= 1);
        // Whatever was admitted, the schedule must complete:
        let mut done = 0;
        let mut available: Vec<QueryId> = vec![100, 200];
        for &q in &available {
            avail(&mut g, q, 0.0);
        }
        // Drive to completion, force-releasing if a gate would stall us.
        let mut now = 0.0;
        let mut next: Vec<QueryId> = vec![101, 201];
        for _ in 0..10 {
            let queued: Vec<QueryId> = [100, 101, 200, 201]
                .iter()
                .copied()
                .filter(|&q| g.state(q) == QueryState::Queue)
                .collect();
            if queued.is_empty() {
                now += 100_000.0;
                stale(&mut g, now);
                continue;
            }
            for q in queued {
                complete(&mut g, q);
                done += 1;
                if q == 100 && !available.contains(&101) {
                    available.push(101);
                    avail(&mut g, 101, now);
                    next.retain(|&x| x != 101);
                }
                if q == 200 && !available.contains(&201) {
                    available.push(201);
                    avail(&mut g, 201, now);
                    next.retain(|&x| x != 201);
                }
            }
            if done == 4 {
                break;
            }
        }
        assert_eq!(done, 4, "schedule completed without deadlock");
    }

    #[test]
    fn one_gating_partner_per_job_pair() {
        // A group never holds two queries of one job.
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1), (1, 1)])); // same region twice
        g.add_job(&job(2, &[(0, 1), (1, 1)]));
        for qid in [100u64, 101, 200, 201] {
            if let Some(members) = g.group_members(qid) {
                let mut jobs: Vec<u64> = members.iter().map(|m| m / 100).collect();
                jobs.sort_unstable();
                jobs.dedup();
                assert_eq!(jobs.len(), members.len(), "duplicate job in group");
            }
        }
    }

    #[test]
    fn completed_partner_does_not_block() {
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1), (1, 3)]));
        g.add_job(&job(2, &[(0, 1), (1, 3)]));
        avail(&mut g, 100, 0.0);
        avail(&mut g, 200, 0.0);
        complete(&mut g, 100);
        complete(&mut g, 200);
        // Both R3 queries gated; complete job 1's side first.
        avail(&mut g, 101, 1.0);
        let f = avail(&mut g, 201, 2.0);
        assert_eq!(f.len(), 2);
        complete(&mut g, 101);
        // Job 2's query now alone in a dissolved group; still completes.
        complete(&mut g, 201);
        assert_eq!(g.state(201), QueryState::Done);
    }

    #[test]
    fn stale_gates_are_released() {
        let mut g = GatingGraph::new(GatingConfig {
            gate_timeout_ms: 1_000.0,
            max_align_jobs: 64,
        });
        g.add_job(&job(1, &[(0, 1), (1, 3)]));
        g.add_job(&job(2, &[(0, 1), (1, 3)]));
        avail(&mut g, 100, 0.0);
        assert_eq!(g.state(100), QueryState::Ready);
        // Partner never arrives; the valve opens after the timeout.
        assert!(stale(&mut g, 500.0).is_empty(), "not stale yet");
        let released = stale(&mut g, 2_000.0);
        assert_eq!(released, vec![100]);
        assert_eq!(g.state(100), QueryState::Queue);
        assert_eq!(g.forced_releases(), 1);
        // The abandoned partner is no longer gated either.
        let f = avail(&mut g, 200, 3_000.0);
        assert_eq!(f, vec![200], "dissolved group does not hold the partner");
    }

    #[test]
    fn group_pruning_on_done_unblocks_survivors() {
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1)]));
        // Single-query jobs never gate (len < 2): no group.
        assert!(g.group_members(100).is_none());
    }

    #[test]
    fn batched_jobs_never_gate() {
        let mut g = graph();
        let mut b = job(1, &[(0, 1), (0, 1), (0, 1)]);
        b.kind = JobKind::Batched;
        assert_eq!(g.add_job(&b), 0);
        let mut b2 = job(2, &[(0, 1), (0, 1)]);
        b2.kind = JobKind::Batched;
        assert_eq!(g.add_job(&b2), 0);
        assert_eq!(g.admitted_edges(), 0);
    }

    #[test]
    fn late_arriving_job_aligns_against_remaining_suffix_only() {
        let mut g = graph();
        g.add_job(&job(1, &[(0, 1), (1, 3), (2, 4)]));
        // Job 1 completes its first query before job 2 arrives.
        avail(&mut g, 100, 0.0);
        complete(&mut g, 100);
        g.add_job(&job(2, &[(0, 1), (1, 3), (2, 4)]));
        // R1 cannot gate anymore (done); R3/R4 can.
        assert!(g.group_members(200).is_none(), "R1 edge skipped");
        assert!(g.group_members(201).is_some(), "R3 edge admitted");
        assert!(g.group_members(202).is_some(), "R4 edge admitted");
    }

    #[test]
    fn many_random_jobs_never_deadlock() {
        // Property-style stress: random jobs over few regions; drive every
        // query through availability in job order; with periodic stale
        // release the graph must drain completely.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for round in 0..20 {
            let mut g = GatingGraph::new(GatingConfig {
                gate_timeout_ms: 10.0,
                max_align_jobs: 64,
            });
            let mut jobs = Vec::new();
            for jid in 1..=6u64 {
                let len = rng.gen_range(1..6);
                let spec: Vec<(u32, u64)> =
                    (0..len).map(|i| (i as u32, rng.gen_range(0..4))).collect();
                let j = job(jid, &spec);
                g.add_job(&j);
                jobs.push(j);
            }
            let mut cursor: HashMap<u64, usize> = jobs.iter().map(|j| (j.id, 0usize)).collect();
            for j in &jobs {
                avail(&mut g, j.queries[0].id, 0.0);
            }
            let mut now = 0.0;
            let mut remaining: usize = jobs.iter().map(|j| j.queries.len()).sum();
            let mut guard = 0;
            while remaining > 0 {
                guard += 1;
                assert!(guard < 10_000, "round {round}: stuck with {remaining} left");
                let queued: Vec<(u64, QueryId)> = jobs
                    .iter()
                    .flat_map(|j| j.queries.iter().map(move |q| (j.id, q.id)))
                    .filter(|&(_, q)| g.state(q) == QueryState::Queue)
                    .collect();
                if queued.is_empty() {
                    now += 100.0;
                    stale(&mut g, now);
                    continue;
                }
                for (jid, qid) in queued {
                    complete(&mut g, qid);
                    remaining -= 1;
                    let c = cursor.get_mut(&jid).unwrap();
                    *c += 1;
                    let j = jobs.iter().find(|j| j.id == jid).unwrap();
                    if *c < j.queries.len() {
                        avail(&mut g, j.queries[*c].id, now);
                    }
                }
            }
            assert_eq!(
                g.tracked_queries(),
                0,
                "round {round}: drained graph keeps queries"
            );
            assert!(g.jobs.is_empty(), "round {round}: drained graph keeps jobs");
            assert!(g.ready.is_empty() && g.groups.is_empty());
        }
    }

    /// Model-based check of the maintained structures against full scans.
    /// Every admission inside `add_job` also asserts that the local cycle
    /// check agrees with the global oracle (see `admit_edge`).
    mod model_props {
        use super::*;
        use proptest::prelude::*;

        /// One step of a random gating workload, decoded from a drawn
        /// `(kind, n)` pair. An index picks among the candidates valid at
        /// that point, modulo their count.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            /// Declares the next scripted job.
            Declare,
            /// Makes a query available: the next one of an ordered job, any
            /// waiting one of a batched job.
            Available(usize),
            /// Completes a QUEUE query.
            Done(usize),
            /// Withdraws a WAIT query, as `Jaws::query_withdrawn` does.
            Withdraw(usize),
            /// Advances the clock by `n` ms and opens the starvation valve.
            Release(usize),
        }

        impl Op {
            fn decode((kind, n): (u8, usize)) -> Op {
                match kind {
                    0..=1 => Op::Declare,
                    2..=5 => Op::Available(n),
                    6..=9 => Op::Done(n),
                    10 => Op::Withdraw(n),
                    _ => Op::Release(n % 300),
                }
            }
        }

        /// The READY index equals a full scan, holds only gated queries
        /// between calls, and the group DAG is acyclic. Every tracked job
        /// still has a query that is not DONE, every entry belongs to a
        /// tracked job, and the alignment window is bounded.
        fn check(g: &GatingGraph) {
            let scan: BTreeSet<QueryId> = g
                .entries
                .iter()
                .filter(|(_, e)| e.state == QueryState::Ready)
                .map(|(&q, _)| q)
                .collect();
            assert_eq!(g.ready, scan, "READY index diverged from a full scan");
            assert!(g.ready.iter().all(|q| g.entries[q].group.is_some()));
            assert!(g.group_dag_is_acyclic());
            for (id, job) in &g.jobs {
                assert!(
                    job.queries
                        .iter()
                        .any(|q| g.entries[&q.id].state != QueryState::Done),
                    "job {id} is fully DONE but still tracked"
                );
            }
            assert!(g.entries.values().all(|e| g.jobs.contains_key(&e.job)));
            assert!(g.job_order.len() <= g.cfg.max_align_jobs);
        }

        proptest! {
            #[test]
            fn ready_index_and_local_cycle_check_match_full_scans(
                // (ordered unless 0, [(timestep, region)]) per job: few
                // regions and timesteps, so alignments overlap and groups
                // merge transitively.
                script in proptest::collection::vec(
                    (0u8..5, proptest::collection::vec((0u32..3, 0u64..3), 1..7)),
                    1..13,
                ),
                ops in proptest::collection::vec((0u8..13, 0usize..1000), 1..120),
            ) {
                let mut g = GatingGraph::new(GatingConfig {
                    gate_timeout_ms: 100.0,
                    max_align_jobs: 64,
                });
                let mut declared: Vec<Job> = Vec::new();
                let mut now = 0.0;
                for op in ops.into_iter().map(Op::decode) {
                    let state = |q: &Query| g.state(q.id);
                    let waiting: Vec<QueryId> = declared
                        .iter()
                        .flat_map(|j| &j.queries)
                        .filter(|q| state(q) == QueryState::Wait)
                        .map(|q| q.id)
                        .collect();
                    match op {
                        Op::Declare => {
                            if let Some((ordered, spec)) = script.get(declared.len()) {
                                let mut j = job(declared.len() as u64 + 1, spec);
                                if *ordered == 0 {
                                    j.kind = JobKind::Batched;
                                }
                                g.add_job(&j);
                                declared.push(j);
                            }
                        }
                        Op::Available(i) => {
                            let candidates: Vec<QueryId> = declared
                                .iter()
                                .flat_map(|j| {
                                    let front = j
                                        .queries
                                        .iter()
                                        .take_while(|q| state(q) == QueryState::Done)
                                        .count();
                                    let take = if j.kind == JobKind::Ordered { 1 } else { usize::MAX };
                                    j.queries[front..].iter().take(take)
                                })
                                .filter(|q| state(q) == QueryState::Wait)
                                .map(|q| q.id)
                                .collect();
                            if !candidates.is_empty() {
                                avail(&mut g, candidates[i % candidates.len()], now);
                            }
                        }
                        Op::Done(i) => {
                            let queued: Vec<QueryId> = declared
                                .iter()
                                .flat_map(|j| &j.queries)
                                .filter(|q| state(q) == QueryState::Queue)
                                .map(|q| q.id)
                                .collect();
                            if !queued.is_empty() {
                                complete(&mut g, queued[i % queued.len()]);
                            }
                        }
                        Op::Withdraw(i) => {
                            if !waiting.is_empty() {
                                complete(&mut g, waiting[i % waiting.len()]);
                            }
                        }
                        Op::Release(dt) => {
                            now += dt as f64;
                            stale(&mut g, now);
                        }
                    }
                    check(&g);
                }
            }
        }
    }
}
