//! Queries, jobs and data footprints.

use jaws_morton::{AtomId, MortonKey};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Unique query identifier within a trace.
pub type QueryId = u64;
/// Unique job identifier within a trace.
pub type JobId = u64;
/// Submitting user (scientist) identifier.
pub type UserId = u32;

/// The spatial/temporal operation a query performs — one of the three
/// production workload classes of §III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryOp {
    /// Point velocity evaluation (GetVelocity with Lagrange interpolation).
    Velocity,
    /// Particle-tracking step (positions advected between timesteps).
    ParticleTrack,
    /// Statistical arrays over a volume.
    RegionStats,
}

/// Shared storage of footprints: (atom, positions-in-atom) pairs, of which
/// each [`Footprint`] views one canonical run.
pub type AtomBuffer = Arc<[(MortonKey, u32)]>;

/// The data requirements of one query: for each atom it touches, the number
/// of queried positions falling inside that atom.
///
/// This is exactly what the pre-processor of §III-B extracts ("the
/// pre-processor identifies the data atom that corresponds to each position")
/// and all the scheduler ever needs; concrete coordinates only matter to the
/// computation kernels.
///
/// A footprint is a view: a run of a shared, immutable atom buffer. Cloning
/// one (and so cloning a [`Query`]) bumps a reference count and copies no
/// atoms, so a copy of a query — a scheduler's copy of a query it holds at
/// a gate, a just-in-time replica declaration of a part — shares its
/// original's buffer. A trace query owns a buffer of its own, and a part
/// that keeps all of its query's atoms shares it. A job's projection onto a
/// cluster node lays every projected query's atoms out in one buffer and
/// each projected query views its run: a scheduler keeps a declared job
/// for the job's life, and one buffer costs one allocation whatever the
/// job's query count. Only the run matters: equality, `Debug`, the overlap
/// predicates and the serde form `{"atoms":[[m,c],…]}` all read
/// [`Footprint::atoms`].
#[derive(Clone, Default)]
pub struct Footprint {
    /// The shared storage; the footprint is `buf[start..start + len]`.
    buf: AtomBuffer,
    start: u32,
    len: u32,
}

impl Footprint {
    /// Builds a footprint from unsorted pairs, merging duplicates and
    /// dropping zero counts. The pairs are put in canonical form in the
    /// collected `Vec`, which is then copied into the footprint's buffer.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (MortonKey, u32)>) -> Self {
        let mut v: Vec<(MortonKey, u32)> = pairs.into_iter().filter(|&(_, c)| c > 0).collect();
        v.sort_unstable_by_key(|&(m, _)| m);
        v.dedup_by(|cur, acc| {
            if acc.0 == cur.0 {
                acc.1 += cur.1;
                true
            } else {
                false
            }
        });
        let len = v.len();
        Footprint::view(Arc::from(v), 0..len)
    }

    /// The footprint whose atoms are `buf[range]`, sharing `buf`. The run
    /// must already be canonical: sorted by strictly increasing Morton key,
    /// with no zero count.
    ///
    /// # Panics
    ///
    /// Panics if `range` lies outside `buf` or past `u32::MAX`.
    pub fn view(buf: AtomBuffer, range: std::ops::Range<usize>) -> Self {
        let run = &buf[range.clone()];
        debug_assert!(
            run.windows(2).all(|w| w[0].0 < w[1].0) && run.iter().all(|&(_, c)| c > 0),
            "a footprint view must be a canonical run"
        );
        let (start, len) = (
            u32::try_from(range.start).expect("footprint buffer offset fits u32"),
            u32::try_from(run.len()).expect("footprint length fits u32"),
        );
        Footprint { buf, start, len }
    }

    /// (atom, positions-in-atom) pairs, sorted by Morton key, counts > 0.
    pub fn atoms(&self) -> &[(MortonKey, u32)] {
        let start = self.start as usize;
        &self.buf[start..start + self.len as usize]
    }

    /// The buffer this footprint views, shared with every other view of it.
    pub fn buffer(&self) -> &AtomBuffer {
        &self.buf
    }

    /// Gives up the view and returns its buffer.
    pub fn into_buffer(self) -> AtomBuffer {
        self.buf
    }

    /// Total queried positions.
    pub fn positions(&self) -> u64 {
        self.atoms().iter().map(|&(_, c)| c as u64).sum()
    }

    /// Number of atoms touched.
    pub fn atom_count(&self) -> usize {
        self.len as usize
    }

    /// True if this footprint shares at least one atom with `other` — the
    /// paper's data-sharing predicate A(q₁) ∩ A(q₂) ≠ ∅.
    pub fn overlaps(&self, other: &Footprint) -> bool {
        let (a, b) = (self.atoms(), other.atoms());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Number of shared atoms with `other`.
    pub fn overlap_count(&self, other: &Footprint) -> usize {
        let (a, b) = (self.atoms(), other.atoms());
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

impl PartialEq for Footprint {
    fn eq(&self, other: &Self) -> bool {
        self.atoms() == other.atoms()
    }
}

impl Eq for Footprint {}

impl std::fmt::Debug for Footprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Footprint")
            .field("atoms", &self.atoms())
            .finish()
    }
}

impl Serialize for Footprint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(String::from("atoms"), self.atoms().to_value())])
    }
}

impl Deserialize for Footprint {
    /// Reads the atoms as saved. Whether they are canonical (strictly
    /// ascending by Morton key, none repeated) is checked by
    /// [`Trace::validate`](crate::Trace::validate), which
    /// [`Trace::load_json`](crate::Trace::load_json) runs on every loaded
    /// trace.
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = v.as_object().ok_or_else(|| {
            serde::DeError::new(format!("expected object for Footprint, found {}", v.kind()))
        })?;
        let buf: AtomBuffer = serde::field(obj, "atoms")?;
        let len = u32::try_from(buf.len())
            .map_err(|_| serde::DeError::new("footprint holds more than u32::MAX atoms"))?;
        Ok(Footprint { buf, start: 0, len })
    }
}

/// One query: an operation over a set of positions at one timestep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Query {
    /// Trace-unique identifier.
    pub id: QueryId,
    /// Submitting user.
    pub user: UserId,
    /// Operation class.
    pub op: QueryOp,
    /// Timestep accessed.
    pub timestep: u32,
    /// Per-atom position counts.
    pub footprint: Footprint,
}

impl Query {
    /// The set of atoms accessed, as full [`AtomId`]s — A(q) in §IV.
    pub fn atom_ids(&self) -> impl Iterator<Item = AtomId> + '_ {
        self.footprint
            .atoms()
            .iter()
            .map(move |&(m, _)| AtomId::new(self.timestep, m))
    }

    /// Total queried positions.
    pub fn positions(&self) -> u64 {
        self.footprint.positions()
    }

    /// Data-sharing predicate between two queries: same timestep and
    /// overlapping atom sets.
    pub fn shares_data(&self, other: &Query) -> bool {
        self.timestep == other.timestep && self.footprint.overlaps(&other.footprint)
    }
}

/// Job category (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// Queries exhibit data dependencies and must run one after the other —
    /// e.g. particle tracking, where "the positions of particles at the next
    /// time step depend on the state … computed from the previous time step".
    Ordered,
    /// Queries are independent and may run in any order (aggregate statistics
    /// over the data). Treated like one-off queries by JAWS.
    Batched,
}

/// A job: "a collection of queries that belong to the same experiment".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// Trace-unique identifier.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Ordered or batched.
    pub kind: JobKind,
    /// Experiment campaign this job belongs to (the burst of concurrent jobs
    /// one user submitted together — e.g. tracking runs differing only in
    /// particle mass). Jobs of one campaign are statistically interchangeable;
    /// job identification is additionally scored at this granularity.
    pub campaign: u64,
    /// The query sequence. For [`JobKind::Ordered`] the order is the
    /// precedence order q₁ → q₂ → …; for batched jobs it is arbitrary.
    /// Shared: a scheduler that keeps a job's queries (the gating graph)
    /// holds another reference instead of a copy.
    pub queries: Arc<[Query]>,
    /// Job submission time in trace milliseconds.
    pub arrival_ms: f64,
    /// Client-side pacing. For ordered jobs: think time between a query
    /// completing and the user submitting the next one (results are
    /// post-processed outside the database, §IV-A). For batched jobs: the
    /// client loop's submission pacing — queries remain order-independent,
    /// but the stream trickles in at this cadence.
    pub think_ms: f64,
}

impl Job {
    /// Total positions across all queries.
    pub fn positions(&self) -> u64 {
        self.queries.iter().map(Query::positions).sum()
    }

    /// Number of distinct timesteps the job touches.
    pub fn timestep_span(&self) -> usize {
        let mut ts: Vec<u32> = self.queries.iter().map(|q| q.timestep).collect();
        ts.sort_unstable();
        ts.dedup();
        ts.len()
    }

    /// Nominal execution time estimate in ms: per-query service estimate plus
    /// think time between ordered queries. `atom_read_ms`/`position_compute_ms`
    /// are the cost-model constants T_b and T_m.
    pub fn nominal_duration_ms(&self, atom_read_ms: f64, position_compute_ms: f64) -> f64 {
        let service: f64 = self
            .queries
            .iter()
            .map(|q| {
                q.footprint.atom_count() as f64 * atom_read_ms
                    + q.positions() as f64 * position_compute_ms
            })
            .sum();
        // Both kinds pace at think_ms per query (data-dependent for ordered,
        // submission cadence for batched).
        let think = self.think_ms * self.queries.len().saturating_sub(1) as f64;
        service + think
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(atoms: &[(u64, u32)]) -> Footprint {
        Footprint::from_pairs(atoms.iter().map(|&(m, c)| (MortonKey(m), c)))
    }

    #[test]
    fn footprint_merges_and_sorts() {
        let f = fp(&[(5, 2), (1, 3), (5, 4), (9, 0)]);
        assert_eq!(
            f.atoms(),
            [(MortonKey(1), 3), (MortonKey(5), 6)],
            "sorted, merged, zero-dropped"
        );
        assert_eq!(f.positions(), 9);
        assert_eq!(f.atom_count(), 2);
    }

    /// A footprint is three words, as the `Vec` it replaced was, so a
    /// `Query` keeps its size.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn footprint_is_three_words() {
        assert_eq!(std::mem::size_of::<Footprint>(), 24);
        assert_eq!(std::mem::size_of::<Query>(), 48);
    }

    #[test]
    fn overlap_detection() {
        let a = fp(&[(1, 1), (3, 1), (7, 1)]);
        let b = fp(&[(2, 1), (3, 1)]);
        let c = fp(&[(4, 1), (8, 1)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_count(&b), 1);
        assert_eq!(b.overlap_count(&a), 1);
        assert_eq!(a.overlap_count(&c), 0);
        assert!(!Footprint::default().overlaps(&a), "empty footprint");
    }

    #[test]
    fn query_sharing_requires_same_timestep() {
        let q1 = Query {
            id: 1,
            user: 0,
            op: QueryOp::Velocity,
            timestep: 3,
            footprint: fp(&[(1, 5)]),
        };
        let mut q2 = q1.clone();
        q2.id = 2;
        assert!(q1.shares_data(&q2));
        q2.timestep = 4;
        assert!(!q1.shares_data(&q2), "different timestep, same atoms");
    }

    #[test]
    fn atom_ids_carry_the_timestep() {
        let q = Query {
            id: 1,
            user: 0,
            op: QueryOp::RegionStats,
            timestep: 7,
            footprint: fp(&[(0, 1), (4, 2)]),
        };
        let ids: Vec<AtomId> = q.atom_ids().collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.iter().all(|a| a.timestep == 7));
    }

    #[test]
    fn job_duration_estimate() {
        let q = |id: u64, ts: u32| Query {
            id,
            user: 1,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            footprint: fp(&[(0, 10)]),
        };
        let job = Job {
            id: 1,
            user: 1,
            kind: JobKind::Ordered,
            campaign: 1,
            queries: vec![q(1, 0), q(2, 1), q(3, 2)].into(),
            arrival_ms: 0.0,
            think_ms: 100.0,
        };
        // 3 queries × (1 atom × 80 + 10 pos × 1) + 2 gaps × 100.
        assert_eq!(job.nominal_duration_ms(80.0, 1.0), 3.0 * 90.0 + 200.0);
        assert_eq!(job.timestep_span(), 3);
        assert_eq!(job.positions(), 30);
    }

    /// The saved form of a footprint is its run alone, as `{"atoms":[…]}`,
    /// whatever buffer it views: a two-query trace saves to the literal
    /// below (recorded from the owned-`Vec` footprint), and loads back.
    #[test]
    fn trace_json_form_is_pinned() {
        let shared: AtomBuffer =
            Arc::from([(MortonKey(2), 5), (MortonKey(9), 1), (MortonKey(3), 4)]);
        let q = |id: u64, ts: u32, op: QueryOp, range: std::ops::Range<usize>| Query {
            id,
            user: 7,
            op,
            timestep: ts,
            footprint: Footprint::view(Arc::clone(&shared), range),
        };
        let job = Job {
            id: 1,
            user: 7,
            kind: JobKind::Ordered,
            campaign: 3,
            queries: Arc::from([
                q(10, 0, QueryOp::Velocity, 0..2),
                q(11, 1, QueryOp::ParticleTrack, 2..3),
            ]),
            arrival_ms: 250.0,
            think_ms: 1500.5,
        };
        let trace = crate::Trace::new(2, 4, vec![job]);
        let mut out = Vec::new();
        trace.save_json(&mut out).unwrap();
        let saved = String::from_utf8(out).unwrap();
        assert_eq!(
            saved,
            r#"{"timesteps":2,"atoms_per_side":4,"jobs":[{"id":1,"user":7,"kind":"Ordered","campaign":3,"queries":[{"id":10,"user":7,"op":"Velocity","timestep":0,"footprint":{"atoms":[[2,5],[9,1]]}},{"id":11,"user":7,"op":"ParticleTrack","timestep":1,"footprint":{"atoms":[[3,4]]}}],"arrival_ms":250.0,"think_ms":1500.5}]}"#
        );
        let back = crate::Trace::load_json(saved.as_bytes()).unwrap();
        let (a, b) = (&back.jobs[0].queries, &trace.jobs[0].queries);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!((x.id, x.timestep, x.op), (y.id, y.timestep, y.op));
            assert_eq!(x.footprint, y.footprint);
        }
        let mut again = Vec::new();
        back.save_json(&mut again).unwrap();
        assert_eq!(
            String::from_utf8(again).unwrap(),
            saved,
            "a loaded trace saves the same"
        );
    }

    #[test]
    fn empty_job_has_zero_duration() {
        let job = Job {
            id: 1,
            user: 1,
            kind: JobKind::Batched,
            campaign: 1,
            queries: Vec::new().into(),
            arrival_ms: 0.0,
            think_ms: 500.0,
        };
        assert_eq!(job.nominal_duration_ms(80.0, 1.0), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u32)>> {
        proptest::collection::vec((0u64..64, 0u32..100), 0..30)
    }

    proptest! {
        /// from_pairs output is sorted, deduplicated, zero-free, and
        /// preserves the position total.
        #[test]
        fn footprint_normalization_invariants(pairs in arb_pairs()) {
            let f = Footprint::from_pairs(pairs.iter().map(|&(m, c)| (MortonKey(m), c)));
            for w in f.atoms().windows(2) {
                prop_assert!(w[0].0 < w[1].0, "sorted and deduped");
            }
            prop_assert!(f.atoms().iter().all(|&(_, c)| c > 0));
            let expect: u64 = pairs.iter().map(|&(_, c)| c as u64).sum();
            prop_assert_eq!(f.positions(), expect);
        }

        /// Views of sub-runs of one shared buffer read exactly as owned
        /// footprints of the same pairs: atoms, positions, equality and
        /// both overlap predicates, against each other and against an
        /// owned footprint.
        #[test]
        fn views_equal_owned_footprints(
            runs in proptest::collection::vec(arb_pairs(), 1..5),
            other in arb_pairs(),
        ) {
            let owned: Vec<Footprint> = runs
                .iter()
                .map(|r| Footprint::from_pairs(r.iter().map(|&(m, c)| (MortonKey(m), c))))
                .collect();
            let shared: AtomBuffer =
                owned.iter().flat_map(|f| f.atoms().iter().copied()).collect();
            let mut start = 0;
            let views: Vec<Footprint> = owned
                .iter()
                .map(|f| {
                    let range = start..start + f.atom_count();
                    start = range.end;
                    Footprint::view(Arc::clone(&shared), range)
                })
                .collect();
            let other = Footprint::from_pairs(other.iter().map(|&(m, c)| (MortonKey(m), c)));
            for (v, f) in views.iter().zip(&owned) {
                prop_assert_eq!(v.atoms(), f.atoms());
                prop_assert_eq!(v.positions(), f.positions());
                prop_assert_eq!(v.atom_count(), f.atom_count());
                prop_assert_eq!(v, f);
                prop_assert_eq!(format!("{v:?}"), format!("{f:?}"));
                prop_assert!(Arc::ptr_eq(v.buffer(), &shared));
                prop_assert_eq!(v.overlaps(&other), f.overlaps(&other));
                prop_assert_eq!(v.overlap_count(&other), f.overlap_count(&other));
                for (w, g) in views.iter().zip(&owned) {
                    prop_assert_eq!(v == w, f == g);
                    prop_assert_eq!(v.overlaps(w), f.overlaps(g));
                    prop_assert_eq!(v.overlap_count(w), f.overlap_count(g));
                }
            }
        }

        /// Overlap is symmetric and consistent with overlap_count.
        #[test]
        fn overlap_symmetry(a in arb_pairs(), b in arb_pairs()) {
            let fa = Footprint::from_pairs(a.iter().map(|&(m, c)| (MortonKey(m), c)));
            let fb = Footprint::from_pairs(b.iter().map(|&(m, c)| (MortonKey(m), c)));
            prop_assert_eq!(fa.overlaps(&fb), fb.overlaps(&fa));
            prop_assert_eq!(fa.overlap_count(&fb), fb.overlap_count(&fa));
            prop_assert_eq!(fa.overlaps(&fb), fa.overlap_count(&fb) > 0);
        }

        /// A footprint always overlaps itself when non-empty.
        #[test]
        fn self_overlap(a in arb_pairs()) {
            let fa = Footprint::from_pairs(a.iter().map(|&(m, c)| (MortonKey(m), c)));
            prop_assert_eq!(fa.overlaps(&fa), !fa.atoms().is_empty());
        }
    }
}
