//! Sub-queries and batches — the scheduler's unit of work.
//!
//! The pre-processing stage of §III-B splits every query into sub-queries:
//! "each sub-query is a set of positions that fall within the same atom, the
//! sub-queries can be executed in any order, and the result of the original
//! query is obtained by combining the sub-query results."

use jaws_morton::AtomId;
use jaws_workload::{Query, QueryId};
use serde::Serialize;

/// The positions of one query that fall within one atom.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SubQuery {
    /// Owning query.
    pub query: QueryId,
    /// The atom whose data this sub-query needs.
    pub atom: AtomId,
    /// Number of positions to evaluate inside the atom.
    pub positions: u32,
    /// When the sub-query entered the workload queue (ms); the age input of
    /// Eq. 2.
    pub enqueued_ms: f64,
}

/// All pending sub-queries of one atom selected for execution in one pass:
/// the atom and what its read is amortized over. The queue's query ids stay
/// with the workload manager, which reports the queries the group completes
/// through [`Batch::completing_queries`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct AtomBatch {
    /// The atom to read (once) for the whole group.
    pub atom: AtomId,
    /// Total positions evaluated against this atom — the queue's ΣW.
    pub positions: u64,
    /// Number of sub-queries amortizing that read.
    pub subqueries: u32,
}

impl AtomBatch {
    /// The group of one sub-query alone.
    pub fn single(sub: SubQuery) -> Self {
        AtomBatch {
            atom: sub.atom,
            positions: sub.positions as u64,
            subqueries: 1,
        }
    }
}

/// One scheduling decision: up to `k` atom groups executed in a single pass,
/// sorted in Morton order so the disk sees (mostly) sequential reads.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Batch {
    /// Atom groups in Morton-within-timestep order.
    pub atoms: Vec<AtomBatch>,
    /// Queries whose final pending sub-query is contained in this batch; they
    /// complete when the batch finishes.
    pub completing_queries: Vec<QueryId>,
}

impl Batch {
    /// True if the batch carries no work.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Total positions across all atom groups.
    pub fn positions(&self) -> u64 {
        self.atoms.iter().map(|a| a.positions).sum()
    }

    /// Number of atoms read.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }
}

/// Splits a query into sub-queries stamped with `now_ms` — the pre-processor
/// of §III-B. Footprints are already per-atom position counts, so this is a
/// direct, lazy mapping that allocates nothing; the sub-queries come out
/// Morton-ordered like the paper's sorted position lists.
pub fn preprocess(query: &Query, now_ms: f64) -> impl Iterator<Item = SubQuery> + '_ {
    query
        .footprint
        .atoms()
        .iter()
        .map(move |&(morton, positions)| SubQuery {
            query: query.id,
            atom: AtomId::new(query.timestep, morton),
            positions,
            enqueued_ms: now_ms,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaws_morton::MortonKey;
    use jaws_workload::{Footprint, QueryOp};

    fn query() -> Query {
        Query {
            id: 9,
            user: 1,
            op: QueryOp::Velocity,
            timestep: 3,
            footprint: Footprint::from_pairs([
                (MortonKey(5), 10u32),
                (MortonKey(2), 4),
                (MortonKey(7), 1),
            ]),
        }
    }

    #[test]
    fn preprocess_maps_every_footprint_atom() {
        let subs: Vec<SubQuery> = preprocess(&query(), 123.0).collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.iter().all(|s| s.query == 9));
        assert!(subs.iter().all(|s| s.atom.timestep == 3));
        assert!(subs.iter().all(|s| s.enqueued_ms == 123.0));
        // Footprint is Morton-sorted, so sub-queries are too.
        assert!(subs.windows(2).all(|w| w[0].atom < w[1].atom));
        let total: u32 = subs.iter().map(|s| s.positions).sum();
        assert_eq!(total as u64, query().positions());
    }

    #[test]
    fn batch_accounting() {
        let subs: Vec<SubQuery> = preprocess(&query(), 0.0).collect();
        let batch = Batch {
            atoms: vec![
                AtomBatch::single(subs[0]),
                AtomBatch {
                    atom: subs[1].atom,
                    positions: (subs[1].positions + subs[2].positions) as u64,
                    subqueries: 2,
                },
            ],
            completing_queries: vec![9],
        };
        assert!(!batch.is_empty());
        assert_eq!(batch.atom_count(), 2);
        assert_eq!(batch.positions(), 15);
        assert!(Batch::default().is_empty());
    }
}
