//! Pairwise job alignment via the Needleman–Wunsch dynamic program (§IV-B).
//!
//! "The algorithm aligns queries that exhibit data sharing between the two
//! jobs using the following scoring system: for queries qᵢⱼ and qₖₗ, let sⱼₗ
//! be 1 if they exhibit data sharing and 0 otherwise, while the penalty for
//! skipping a query from either job is 0. The goal is to find an alignment
//! between queries that maximizes this score. Each alignment translates into
//! a gating edge."
//!
//! The recurrence is exactly the paper's: mᵢₖ = max{mᵢ₋₁,ₖ₋₁ + sᵢₖ, mᵢ,ₖ₋₁,
//! mᵢ₋₁,ₖ}, computed bottom-up, with a traceback that extracts the matched
//! pairs. Because alignments are monotone by construction, the resulting
//! gating edges between two jobs can never cross — the precedence-violation
//! condition of Fig. 4, lines 10–13, is structurally satisfied for each pair.

use jaws_workload::Query;

/// The matched index pairs `(i, j)` — query `i` of job A aligned with query
/// `j` of job B — in ascending order, plus the total alignment score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Matched (and data-sharing) index pairs, strictly increasing in both
    /// components.
    pub pairs: Vec<(usize, usize)>,
    /// Number of data-sharing pairs in the optimal alignment.
    pub score: u32,
}

/// Aligns two query sequences, matching only pairs that actually share data.
///
/// Runs in O(n·m) time and space — with ~tens of queries per job this is the
/// `(n 2) m²` dynamic-program phase of the paper. A convenience over
/// [`align_into`] with fresh buffers.
pub fn align_jobs(a: &[Query], b: &[Query]) -> Alignment {
    let mut pairs = Vec::new();
    let score = align_into(a, b, &mut Vec::new(), &mut pairs);
    Alignment { pairs, score }
}

/// [`align_jobs`] into caller-owned buffers: `table` is the flat
/// `(n+1)·(m+1)` dynamic-program table (resized and overwritten), and the
/// matched pairs are appended to `pairs` in ascending order. Returns the
/// alignment score. A caller that keeps both buffers aligns without
/// allocating once they have grown to its largest job pair.
pub fn align_into(
    a: &[Query],
    b: &[Query],
    table: &mut Vec<u32>,
    pairs: &mut Vec<(usize, usize)>,
) -> u32 {
    let n = a.len();
    let m = b.len();
    if n == 0 || m == 0 {
        return 0;
    }
    // score(i, j) = table[i·w + j] = best alignment of a[..i] with b[..j];
    // row 0 and column 0 stay zero.
    let w = m + 1;
    table.clear();
    table.resize((n + 1) * w, 0);
    for i in 1..=n {
        for j in 1..=m {
            let s = u32::from(a[i - 1].shares_data(&b[j - 1]));
            table[i * w + j] = (table[(i - 1) * w + j - 1] + s)
                .max(table[i * w + j - 1])
                .max(table[(i - 1) * w + j]);
        }
    }
    // Traceback, preferring diagonal moves that matched.
    let start = pairs.len();
    let (mut i, mut j) = (n, m);
    while i > 0 && j > 0 {
        let here = table[i * w + j];
        let s = u32::from(a[i - 1].shares_data(&b[j - 1]));
        if s == 1 && here == table[(i - 1) * w + j - 1] + 1 {
            pairs.push((i - 1, j - 1));
            i -= 1;
            j -= 1;
        } else if here == table[(i - 1) * w + j] {
            i -= 1;
        } else if here == table[i * w + j - 1] {
            j -= 1;
        } else {
            // Zero-score diagonal (no sharing): skip both.
            i -= 1;
            j -= 1;
        }
    }
    pairs[start..].reverse();
    table[n * w + m]
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaws_morton::MortonKey;
    use jaws_workload::{Footprint, QueryOp};

    /// A query touching the single "region" `r` at timestep `ts` — mirrors the
    /// R1..R5 node labels of the paper's Figs. 2–3.
    fn q(id: u64, ts: u32, r: u64) -> Query {
        Query {
            id,
            user: 0,
            op: QueryOp::ParticleTrack,
            timestep: ts,
            footprint: Footprint::from_pairs([(MortonKey(r), 10u32)]),
        }
    }

    /// Builds a job from (timestep, region) labels.
    fn job(start_id: u64, spec: &[(u32, u64)]) -> Vec<Query> {
        spec.iter()
            .enumerate()
            .map(|(i, &(ts, r))| q(start_id + i as u64, ts, r))
            .collect()
    }

    #[test]
    fn identical_jobs_align_fully() {
        let a = job(1, &[(0, 1), (1, 2), (2, 3)]);
        let b = job(10, &[(0, 1), (1, 2), (2, 3)]);
        let al = align_jobs(&a, &b);
        assert_eq!(al.score, 3);
        assert_eq!(al.pairs, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn disjoint_jobs_do_not_align() {
        let a = job(1, &[(0, 1), (1, 2)]);
        let b = job(10, &[(0, 7), (1, 8)]);
        let al = align_jobs(&a, &b);
        assert_eq!(al.score, 0);
        assert!(al.pairs.is_empty());
    }

    #[test]
    fn paper_fig3_style_alignment_with_skips() {
        // Job1 visits R1 R3 R4; Job2 visits R1 R2 R3 R4: the alignment skips
        // Job2's R2 query and matches the other three.
        let j1 = job(1, &[(0, 1), (1, 3), (2, 4)]);
        let j2 = job(10, &[(0, 1), (1, 2), (1, 3), (2, 4)]);
        let al = align_jobs(&j1, &j2);
        assert_eq!(al.score, 3);
        assert_eq!(al.pairs, vec![(0, 0), (1, 2), (2, 3)]);
    }

    #[test]
    fn alignment_is_monotone_never_crossing() {
        // Shared regions appear out of order; the DP may match at most one of
        // the crossings.
        let j1 = job(1, &[(0, 1), (1, 2)]);
        let j2 = job(10, &[(1, 2), (0, 1)]); // reversed order
        let al = align_jobs(&j1, &j2);
        assert_eq!(al.score, 1, "crossing matches are mutually exclusive");
        for w in al.pairs.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn sharing_requires_same_timestep() {
        // Same region labels but different timesteps: A(q) sets differ.
        let j1 = job(1, &[(0, 5)]);
        let j2 = job(10, &[(3, 5)]);
        assert_eq!(align_jobs(&j1, &j2).score, 0);
    }

    #[test]
    fn at_most_one_edge_per_query() {
        // Job2 has two queries sharing with Job1's single query; only one can
        // be matched (Fig. 4's one-gating-edge-per-job rule falls out of the
        // alignment structure).
        let j1 = job(1, &[(0, 1)]);
        let j2 = job(10, &[(0, 1), (0, 1)]);
        let al = align_jobs(&j1, &j2);
        assert_eq!(al.score, 1);
        assert_eq!(al.pairs.len(), 1);
    }

    #[test]
    fn empty_jobs() {
        let j1 = job(1, &[(0, 1)]);
        assert_eq!(align_jobs(&j1, &[]).score, 0);
        assert_eq!(align_jobs(&[], &j1).score, 0);
    }

    #[test]
    fn partial_overlap_counts_as_sharing() {
        // Footprints overlapping in one atom of several still share.
        let mut a = q(1, 0, 1);
        a.footprint = Footprint::from_pairs([(MortonKey(1), 5u32), (MortonKey(2), 5)]);
        let mut b = q(2, 0, 2);
        b.footprint = Footprint::from_pairs([(MortonKey(2), 5u32), (MortonKey(3), 5)]);
        let al = align_jobs(&[a], &[b]);
        assert_eq!(al.score, 1);
    }
}
