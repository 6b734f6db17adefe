//! Needleman–Wunsch job alignment and gating admission — the paper's
//! `(n 2) m²` dynamic-program phase and `O(n³m²)` merge phase, which must
//! stay cheap because every arriving job triggers them ("this overhead is
//! low in practice given that the graph is sparse"). The merge phase does
//! not rebuild the whole group DAG per edge: each admission runs a DFS over
//! the groups reachable from the merged one (see `jaws_scheduler::gating`).
//! The lifecycle bench passes one reused buffer to every call that can
//! promote queries, as `Jaws` does.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jaws_morton::MortonKey;
use jaws_scheduler::{align_jobs, GatingConfig, GatingGraph};
use jaws_workload::{Footprint, Job, JobKind, Query, QueryOp};

fn tracking_job(id: u64, steps: u32, region: u64) -> Job {
    Job {
        id,
        user: (id % 8) as u32,
        kind: JobKind::Ordered,
        campaign: id,
        queries: (0..steps)
            .map(|s| Query {
                id: id * 1000 + s as u64,
                user: (id % 8) as u32,
                op: QueryOp::ParticleTrack,
                timestep: s,
                footprint: Footprint::from_pairs((0..8u64).map(|d| (MortonKey(region + d), 50u32))),
            })
            .collect(),
        arrival_ms: id as f64,
        think_ms: 1000.0,
    }
}

fn bench_alignment(c: &mut Criterion) {
    let a = tracking_job(1, 30, 0);
    let b = tracking_job(2, 30, 4); // half-overlapping footprints
    c.bench_function("gating/nw_align_30x30", |b2| {
        b2.iter(|| black_box(align_jobs(&a.queries, &b.queries).score))
    });

    c.bench_function("gating/admit_30_jobs", |bch| {
        bch.iter(|| {
            let mut g = GatingGraph::new(GatingConfig::default());
            for j in 0..30u64 {
                g.add_job(&tracking_job(j + 1, 15, (j % 5) * 3));
            }
            black_box(g.admitted_edges())
        })
    });

    c.bench_function("gating/full_lifecycle_10_jobs", |bch| {
        let jobs: Vec<Job> = (0..10u64)
            .map(|j| tracking_job(j + 1, 10, (j % 3) * 4))
            .collect();
        bch.iter(|| {
            let mut g = GatingGraph::new(GatingConfig {
                gate_timeout_ms: 100.0,
                max_align_jobs: 64,
            });
            for j in &jobs {
                g.add_job(j);
            }
            let mut now = 0.0;
            let mut cursor = vec![0usize; jobs.len()];
            let mut promoted = Vec::new();
            for j in &jobs {
                g.query_available(j.queries[0].id, now, &mut promoted);
            }
            let mut remaining: usize = jobs.iter().map(|j| j.queries.len()).sum();
            while remaining > 0 {
                let mut progressed = false;
                for (ji, j) in jobs.iter().enumerate() {
                    let qi = cursor[ji];
                    if qi >= j.queries.len() {
                        continue;
                    }
                    let qid = j.queries[qi].id;
                    if matches!(g.state(qid), jaws_scheduler::QueryState::Queue) {
                        g.query_done(qid, &mut promoted);
                        remaining -= 1;
                        cursor[ji] += 1;
                        if cursor[ji] < j.queries.len() {
                            g.query_available(j.queries[cursor[ji]].id, now, &mut promoted);
                        }
                        progressed = true;
                    }
                }
                if !progressed {
                    now += 200.0;
                    g.release_stale(now, &mut promoted);
                }
                promoted.clear();
            }
            black_box(g.forced_releases())
        })
    });
}

criterion_group!(benches, bench_alignment);
criterion_main!(benches);
