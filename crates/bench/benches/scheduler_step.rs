//! Scheduling-decision latency: how long one `next_batch` takes with
//! thousands of pending atoms — the cost the two-level framework and metric
//! evaluation add per pass. Includes an ablation of Morton-ordered versus
//! utility-ordered batch execution (the design choice DESIGN.md calls out).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jaws_bench::exp::NoneResident;
use jaws_morton::{AtomId, MortonKey};
use jaws_scheduler::queues::reference;
use jaws_scheduler::{
    Jaws, JawsConfig, LifeRaft, MetricParams, Scheduler, SubQuery, WorkloadManager,
};
use jaws_workload::{Footprint, Query, QueryOp};

/// Loads a scheduler with `n` queries over a 16³ atom grid, 31 timesteps.
fn load<S: Scheduler>(s: &mut S, n: u64) {
    for i in 0..n {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let q = Query {
            id: i + 1,
            user: (h % 16) as u32,
            op: QueryOp::Velocity,
            timestep: (h % 31) as u32,
            footprint: Footprint::from_pairs(
                (0..6u64).map(|d| (MortonKey((h >> 8) % 4090 + d), 100u32)),
            ),
        };
        s.query_available(&q, i as f64);
    }
}

fn bench_next_batch(c: &mut Criterion) {
    let params = MetricParams::paper_testbed();
    c.bench_function("scheduler/jaws_next_batch_2k_queries", |b| {
        b.iter_batched(
            || {
                let mut s = Jaws::new(JawsConfig::jaws1(params));
                load(&mut s, 2000);
                s
            },
            |mut s| {
                // Drain ten batches against a fully loaded queue state.
                for t in 0..10 {
                    black_box(s.next_batch(t as f64, &NoneResident));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("scheduler/liferaft_next_batch_2k_queries", |b| {
        b.iter_batched(
            || {
                let mut s = LifeRaft::contention(params, 50);
                load(&mut s, 2000);
                s
            },
            |mut s| {
                for t in 0..10 {
                    black_box(s.next_batch(t as f64, &NoneResident));
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
    c.bench_function("scheduler/jaws_drain_500_queries", |b| {
        b.iter_batched(
            || {
                let mut s = Jaws::new(JawsConfig::jaws1(params));
                load(&mut s, 500);
                s
            },
            |mut s| {
                let mut t = 0.0;
                while let Some(batch) = s.next_batch(t, &NoneResident) {
                    t += 1.0;
                    black_box(batch.atom_count());
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// A workload manager with exactly `n` pending atoms spread over 32
/// timesteps, one sub-query each.
fn loaded_wm(n: u64) -> WorkloadManager {
    let mut wm = WorkloadManager::new(MetricParams::paper_testbed());
    for i in 0..n {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        wm.enqueue([SubQuery {
            query: i + 1,
            atom: AtomId::new((i % 32) as u32, MortonKey(i / 32)),
            positions: (h % 900 + 10) as u32,
            enqueued_ms: (h % 1000) as f64,
        }]);
    }
    wm
}

/// One steady-state scheduling step against the full-scan reference oracle
/// (`jaws_scheduler::queues::reference`): argmax over a fresh
/// `aged_utilities` scan, take the atom, enqueue a replacement sub-query,
/// rebuild the URC snapshot from scratch.
fn full_step(wm: &mut WorkloadManager, i: u64, now_ms: f64) {
    let res = NoneResident;
    let (atom, _) = reference::aged_utilities(wm, now_ms, 0.3, &res)
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .unwrap();
    let batch = wm.take_atom(&atom, &mut Vec::new());
    black_box(batch.positions());
    wm.enqueue([SubQuery {
        query: 1_000_000 + i,
        atom,
        positions: 100,
        enqueued_ms: now_ms,
    }]);
    black_box(reference::utility_snapshot(wm, &res));
}

/// The same step through the maintained views: O(#timesteps) argmax,
/// O(Δ) integration, O(1) snapshot clone.
fn incremental_step(wm: &mut WorkloadManager, i: u64, now_ms: f64) {
    let res = NoneResident;
    let (atom, _) = wm.best_atom(now_ms, 0.3, &res).unwrap();
    let batch = wm.take_atom(&atom, &mut Vec::new());
    black_box(batch.positions());
    wm.enqueue([SubQuery {
        query: 1_000_000 + i,
        atom,
        positions: 100,
        enqueued_ms: now_ms,
    }]);
    black_box(wm.utility_snapshot(&res));
}

/// Full-recompute versus incremental metric maintenance at 1k / 10k / 100k
/// pending atoms — the tentpole comparison: the full path rescans every
/// pending atom per dispatch, the incremental path only touches what changed.
fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/metric_maintenance");
    for &n in &[1_000u64, 10_000, 100_000] {
        group.bench_function(&format!("full_scan_{n}_atoms"), |b| {
            let mut wm = loaded_wm(n);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                full_step(&mut wm, i, 2000.0 + i as f64);
            })
        });
        group.bench_function(&format!("incremental_{n}_atoms"), |b| {
            let mut wm = loaded_wm(n);
            let res = NoneResident;
            black_box(wm.utility_snapshot(&res)); // prime the arrangements
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                incremental_step(&mut wm, i, 2000.0 + i as f64);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_next_batch, bench_incremental_vs_full);
criterion_main!(benches);
