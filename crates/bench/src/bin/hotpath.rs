//! Hot-path wall-clock bench (perf trajectory, PR 5) — writes `BENCH_5.json`.
//!
//! Three sections, matching the three hot paths the `jaws-par` runtime was
//! first deployed on:
//!
//! 1. **materialize** — fills every timestep-0 atom from the synthetic field
//!    at 1/2/4 workers. [`AtomData::materialize`] is one serial block fill,
//!    so the worker count does not change the work; a bit-exact checksum
//!    over every voxel pins the payload (`df62f809f6c2fccf` on the full
//!    geometry) and proves it is identical at every thread count.
//! 2. **end_to_end** — a full materialized-mode (`DataMode::Synthetic`)
//!    `Executor` run at each thread count. Reports are byte-compared after
//!    masking the two measured-wall-clock overhead fields (same masking as
//!    the determinism suite).
//! 3. **top_k** — bounded top-k selection (`select_nth_unstable_by` + sort of
//!    the k prefix) vs the old full `O(m log m)` sort, over the exact total
//!    order used by `Jaws::next_batch`, at dispatch-candidate counts up to
//!    the paper's 4096-atoms-per-timestep scale and beyond.
//!
//! Section 1 is serial and reads ~1× at every worker count. Section 2's
//! speedup depends on the host: on a single-core container it is ~1×, which
//! is why `threads_reported` is recorded alongside every row. Section 3 is
//! algorithmic and shows its win on any host.
//!
//! `--smoke` shrinks geometry and rep counts for CI; `--out=PATH` overrides
//! the output path.

use jaws_bench::{alloc_counter, exp};
use jaws_morton::AtomId;
use jaws_scheduler::MetricParams;
use jaws_sim::{build_db, build_scheduler, CachePolicyKind, Executor, SchedulerKind, SimConfig};
use jaws_turbdb::{AtomData, CostModel, DataMode, DbConfig, SyntheticField};
use serde::Serialize;
use std::cmp::Ordering;
use std::hint::black_box;
use std::time::Instant;

/// Every heap acquisition in the measured regions below is counted, so the
/// allocation columns are measurements, not estimates.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

#[derive(Serialize)]
struct MatRow {
    threads: usize,
    /// What the host could run, as opposed to what we asked for (`threads`):
    /// a 1.0× speedup at `threads: 4` reads very differently when this is 1.
    available_parallelism: usize,
    atoms: usize,
    voxels: usize,
    wall_ms: f64,
    speedup_vs_serial: f64,
    /// Heap acquisitions during this row's timed region.
    allocations: u64,
    checksum: String,
}

#[derive(Serialize)]
struct E2eRow {
    threads: usize,
    available_parallelism: usize,
    wall_ms: f64,
    speedup_vs_serial: f64,
    queries_completed: u64,
    allocations: u64,
    allocations_per_query: f64,
    report_identical_to_serial: bool,
}

#[derive(Serialize)]
struct TopKRow {
    m: usize,
    k: usize,
    reps: usize,
    full_sort_ms: f64,
    top_k_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    smoke: bool,
    threads_reported: usize,
    materialize: Vec<MatRow>,
    end_to_end: Vec<E2eRow>,
    top_k: Vec<TopKRow>,
}

/// The exact dispatch total order of `Jaws::next_batch`: utility descending,
/// `AtomId` ascending on exact ties.
fn rank_order(a: &(AtomId, f64), b: &(AtomId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

fn top_k(mut in_ts: Vec<(AtomId, f64)>, k: usize) -> Vec<(AtomId, f64)> {
    if k == 0 {
        in_ts.clear();
        return in_ts;
    }
    if k < in_ts.len() {
        in_ts.select_nth_unstable_by(k - 1, rank_order);
        in_ts.truncate(k);
    }
    in_ts.sort_by(rank_order);
    in_ts
}

fn full_sort(mut in_ts: Vec<(AtomId, f64)>, k: usize) -> Vec<(AtomId, f64)> {
    in_ts.sort_by(rank_order);
    in_ts.truncate(k);
    in_ts
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic dispatch candidates: distinct atoms, pseudo-random utilities.
fn candidates(m: usize) -> Vec<(AtomId, f64)> {
    (0..m)
        .map(|i| {
            let x = (i % 64) as u32;
            let y = ((i / 64) % 64) as u32;
            let z = (i / 4096) as u32;
            let u = splitmix64(i as u64 ^ exp::TRACE_SEED) as f64 / u64::MAX as f64;
            (AtomId::from_coords(0, x, y, z), u * 10_000.0)
        })
        .collect()
}

/// FNV-1a over every voxel's raw bits — anti-dead-code and a cross-thread
/// bit-identity witness in one.
fn atom_checksum(atom: &AtomData) -> u64 {
    let g = atom.ghost() as i64;
    let s = atom.side() as i64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for lz in -g..s + g {
        for ly in -g..s + g {
            for lx in -g..s + g {
                let v = atom.velocity_at(lx, ly, lz);
                mix(v[0].to_bits() as u64);
                mix(v[1].to_bits() as u64);
                mix(v[2].to_bits() as u64);
                mix(atom.pressure_at(lx, ly, lz).to_bits() as u64);
            }
        }
    }
    h
}

fn bench_materialize(cfg: DbConfig, threads: &[usize]) -> Vec<MatRow> {
    let field = SyntheticField::new(cfg.seed, cfg.grid_side);
    let per_side = cfg.atoms_per_side();
    let ids: Vec<AtomId> = (0..per_side)
        .flat_map(|z| {
            (0..per_side)
                .flat_map(move |y| (0..per_side).map(move |x| AtomId::from_coords(0, x, y, z)))
        })
        .collect();
    let ext = (cfg.atom_side + 2 * cfg.ghost) as usize;
    let voxels = ids.len() * ext * ext * ext;
    let mut rows: Vec<MatRow> = Vec::new();
    for &t in threads {
        let _guard = jaws_par::override_threads(t);
        alloc_counter::reset();
        let start = Instant::now();
        let mut checksum = 0u64;
        for &id in &ids {
            let atom = AtomData::materialize(&cfg, &field, id);
            checksum ^= atom_checksum(black_box(&atom));
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let allocations = alloc_counter::count();
        if let Some(first) = rows.first() {
            assert_eq!(
                format!("{checksum:016x}"),
                first.checksum,
                "materialized payload differs at {t} workers"
            );
        }
        let serial_ms = rows.first().map_or(wall_ms, |r| r.wall_ms);
        rows.push(MatRow {
            threads: t,
            available_parallelism: jaws_par::hardware_parallelism(),
            atoms: ids.len(),
            voxels,
            wall_ms,
            speedup_vs_serial: serial_ms / wall_ms,
            allocations,
            checksum: format!("{checksum:016x}"),
        });
    }
    rows
}

fn e2e_report(cfg: DbConfig) -> (String, u64, f64, u64) {
    let cost = CostModel::paper_testbed();
    let db = build_db(cfg, cost, DataMode::Synthetic, 32, CachePolicyKind::Urc);
    let params = MetricParams {
        atom_read_ms: cost.atom_read_ms,
        position_compute_ms: cost.position_compute_ms,
        atoms_per_timestep: cfg.atoms_per_timestep(),
    };
    let sched = build_scheduler(
        SchedulerKind::Jaws2 { batch_k: 15 },
        params,
        exp::RUN_LEN,
        10_000.0,
    );
    let mut ex = Executor::new(db, sched, SimConfig::default());
    let trace = exp::smoke_trace();
    alloc_counter::reset();
    let start = Instant::now();
    let report = ex.run(&trace);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let allocations = alloc_counter::count();
    let json = serde_json::to_string(&report).expect("report serializes");
    (
        exp::mask_wallclock_fields(&json),
        report.queries_completed,
        wall_ms,
        allocations,
    )
}

fn bench_end_to_end(cfg: DbConfig, threads: &[usize]) -> Vec<E2eRow> {
    let mut rows: Vec<E2eRow> = Vec::new();
    let mut serial: Option<(String, f64)> = None;
    for &t in threads {
        let _guard = jaws_par::override_threads(t);
        let (masked, queries, wall_ms, allocations) = e2e_report(cfg);
        let (serial_masked, serial_ms) = serial.get_or_insert((masked.clone(), wall_ms));
        let identical = masked == *serial_masked;
        assert!(identical, "masked report differs at {t} workers");
        rows.push(E2eRow {
            threads: t,
            available_parallelism: jaws_par::hardware_parallelism(),
            wall_ms,
            speedup_vs_serial: *serial_ms / wall_ms,
            queries_completed: queries,
            allocations,
            allocations_per_query: allocations as f64 / queries.max(1) as f64,
            report_identical_to_serial: identical,
        });
    }
    rows
}

type Selector = dyn Fn(Vec<(AtomId, f64)>, usize) -> Vec<(AtomId, f64)>;

fn bench_top_k(sizes: &[usize], k: usize, reps: usize) -> Vec<TopKRow> {
    let mut rows = Vec::new();
    for &m in sizes {
        let base = candidates(m);
        let sorted = full_sort(base.clone(), k);
        let selected = top_k(base.clone(), k);
        assert_eq!(sorted.len(), selected.len(), "m={m}");
        for (a, b) in sorted.iter().zip(&selected) {
            assert_eq!(a.0, b.0, "m={m}: selected atom differs");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "m={m}: utility bits differ");
        }
        let time_of = |f: &Selector| {
            let clones: Vec<_> = (0..reps).map(|_| base.clone()).collect();
            let start = Instant::now();
            for c in clones {
                black_box(f(c, k));
            }
            start.elapsed().as_secs_f64() * 1e3
        };
        let full_sort_ms = time_of(&full_sort);
        let top_k_ms = time_of(&top_k);
        rows.push(TopKRow {
            m,
            k,
            reps,
            full_sort_ms,
            top_k_ms,
            speedup: full_sort_ms / top_k_ms,
        });
    }
    rows
}

fn main() {
    let smoke = exp::smoke_mode();
    let out_path = std::env::args()
        .find_map(|a| a.strip_prefix("--out=").map(str::to_string))
        .unwrap_or_else(|| "BENCH_5.json".to_string());
    let threads_reported = jaws_par::thread_count();

    let (mat_cfg, threads, sizes, reps): (DbConfig, &[usize], &[usize], usize) = if smoke {
        (exp::smoke_db(), &[1, 2], &[1_000, 10_000], 5)
    } else {
        let cfg = DbConfig {
            grid_side: 64,
            atom_side: 16,
            ghost: 4,
            timesteps: 4,
            dt: 0.002,
            seed: exp::TRACE_SEED,
        };
        (cfg, &[1, 2, 4], &[1_000, 10_000, 100_000], 20)
    };

    eprintln!(
        "# hotpath: {} workers reported by jaws-par",
        threads_reported
    );

    println!("\nSection 1 — atom materialization (synthetic field, timestep 0)");
    exp::rule();
    let materialize = bench_materialize(mat_cfg, threads);
    println!(
        "{:<8} {:>5} {:>8} {:>10} {:>12} {:>10} {:>10}  checksum",
        "threads", "hw", "atoms", "voxels", "wall_ms", "speedup", "allocs"
    );
    for r in &materialize {
        println!(
            "{:<8} {:>5} {:>8} {:>10} {:>12.2} {:>9.2}x {:>10}  {}",
            r.threads,
            r.available_parallelism,
            r.atoms,
            r.voxels,
            r.wall_ms,
            r.speedup_vs_serial,
            r.allocations,
            r.checksum
        );
    }

    println!("\nSection 2 — end-to-end materialized-mode run (JAWS_2, URC)");
    exp::rule();
    let end_to_end = bench_end_to_end(exp::smoke_db(), threads);
    println!(
        "{:<8} {:>5} {:>10} {:>12} {:>10} {:>14} {:>10}",
        "threads", "hw", "queries", "wall_ms", "speedup", "allocs/query", "identical"
    );
    for r in &end_to_end {
        println!(
            "{:<8} {:>5} {:>10} {:>12.2} {:>9.2}x {:>14.1} {:>10}",
            r.threads,
            r.available_parallelism,
            r.queries_completed,
            r.wall_ms,
            r.speedup_vs_serial,
            r.allocations_per_query,
            r.report_identical_to_serial
        );
    }

    println!("\nSection 3 — bounded top-k vs full sort (k = 15, dispatch order)");
    exp::rule();
    let top_k = bench_top_k(sizes, 15, reps);
    println!(
        "{:<10} {:>6} {:>6} {:>14} {:>12} {:>10}",
        "m", "k", "reps", "full_sort_ms", "top_k_ms", "speedup"
    );
    for r in &top_k {
        println!(
            "{:<10} {:>6} {:>6} {:>14.3} {:>12.3} {:>9.2}x",
            r.m, r.k, r.reps, r.full_sort_ms, r.top_k_ms, r.speedup
        );
    }

    let report = BenchReport {
        bench: "hotpath",
        smoke,
        threads_reported,
        materialize,
        end_to_end,
        top_k,
    };
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    std::fs::write(&out_path, json + "\n").expect("write bench output");
    eprintln!("# wrote {out_path}");
}
