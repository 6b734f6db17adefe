//! Microbenchmarks for Morton encoding and sorting — the operations on the
//! pre-processing hot path (every queried position is mapped to an atom
//! and sorted in Morton order).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use jaws_morton::{decode, encode, MortonKey};

fn bench_encode(c: &mut Criterion) {
    c.bench_function("morton/encode", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(97) & 0xffff;
            black_box(encode(i, i ^ 0x5a5a, i.rotate_left(7) & 0xffff))
        })
    });
    c.bench_function("morton/decode", |b| {
        let mut code = 0u64;
        b.iter(|| {
            code = code.wrapping_add(0x9e37_79b9);
            black_box(decode(code & ((1 << 48) - 1)))
        })
    });
}

fn bench_sort_positions(c: &mut Criterion) {
    // Morton-sorting 10k positions — the per-query pre-processing step.
    let positions: Vec<(u32, u32, u32)> = (0..10_000u32)
        .map(|i| {
            let h = i.wrapping_mul(2_654_435_761);
            (h & 1023, (h >> 10) & 1023, (h >> 20) & 1023)
        })
        .collect();
    c.bench_function("morton/sort_10k_positions", |b| {
        b.iter(|| {
            let mut keys: Vec<MortonKey> = positions
                .iter()
                .map(|&(x, y, z)| MortonKey::from_coords(x, y, z))
                .collect();
            keys.sort_unstable();
            black_box(keys.len())
        })
    });
}

criterion_group!(benches, bench_encode, bench_sort_positions);
criterion_main!(benches);
